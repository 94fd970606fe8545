"""Reading layer outputs and expert selections off a forward, through
observer hooks (:meth:`~repro.inference.hooks.HookManager.observe`)."""

from __future__ import annotations

import numpy as np

from repro.inference.engine import InferenceEngine, select_experts
from repro.inference.hooks import HookContext

__all__ = ["Recorder"]


class Recorder:
    """A copy of each output of ``names`` (default: every faultable
    linear) by full name, and of each router's choice
    (:func:`~repro.inference.engine.select_experts`, the engine's own)
    by ``(iteration, block)``; the last forward wins.  It sees an output
    after the hooks registered before it: to see a fault, register inside
    ``with inject(...)``.  Its records match the serial loop's on the
    serial and batched paths, not under speculation, where one verify
    chunk runs several generation iterations under one iteration tag.
    Detach with :meth:`detach`, or use it as a context manager."""

    def __init__(self, engine: InferenceEngine, names=None):
        self.layer_outputs: dict[str, np.ndarray] = {}
        self.expert_selections: dict[tuple[int, int], np.ndarray] = {}
        top_k = engine.config.top_k

        def probe(output: np.ndarray, ctx: HookContext) -> None:
            self.layer_outputs[ctx.full_name] = output.copy()
            if ctx.layer == "router":
                self.expert_selections[ctx.iteration, ctx.block] = (
                    select_experts(output, top_k)
                )

        self.detach = engine.hooks.observe(
            engine.linear_layer_names() if names is None else names, probe
        )

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()
