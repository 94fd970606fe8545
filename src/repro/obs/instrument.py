"""Instrumentation helpers that attach telemetry to the engine.

Per-layer timing rides the engine's existing :class:`HookManager`
mechanism — the same interception point fault injectors use — so the
measurement sees exactly the layer boundaries the study injects at.
Each hook observes the wall time from the previous layer's output (or
the start of the forward, whichever is later) to its own output; the
deltas tile the forward pass, so summed layer times ≈ forward time.

q, k and v are one product per block, their hooks run one after
another on its columns: ``q_proj``'s delta carries the attention norm
and the whole shared product, and ``k_proj``'s and ``v_proj``'s read
about 0.  Read the three as one bucket.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["attach_layer_timing"]


def attach_layer_timing(engine, telemetry=None) -> Callable[[], None]:
    """Register timing hooks on every faultable linear layer.

    Returns a single detach handle removing all hooks.  Histograms are
    keyed ``engine.layer_ms.<full_layer_name>`` in the telemetry's
    metrics registry.
    """
    from repro.obs.runtime import telemetry as _global_telemetry

    tel = telemetry or _global_telemetry()
    registry = tel.metrics
    state = {"last": 0.0}

    def timing_hook(output, ctx):
        now = time.perf_counter()
        base = max(state["last"], tel.marks.get("forward_start", 0.0))
        if base > 0.0:
            registry.histogram(f"engine.layer_ms.{ctx.full_name}").observe(
                (now - base) * 1e3
            )
        state["last"] = now
        return None

    # Row-scoped + observer: a pure probe is safe to apply per batch
    # row (traced runs keep continuous-batched decoding) and never
    # perturbs outputs (traced runs keep speculative decoding).  Under
    # a batched step the first row's delta carries the layer cost and
    # later rows observe ~0; the deltas still tile the forward pass.
    return engine.hooks.observe(engine.linear_layer_names(), timing_hook)
