"""Forward-hook mechanism mirroring ``torch.nn.Module`` hooks.

The paper injects computational faults through PyTorch forward hooks:
"the hook function modifies the output tensor and the modified version
is used in the following data path."  Our engine calls every registered
hook with the freshly computed output of the named linear layer; a hook
may return a replacement array (or mutate in place and return None).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["HookContext", "HookFn", "HookManager"]


@dataclass(frozen=True)
class HookContext:
    """Where and when a layer output was produced.

    ``iteration`` counts token-generation iterations: the prompt
    prefill is iteration 0 and each subsequently generated token
    increments it — the granularity at which the paper samples
    computational-fault timing.

    The hooked output is ``(t, features)`` — one sequence's tokens — on
    every entry that decodes sequences.  On the serial
    :meth:`InferenceEngine.forward` that is the whole layer output and
    ``batch_row`` is ``None``.  On the batched entries
    (:meth:`InferenceEngine.forward_step_batch`, ``t == 1``, and
    :meth:`InferenceEngine.forward_chunk_batch`) hooks are applied once
    per batch row, each invocation receiving that row's contiguous
    ``(t, features)`` token slice — exactly the serial shape — with
    ``batch_row`` set to the row's id and ``iteration`` to the row's
    own generation-iteration count (an ``int``; MoE router and expert
    hooks included, each seeing only that row's routed tokens).  The id
    is the row's index unless the caller passes ``row_ids``;
    :class:`~repro.generation.round.DecodeRound` passes each row's
    admission number, which stays with the sequence while siblings
    retire around it.  A hook that targets one sequence of a batch can
    therefore filter on ``batch_row`` (the continuous-batching FI
    gate).

    Only the shared-prefix mode of ``forward`` (2-D ids, option
    scoring) hands hooks more than one sequence: the flattened
    batch-major ``(B*t, features)`` output with ``batch_row`` ``None``.
    ``score_options`` only takes it when
    :func:`~repro.generation.round.decode_plan` finds nothing but pure
    observers armed, so fault-injection hooks never observe it unless
    registered mid-flight.
    """

    block: int
    layer: str
    iteration: int
    full_name: str
    batch_row: int | None = None


HookFn = Callable[[np.ndarray, HookContext], "np.ndarray | None"]


class HookManager:
    """Registry of output hooks keyed by full layer name."""

    def __init__(self) -> None:
        self._hooks: dict[str, list[HookFn]] = {}
        self._unscoped = 0
        self._perturbing = 0

    def register(
        self,
        layer_name: str,
        fn: HookFn,
        row_scoped: bool = False,
        observer: bool = False,
    ) -> Callable[[], None]:
        """Attach ``fn`` to a layer; returns a detach handle.

        ``row_scoped=True`` declares that the hook confines its effect
        to the single tensor slice it is handed — per-row application
        under a batched decode step then perturbs exactly one sequence.
        Batched decoding stays enabled under armed fault machinery only
        while *every* registered hook makes this promise
        (:meth:`all_row_scoped`); an unscoped hook forces the serial
        fallback.

        ``observer=True`` makes the stronger promise that the hook
        never alters the tensor at all (no mutation, always returns
        ``None``) — a pure probe such as layer timing.  Fast paths
        that reshuffle the iteration → forward mapping (speculative
        decoding) stay enabled only while every hook is an observer
        (:meth:`all_observers`); anything that perturbs outputs keys
        on which forward it fires in, so it forces the exact serial
        loop.
        """
        self._hooks.setdefault(layer_name, []).append(fn)
        if not row_scoped:
            self._unscoped += 1
        if not observer:
            self._perturbing += 1
        removed = False

        def remove() -> None:
            nonlocal removed
            callbacks = self._hooks.get(layer_name, [])
            if fn in callbacks:
                callbacks.remove(fn)
                if not callbacks:
                    del self._hooks[layer_name]
                if not removed:
                    if not row_scoped:
                        self._unscoped -= 1
                    if not observer:
                        self._perturbing -= 1
                removed = True

        return remove

    def clear(self) -> None:
        self._hooks.clear()
        self._unscoped = 0
        self._perturbing = 0

    def all_row_scoped(self) -> bool:
        """True when every registered hook declared row-scoped effects."""
        return self._unscoped == 0

    def all_observers(self) -> bool:
        """True when every registered hook declared itself a pure probe."""
        return self._perturbing == 0

    def __len__(self) -> int:
        return sum(len(v) for v in self._hooks.values())

    def has(self, layer_name: str) -> bool:
        return layer_name in self._hooks

    def apply(self, output: np.ndarray, ctx: HookContext) -> np.ndarray:
        """Run all hooks for ``ctx.full_name`` over ``output`` in order."""
        for fn in self._hooks.get(ctx.full_name, ()):  # fast path: empty
            replacement = fn(output, ctx)
            if replacement is not None:
                output = replacement
        return output
