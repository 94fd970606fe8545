"""Fault injectors: context managers that corrupt and always restore.

``MemoryFaultInjector`` swaps in a copy of one weight tensor with bits
of one stored element flipped before the inference, and swaps the
pristine tensor back afterwards — the paper's "after each execution, we
flip the same bits back to their fault-free values to enable a fresh
execution for the next fault injection run" (§3.2), with nothing
flipped in the store to flip back.

``ComputationalFaultInjector`` registers a one-shot forward hook on the
target layer: at the sampled token-generation iteration it flips bits
of a single output-tensor element (in the engine's activation float
format) and then detaches its hook, so exactly one transient corruption occurs
per inference — including under beam search, where only one hypothesis'
computation is struck (a transient fault hits one kernel execution).

``KVFaultInjector`` corrupts one stored K/V element at the sampled
generation iteration; unlike an activation fault the flipped bits
*persist* in the cache, so every later token attending to the struck
position reads corrupted state.  The injector watches the struck cache
for rollbacks (rejected speculation rounds, snapshot restores): a
strike that landed beyond the surviving prefix is undone and the
injector re-arms, so the fault actually lands in the tokens the model
emits instead of silently dying in discarded draft state.

``AccumulatorFaultInjector`` corrupts a GEMM-internal *partial sum*:
at the sampled reduction split the running accumulator for one output
element flips bits, then the remaining products accumulate on top of
the corrupted value — exactly ``out += flip(partial_k) - partial_k``,
computed without re-running the layer's full matmul.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.fi.sites import FaultSite
from repro.inference.engine import InferenceEngine
from repro.inference.hooks import HookContext
from repro.inference.kvcache import KVCache
from repro.numerics.formats import flip_value_bits
from repro.obs.flight import flight_recorder as _flight

__all__ = [
    "MemoryFaultInjector",
    "ComputationalFaultInjector",
    "KVFaultInjector",
    "AccumulatorFaultInjector",
    "inject",
]


class MemoryFaultInjector:
    """Persistent weight corruption with guaranteed restoration.

    The injector builds a private faulted copy ``W'`` of the one struck
    tensor (:meth:`~repro.inference.storage.WeightStore.faulted_array`,
    which never writes the store — a pool worker never writes an arena
    page).  By default ``W'`` is swapped in as the store's compute array
    (:meth:`~repro.inference.storage.WeightStore.swap`), so every
    forward reads it, and ``store.array`` shows it, until
    :meth:`__exit__` swaps the pristine array back.  ``rows`` keys
    ``W'`` to those batch row ids instead: it is registered for ``rows``
    in ``engine.row_weights``, where the batched entries read it for
    those rows alone
    (:meth:`~repro.inference.engine.InferenceEngine._linear`), and exit
    unregisters it.  Several trials' faults then share one forward, each
    on its own rows.  A row carries at most one fault per layer, and a
    layer with ``W'`` swapped in takes no second fault.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        site: FaultSite,
        rows: "tuple[int, ...] | list[int] | None" = None,
    ) -> None:
        if not site.fault_model.is_memory:
            raise ValueError(f"{site.fault_model} is not a memory fault model")
        self.engine = engine
        self.site = site
        self.rows = None if rows is None else tuple(int(row) for row in rows)
        self._faulted: np.ndarray | None = None
        self._pristine: np.ndarray | None = None

    def __enter__(self) -> "MemoryFaultInjector":
        site = self.site
        store = self.engine.weight_store(site.layer_name)
        if self.rows is not None:
            keyed = self.engine.row_weights.get(site.layer_name, {})
            taken = sorted(set(self.rows) & keyed.keys())
            if taken:
                raise RuntimeError(
                    f"rows {taken} already carry a fault in {site.layer_name}"
                )
        faulted = store.faulted_array(site.row, site.col, list(site.bits))
        before = float(store.array[site.row, site.col])
        if self.rows is None:
            self._pristine = store.swap(faulted)
            # Announce the armed fault (decode_plan's weight_fault):
            # decodes run the serial reference loop, and nothing reuses
            # fault-free state — golden passes, a server's prompt cache
            # — while the swapped-in weights are corrupted.
            self.engine.weight_fault_depth += 1
        else:
            self.engine.row_weights.setdefault(site.layer_name, {}).update(
                dict.fromkeys(self.rows, faulted)
            )
        self._faulted = faulted
        recorder = _flight()
        if recorder.active:
            recorder.event(
                "inject.arm",
                layer=site.layer_name,
                row=site.row,
                col=site.col,
                bits=list(site.bits),
                before=before,
                after=float(faulted[site.row, site.col]),
            )
        return self

    def __exit__(self, *exc: object) -> None:
        faulted, self._faulted = self._faulted, None
        if faulted is None:
            return
        if self.rows is None:
            self.engine.weight_store(self.site.layer_name).swap(self._pristine)
            self._pristine = None
            self.engine.weight_fault_depth -= 1
        else:
            keyed = self.engine.row_weights.get(self.site.layer_name, {})
            for row in self.rows:
                if keyed.get(row) is faulted:
                    del keyed[row]
            if not keyed:
                self.engine.row_weights.pop(self.site.layer_name, None)
        recorder = _flight()
        if recorder.active:
            recorder.event("inject.restore", layer=self.site.layer_name)


class ComputationalFaultInjector:
    """One-shot activation corruption at a chosen generation iteration.

    The hook is registered *row-scoped*: it corrupts exactly one
    element of whatever tensor slice it is handed, so batched decoding
    stays enabled while it is armed — under a batched decode step the
    engine applies hooks once per batch row on that row's own
    ``(t, features)`` slice, and the one-shot strikes exactly one
    sequence (the first row reaching the target iteration, which is the
    same hypothesis the serial loop would have struck).  ``batch_row``
    pins the strike to the row carrying that id instead
    (:attr:`HookContext.batch_row`) — required wherever several rows
    can reach the target layer and iteration, as when trials share a
    round: pin to ``Row.id``, which does not move when a sibling
    retires, and disarm when the row does.

    The hook detaches itself at the strike: a fired injector holds no
    hook, so later forwards skip the layer's per-row hook dispatch, and
    :meth:`__exit__` (idempotent) has nothing left to detach.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        site: FaultSite,
        batch_row: int | None = None,
    ) -> None:
        if not site.fault_model.is_computational:
            raise ValueError(f"{site.fault_model} is not a computational model")
        self.engine = engine
        self.site = site
        self.batch_row = batch_row
        self.fired = False
        self._remove: Callable[[], None] | None = None

    def _hook(self, output: np.ndarray, ctx: HookContext) -> np.ndarray | None:
        if self.fired or ctx.iteration != self.site.iteration:
            return None
        if (
            self.batch_row is not None
            and ctx.batch_row is not None
            and ctx.batch_row != self.batch_row
        ):
            return None
        self.fired = True
        # One-shot: every later call would return None, so leave the
        # engine — a layer with no hook skips per-row dispatch.
        remove, self._remove = self._remove, None
        if remove is not None:
            remove()
        flat = output if output.ndim == 2 else output.reshape(-1, output.shape[-1])
        row = min(int(self.site.row_frac * flat.shape[0]), flat.shape[0] - 1)
        col = self.site.col % flat.shape[1]
        before = float(flat[row, col])
        flat[row, col] = flip_value_bits(
            flat[row, col], list(self.site.bits), self.engine.activation_format
        )
        recorder = _flight()
        if recorder.active:
            recorder.event(
                "inject.fire",
                layer=ctx.full_name,
                iteration=int(ctx.iteration),
                batch_row=ctx.batch_row,
                row=row,
                col=col,
                bits=list(self.site.bits),
                before=before,
                after=float(flat[row, col]),
            )
        return output

    def __enter__(self) -> "ComputationalFaultInjector":
        self.fired = False
        self._remove = self.engine.hooks.register(
            self.site.layer_name, self._hook, row_scoped=True
        )
        return self

    def __exit__(self, *exc: object) -> None:
        if self._remove is not None:
            self._remove()
            self._remove = None


class KVFaultInjector:
    """Persistent K/V-cache corruption with rollback-aware arming.

    Armed on the engine (``engine.kv_fault``), which calls
    :meth:`on_append` from the attention paths right after new K/V
    lands in the target block's cache.  The strike latches on the first
    append at or past the sampled iteration (``>=`` — speculative
    verification chunks skip iteration values, and a waiting fault in
    real hardware does not politely disappear when the scheduler
    batches tokens), resolves the struck token position against the
    cache's *occupied* prefix, and flips the sampled bits in place.

    The corruption persists — every later attention over the struck
    position reads the flipped bits — until the cache itself discards
    the position: the injector registers as a truncation watcher on the
    struck cache, and a rollback to at or below the struck position
    restores the element and re-arms the fault (the satellite-3 bug:
    without this, a rejected speculation round silently erased the
    fault while the one-shot injector believed it had fired).

    ``caches`` optionally pins the strike to one sequence's per-block
    cache list (identity comparison): where one round decodes several
    sequences, the fault lands in exactly that sequence's slot
    (armed through ``DecodeRound.admit(before_prefill=)``).
    """

    def __init__(
        self,
        engine: InferenceEngine,
        site: FaultSite,
        caches: list[KVCache] | None = None,
    ) -> None:
        if not site.fault_model.is_kv:
            raise ValueError(f"{site.fault_model} is not a KV-cache fault model")
        self.engine = engine
        self.site = site
        self.caches = caches
        self.fired = False
        self._struck: tuple | None = None

    def __enter__(self) -> "KVFaultInjector":
        if self.engine.kv_fault is not None:
            raise RuntimeError("another KV fault is already armed on this engine")
        self.fired = False
        self.engine.kv_fault = self
        recorder = _flight()
        if recorder.active:
            recorder.event(
                "inject.kv_arm",
                layer=self.site.layer_name,
                plane=self.site.plane,
                head=self.site.row,
                channel=self.site.col,
                bits=list(self.site.bits),
                iteration=int(self.site.iteration),
            )
        return self

    def on_append(self, block: int, cache: KVCache, iteration: int) -> None:
        """Engine callback after K/V for ``block`` landed in ``cache``."""
        if self.fired or block != self.site.block:
            return
        if self.caches is not None and cache is not self.caches[block]:
            return
        if iteration < self.site.iteration or cache.length <= 0:
            return
        pos = min(int(self.site.row_frac * cache.length), cache.length - 1)
        buf = cache.k if self.site.plane == "k" else cache.v
        head = self.site.row % buf.shape[0]
        chan = self.site.col % buf.shape[2]
        before = float(buf[head, pos, chan])
        buf[head, pos, chan] = flip_value_bits(
            before, list(self.site.bits), "fp32"
        )
        self.fired = True
        self._struck = (cache, buf, head, pos, chan, before)
        cache.watch(self)
        recorder = _flight()
        if recorder.active:
            recorder.event(
                "inject.kv_fire",
                layer=self.site.layer_name,
                plane=self.site.plane,
                iteration=int(iteration),
                head=head,
                position=pos,
                channel=chan,
                bits=list(self.site.bits),
                before=before,
                after=float(buf[head, pos, chan]),
            )

    def on_truncate(self, cache: KVCache, length: int) -> None:
        """Cache rollback: undo + re-arm if the strike was discarded."""
        if self._struck is None:
            return
        struck_cache, buf, head, pos, chan, before = self._struck
        if cache is not struck_cache or length > pos:
            return
        buf[head, pos, chan] = before
        cache.unwatch(self)
        self._struck = None
        self.fired = False
        recorder = _flight()
        if recorder.active:
            recorder.event(
                "inject.kv_rollback",
                layer=self.site.layer_name,
                position=pos,
                truncated_to=int(length),
            )

    def __exit__(self, *exc: object) -> None:
        if self._struck is not None:
            cache, buf, head, pos, chan, before = self._struck
            buf[head, pos, chan] = before
            cache.unwatch(self)
            self._struck = None
            recorder = _flight()
            if recorder.active:
                recorder.event("inject.restore", layer=self.site.layer_name)
        if self.engine.kv_fault is self:
            self.engine.kv_fault = None


class AccumulatorFaultInjector:
    """One-shot GEMM partial-sum corruption at a chosen iteration.

    Armed on the engine (``engine.acc_fault``); the engine's linear
    layer calls :meth:`maybe_strike` right after each GEMM with the
    inputs still at hand.  The injector recomputes the target output
    element's partial sum over the sampled reduction split, flips the
    sampled bits of that partial in the activation format, and adds the
    resulting delta to the final output — bit-exact equivalence to the
    flip having happened *inside* the reduction, at a cost of one
    length-``k`` dot product instead of a re-run GEMM.
    """

    def __init__(self, engine: InferenceEngine, site: FaultSite) -> None:
        if not site.fault_model.is_accumulator:
            raise ValueError(f"{site.fault_model} is not an accumulator model")
        self.engine = engine
        self.site = site
        self.fired = False

    def __enter__(self) -> "AccumulatorFaultInjector":
        if self.engine.acc_fault is not None:
            raise RuntimeError(
                "another accumulator fault is already armed on this engine"
            )
        self.fired = False
        self.engine.acc_fault = self
        return self

    def __exit__(self, *exc: object) -> None:
        if self.engine.acc_fault is self:
            self.engine.acc_fault = None

    def maybe_strike(
        self,
        out: np.ndarray,
        x: np.ndarray,
        w: np.ndarray,
        layer_name: str,
        iteration,
        rows: np.ndarray | None,
    ) -> None:
        """Corrupt one partial sum of the ``(N, D) @ (D, C)`` GEMM that
        just produced ``out`` (mutated in place)."""
        site = self.site
        if self.fired or layer_name != site.layer_name or iteration is None:
            return
        if isinstance(iteration, np.ndarray):
            # Batched decode step: per-row iteration counts.  Strike the
            # first row at the target iteration — the same sequence the
            # serial loop would have struck.
            matches = np.nonzero(np.asarray(iteration) == site.iteration)[0]
            if matches.size == 0:
                return
            row = int(matches[0])
        else:
            if int(iteration) != site.iteration:
                return
            row = min(int(site.row_frac * out.shape[0]), out.shape[0] - 1)
        col = site.col % out.shape[1]
        d = x.shape[1]
        split = min(1 + int(site.acc_frac * d), d)
        partial = float(x[row, :split] @ w[:split, col])
        corrupted = float(
            flip_value_bits(
                np.float32(partial), list(site.bits), self.engine.activation_format
            )
        )
        before = float(out[row, col])
        out[row, col] = np.float32(before + (corrupted - partial))
        self.fired = True
        recorder = _flight()
        if recorder.active:
            recorder.event(
                "inject.acc_fire",
                layer=layer_name,
                iteration=int(site.iteration),
                batch_row=int(rows[row]) if rows is not None else None,
                row=row,
                col=col,
                split=split,
                bits=list(site.bits),
                partial=partial,
                corrupted=corrupted,
                before=before,
                after=float(out[row, col]),
            )


def inject(engine: InferenceEngine, site: FaultSite):
    """Build the right injector for ``site``'s fault model."""
    if site.fault_model.is_memory:
        return MemoryFaultInjector(engine, site)
    if site.fault_model.is_kv:
        return KVFaultInjector(engine, site)
    if site.fault_model.is_accumulator:
        return AccumulatorFaultInjector(engine, site)
    return ComputationalFaultInjector(engine, site)
