"""Fast NumPy inference engine with hooks, KV cache and storage policies.

This is the system under test for every fault-injection experiment:
a vectorised, allocation-light forward pass over a trained
:class:`~repro.model.params.ParamStore`, exposing

* **weight stores** — per-linear-layer storage policies; a memory fault
  (Figs 5/17/21) is a faulted copy of one stored tensor, swapped in as
  its compute array or keyed to batch rows, and never a write to the
  store;
* **forward hooks** — interception of each linear layer's output
  tensor: computational faults (Fig. 6), and every read of an output —
  the propagation traces (Figs 5/6) and MoE expert-selection records
  (Fig. 15) — as an observer (:class:`~repro.inference.recorder.Recorder`);
* **sessions** — incremental decoding with a KV cache and a
  generation-iteration counter, so faults can be timed to a specific
  token-generation iteration exactly as the paper does; every cache is
  a slot of a :class:`~repro.inference.kvcache.PooledKVCache` (a
  session's is a one-slot pool's), and a block's new K/V is written for
  all its rows at once;
* **one forward, in stages** — :meth:`InferenceEngine.forward` (one
  sequence), :meth:`~InferenceEngine.forward_step_batch` and
  :meth:`~InferenceEngine.forward_chunk_batch` (ragged rows) are
  adapters over one ``_forward_rows``.  Its contract — row-exact bits,
  rows entering at a block of their own (``enter``), reading only what
  is read (``row_caches=None``, ``read_from``) — is stated once, by
  ``_Plan``, which holds what the forward decides once.  The stages:
  rows join at their entry block (``_join``); per block the norm, q/k/v
  with RoPE (``_rotated``), the attention core (``_attention``),
  ``out_proj``, the norm and the MLP or MoE (``_block``); the head
  (``_head``) and the counters (``_count``).  The layer table
  (``_Block`` / ``_Layer``, built with the engine) holds every linear's
  full name and weight store, so with nothing armed a linear is its
  product alone, and q, k and v are one product with the block's
  ``qkv`` (``_qkv``);
* **temporaries that stay paged in** — on glibc, importing this module
  keeps freed heap mapped (:data:`_HEAP_KEPT`): a forward's large
  temporaries (score blocks, MLP activations, the q/k/v product of a
  few hundred tokens) reuse the previous forward's pages instead of
  being trimmed back to the OS and faulted in again.
"""

from __future__ import annotations

import ctypes
import os
import resource
import time
from bisect import bisect_right

import numpy as np

from repro.autograd.functional import rms_norm_np, silu_np_unguarded, softmax_np
from repro.inference.hooks import HookContext, HookManager
from repro.inference.kvcache import KVCache, KVWrite, PooledKVCache
from repro.inference.storage import WeightStore, make_weight_store
from repro.model.config import ModelConfig
from repro.model.params import ParamStore
from repro.model.transformer import rope_tables
from repro.obs.runtime import telemetry as _telemetry

__all__ = ["InferenceEngine", "Session", "select_experts"]

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's ``mallopt`` parameters


def _malloc_is_ours() -> bool:
    """Whether this process runs glibc's allocator with nothing in the
    environment configuring its thresholds (``MALLOC_MMAP_THRESHOLD_``,
    ``MALLOC_TRIM_THRESHOLD_`` or a ``glibc.malloc`` tunable), which
    are then left as configured."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return False
    return (
        bool(glibc)
        and not {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & set(os.environ)
        and "glibc.malloc" not in os.environ.get("GLIBC_TUNABLES", "")
    )


def _keep_freed_heap() -> bool:
    """Keep freed heap mapped: arrays under 32 MiB (glibc's ceiling on
    64-bit) come from the heap, and free heap is returned to the OS only
    above 128 MiB.  With glibc's defaults an array of 128 KiB or more
    is mmapped (the threshold rises only to the largest one freed) and
    free heap above twice that is trimmed, so every forward of a few
    hundred tokens faults its temporaries in afresh: the forwards of a
    1 000-trial ``campaign_mc_mem`` ledger segment faulted 8.6k-11.9k
    pages in, under 0.8k with the heap kept, for about 1.4 % more peak
    RSS.  Both thresholds are set, since setting either turns glibc's
    dynamic mmap threshold off, and the trim threshold only once the
    mmap one took.  Forked workers inherit the setting; no result
    depends on it."""
    if not _malloc_is_ours():
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1 and (
        mallopt(_M_TRIM_THRESHOLD, 128 << 20) == 1
    )


_HEAP_KEPT = _keep_freed_heap()
"""Whether importing this module set glibc's thresholds (see
:func:`_keep_freed_heap`)."""

_RUSAGE_THREAD = getattr(resource, "RUSAGE_THREAD", None)  # Linux only


def _minor_faults() -> int | None:
    """The calling thread's minor page faults so far, or ``None`` where
    the OS counts none per thread."""
    if _RUSAGE_THREAD is None:
        return None
    return resource.getrusage(_RUSAGE_THREAD).ru_minflt


def select_experts(router_logits: np.ndarray, k: int) -> np.ndarray:
    """The ``(tokens, k)`` experts each token routes to: its ``k``
    largest router logits, ordered by descending logit."""
    top = np.argpartition(router_logits, -k, axis=-1)[:, -k:]
    order = np.argsort(np.take_along_axis(router_logits, top, axis=-1), axis=-1)
    return np.take_along_axis(top, order[:, ::-1], axis=-1)


def _runs(rows: np.ndarray, t: int) -> list[tuple[int, int]]:
    """``[start, stop)`` of each sequence's tokens in the flat batch:
    every ``t`` tokens, or for ``t == 0`` each run of equal ids in
    ``rows``.  Plain Python: cheaper than ``np.diff`` at decode sizes (a
    few dozen tokens at most)."""
    if t:
        return [(start, start + t) for start in range(0, len(rows), t)]
    ids, start, runs = rows.tolist(), 0, []
    for stop in range(1, len(ids) + 1):
        if stop == len(ids) or ids[stop] != ids[start]:
            runs.append((start, stop))
            start = stop
    return runs


def _tail(a: np.ndarray, batch: int, start: int) -> np.ndarray:
    """Positions ``>= start`` of every row of flat batch-major ``a``
    (``(B*t, ...)``), flat again."""
    rest = a.shape[1:]
    return a.reshape(batch, -1, *rest)[:, start:].reshape(-1, *rest)


def _product(
    x: np.ndarray, w: np.ndarray, rows: np.ndarray | None, t: int
) -> np.ndarray:
    """The row-exact ``x @ w`` over flat ``(N, D)`` input: one GEMM on
    the serial entry (``rows`` ``None``) or for a lone sequence (``N ==
    t``); one product per sequence, issued from a single stacked matmul,
    when every row has ``t`` tokens; one per run of equal row id when
    ``t == 0``.  A product's bits are those of each sequence's own ``(t,
    D) @ w``, whatever else is in the batch — and, column by column,
    whatever other columns ``w`` has: each output element is one
    reduction over ``D`` in the same order."""
    if rows is None or len(x) == t:
        return x @ w
    if t:
        return (x.reshape(-1, t, x.shape[1]) @ w).reshape(len(x), -1)
    return np.concatenate([x[start:stop] @ w for start, stop in _runs(rows, 0)])


def _rope(a: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotary position embedding of ``a`` over its last axis (the head
    dimension), by the tables ``cos`` / ``sin`` broadcast against it."""
    half = a.shape[-1] // 2
    return a * cos + np.concatenate([-a[..., half:], a[..., :half]], axis=-1) * sin


class _Layer:
    """One faultable linear of the layer table: its block, its name in
    the block, its full name, its weight store and the store's pristine
    compute array (what :attr:`WeightStore.array` is unless a faulted
    copy is swapped in), so a call formats and looks up nothing."""

    __slots__ = ("block", "name", "full", "store", "pristine")

    def __init__(self, block: int, name: str, stores: dict) -> None:
        self.block, self.name = block, name
        self.full = f"blocks.{block}.{name}"
        self.store: WeightStore = stores[self.full]
        self.pristine: np.ndarray = self.store.planes()["array"]


class _Block:
    """One block of the layer table: its norm gains and its linears —
    ``attn`` (q, k, v, out) and either ``mlp`` (gate, up, down) or a
    ``router`` and one such triple per expert — and ``qkv``, the
    ``(d_model, 3·d_model)`` column concatenation of q, k and v's
    pristine compute arrays, the one product the block's attention
    input goes through (:meth:`InferenceEngine._qkv`; a read window
    takes q's columns over its positions and k's and v's over all)."""

    __slots__ = (
        "index", "attn_norm", "mlp_norm", "attn", "qkv", "mlp", "router", "experts",
    )

    def __init__(self, config: ModelConfig, b: int, stores: dict, plain: dict) -> None:
        self.index = b
        self.attn_norm = plain[f"blocks.{b}.attn_norm.weight"]
        self.mlp_norm = plain[f"blocks.{b}.mlp_norm.weight"]

        def triple(tag: str) -> tuple:
            return tuple(
                _Layer(b, tag + name, stores)
                for name in ("gate_proj", "up_proj", "down_proj")
            )

        self.attn = tuple(
            _Layer(b, name, stores)
            for name in ("q_proj", "k_proj", "v_proj", "out_proj")
        )
        self.qkv = np.concatenate([layer.pristine for layer in self.attn[:3]], axis=1)
        self.mlp = self.router = None
        self.experts: list[tuple] = []
        if config.is_moe:
            self.router = _Layer(b, "router", stores)
            self.experts = [triple(f"experts.{e}.") for e in range(config.n_experts)]
        else:
            self.mlp = triple("")


class _Plan:
    """The forward's contract, and what one forward decides once.

    **The contract.**  :meth:`InferenceEngine.forward`,
    :meth:`~InferenceEngine.forward_step_batch` and
    :meth:`~InferenceEngine.forward_chunk_batch` run one forward
    (:meth:`InferenceEngine._forward_rows`) of a rectangular ``(B, t)``
    batch: row ``i`` starts at ``positions[i]`` and appends its K/V to
    its own ``row_caches[i]`` (a per-block list, typically a pool
    slot's views).

    * *Row-exact bits.*  On the batched entries every product is issued
      per sequence (:func:`_product`; the attention core's GEMMs and
      softmax sum per group of equal-length rows,
      :meth:`InferenceEngine._attention`), so each
      row's logits and K/V are bit-identical to its own serial forward
      (its ``Session.step``, its 1-D chunk) at any width, and so is
      what a hook or a fault keyed to its id sees (per row:
      :meth:`InferenceEngine._surfaces`, the KV-fault latch in
      :meth:`InferenceEngine._attention`).  The serial entry keeps one
      flat GEMM.
    * *Entries.*  ``block_inputs`` (a list) receives the flat hidden
      state entering each block that runs, in block order — the arrays
      the forward computed, which nothing later writes to.  ``enter``
      is the other half, one entry per row: ``None`` (the embedding) or
      ``(block, hidden)``, the row's float32 ``(t, d_model)`` state
      entering ``block`` in a forward of the same tokens from the same
      position over caches holding the same K/V below ``block``.  An
      error only travels downstream, so every row stays bit-identical to
      the whole forward.  Rows are ordered by entry, so a block computes
      a prefix of the batch (``block_inputs`` holds those rows); the
      logits come back in the caller's order.  A row appends no K/V
      below its entry: a later forward of it that enters lower must
      first fill those caches (:mod:`repro.fi.golden` restores them).
    * *Reading only what is read.*  ``row_caches=None`` is a forward no
      later step continues (option scoring): every row starts at
      position 0, no K/V is written, and a KV fault keyed to a row
      strikes its fresh K/V.  ``read_from = k`` returns logits for
      positions ``>= k`` only: the final norm and ``lm_head`` run on
      those alone, and so do the last block's queries, attention,
      ``out_proj`` and MLP when nothing observes that block
      (:meth:`InferenceEngine._last_block_observed`; K/V still over
      every position).  A GEMM row does not depend on which other rows
      share the product as long as at least two do (one row runs
      through gemv, a different kernel), so a window keeps two.

    The checks (:meth:`_check`, :meth:`_entry_blocks`) run before any
    cache, hook or GEMM is touched, so a bad call corrupts nothing.

    **The plan.**  ``armed``: whether anything rides on a linear's
    output (a hook, an accumulator fault, a row-keyed weight copy), so
    that :meth:`InferenceEngine._surfaces` must run; ``kv``: whether a
    KV fault waits on the appends.  The rest is the rows a block
    computes (:meth:`take`: their tables, K/V write, lengths, attention
    ``groups`` and whether the score block needs its ``-inf`` ``pad``)
    and ``n``, the positions per row the hidden state holds (``t``, or
    the window's once :meth:`window` cut it).
    No field holds a block's hidden state.
    """

    __slots__ = (
        "armed", "kv", "t", "n", "m", "ids", "enter", "starts", "order",
        "read_from", "window_block", "iteration", "rows", "row_caches",
        "cos", "sin", "hide", "write", "lengths", "width", "pad", "groups",
        "_caches", "_positions", "_iteration", "_rows", "_cos", "_sin", "_hide",
    )

    def __init__(
        self,
        engine: "InferenceEngine",
        ids: np.ndarray,
        row_caches: list[list[KVCache]] | None,
        positions,
        iteration,
        rows: np.ndarray | None,
        enter: list | None,
        read_from: int,
    ) -> None:
        batch, t = ids.shape
        positions = np.asarray(positions, dtype=np.int64)
        self._check(engine.config, t, row_caches, positions, read_from)
        starts, order = [0] * batch, None
        if enter is not None:
            starts = self._entry_blocks(engine.config, enter, batch, t)
            if starts != sorted(starts):
                order = sorted(range(batch), key=starts.__getitem__)
                ids, positions = ids[order], positions[order]
                iteration, rows = np.asarray(iteration)[order], rows[order]
                if row_caches is not None:
                    row_caches = [row_caches[i] for i in order]
                enter = [enter[i] for i in order]
                starts = [starts[i] for i in order]
        if rows is not None:
            iteration, rows = np.asarray(iteration).repeat(t), rows.repeat(t)
        self.ids, self.enter, self.starts, self.order = ids, enter, starts, order
        self._caches, self._positions = row_caches, positions
        self._iteration, self._rows = iteration, rows
        self.armed = bool(engine.hooks or engine.acc_faults or engine.row_weights)
        self.kv = bool(engine.kv_faults)
        self.t = self.n = t
        self.m, self.read_from = 0, read_from
        self.window_block = (  # the block the read window cuts, if any
            None if not read_from or engine._last_block_observed()
            else engine.config.n_blocks - 1
        )
        self._tables(engine, positions, t)

    @staticmethod
    def _check(cfg: ModelConfig, t: int, row_caches, positions, read_from) -> None:
        """The window, and each row against its own caches' capacity
        (one pool slot's views per row), which may be less than
        ``cfg.max_seq`` (reach-sized pool slots)."""
        if read_from and not 0 < read_from <= t - 2:
            raise ValueError(
                f"read_from={read_from} must be 0 or leave at least two of"
                f" the {t} positions (a one-row product is a different one)"
            )
        if row_caches is None and positions.any():
            raise ValueError(
                "a forward without caches starts every row at position 0,"
                f" got {positions.tolist()}"
            )
        for position, caches in zip(
            positions.tolist(), row_caches or [None] * len(positions)
        ):
            room = min(caches[0].max_seq, cfg.max_seq) if caches else cfg.max_seq
            if position + t > room:
                raise ValueError(f"KV cache overflow: {position} + {t} > {room}")

    @staticmethod
    def _entry_blocks(cfg: ModelConfig, enter: list, batch: int, t: int) -> list[int]:
        """Each row's entry block, once ``enter`` is checked: one entry a
        row, ``None`` or ``(block, hidden)`` with ``block`` a block of this
        model and ``hidden`` a float32 ``(t, d_model)`` array."""
        if len(enter) != batch:
            raise ValueError(f"{batch} rows but {len(enter)} entries")
        want = (t, cfg.d_model)
        starts = []
        for entry in enter:
            if entry is None:
                starts.append(0)
                continue
            block, hidden = entry
            if not 0 <= block < cfg.n_blocks:
                raise ValueError(
                    f"entry block {block} out of range for {cfg.n_blocks} blocks"
                )
            if (
                not isinstance(hidden, np.ndarray)
                or hidden.shape != want
                or hidden.dtype != np.float32
            ):
                raise ValueError(
                    f"entry hidden state must be a float32 array of shape {want}"
                )
            starts.append(int(block))
        return starts

    def _tables(self, engine: "InferenceEngine", positions: np.ndarray, t: int) -> None:
        """Every row's RoPE tables and in-row causal mask."""
        # Per-row RoPE gather: row i rotates positions[i] .. positions[i]+t-1.
        gather = positions[:, None] + np.arange(t)
        self._cos = engine._cos.take(gather, 0)[:, None]  # (B, 1, t, hd)
        self._sin = engine._sin.take(gather, 0)[:, None]
        # The in-row causal mask only depends on (positions, t): over the
        # score block's W = max(positions) + t columns, row i hides from
        # chunk token r the positions past positions[i] + r that its own
        # cache holds — the pad past its length stays -inf (see
        # InferenceEngine._attention).
        self._hide = None
        if t > 1:
            span = np.arange(int(positions.max()) + t)
            hide = span > gather[:, :, None]
            if positions.min() != positions.max():
                hide &= span < (positions + t)[:, None, None]
            self._hide = hide[:, None]

    def take(self, m: int, block: int) -> None:
        """Rows ``0..m-1`` — those entered at or below ``block`` — run
        from ``block`` on: cut every per-row part to them, and plan their
        K/V write from their views in ``block``, where none has written
        yet."""
        t = self.t
        self.m = m
        self.cos, self.sin, self.hide = self._cos, self._sin, self._hide
        self.iteration, self.rows = self._iteration, self._rows
        self.row_caches = self._caches
        if m < len(self._positions):
            self.cos, self.sin = self._cos[:m], self._sin[:m]
            self.iteration, self.rows = self._iteration[: m * t], self._rows[: m * t]
            if self._hide is not None:
                span = int(self._positions[:m].max()) + t
                self.hide = self._hide[:m, :, :, :span]
            if self._caches is not None:
                self.row_caches = self._caches[:m]
        if self.row_caches is None:
            self.write, self.lengths = None, [t] * m
            self.groups = [(slice(0, m), slice(None, t), None)]
        else:
            views = [own[block] for own in self.row_caches]
            self.write = KVWrite(views, t)
            self.lengths = self.write.ends
            self.groups = self._runs(views)
        self.width = max(self.lengths)
        self.pad = min(self.lengths) < self.width

    def _runs(self, views: list[KVCache]) -> list[tuple]:
        """The attention groups, ``(rows, cols, slots)``: runs of adjacent
        rows of one length whose keys sit in one place, as their slice of
        the batch, of the score block's columns (``:L``), and where their
        keys are — a slot (a group of one), slots, or ``None`` where they
        are all the forward's own ``k`` (caches empty before the append,
        no KV fault waiting)."""
        t, kv = self.t, self.kv
        keys = [
            (length, None if length == t and not kv else id(view.arena))
            for view, length in zip(views, self.lengths)
        ]
        groups, lo = [], 0
        for hi in range(1, len(keys) + 1):
            if hi < len(keys) and keys[hi] == keys[lo]:
                continue
            (length, home), slots = keys[lo], None
            if home is not None:
                slots = views[lo].slot if hi - lo == 1 else np.array(
                    [view.slot for view in views[lo:hi]]
                )
            groups.append((slice(lo, hi), slice(None, length), slots))
            lo = hi
        return groups

    def window(self, x: np.ndarray) -> np.ndarray:
        """``x`` cut to the read window, and from here on ``n``, the
        per-token ``iteration``/``rows`` and the causal mask too; ``x``
        as it is without a window or once cut."""
        if self.n == self.t - self.read_from:
            return x
        self.n = self.t - self.read_from
        m, start = self.m, self.read_from
        self.iteration = _tail(self.iteration, m, start)
        self.rows = _tail(self.rows, m, start)
        if self.hide is not None:
            self.hide = self.hide[:, :, start:]
        return _tail(x, m, start)

    def unorder(self, logits: np.ndarray) -> np.ndarray:
        """Flat per-row ``logits`` back in the caller's row order."""
        if self.order is None:
            return logits
        per_row = logits.reshape(len(self.order), -1, logits.shape[1])
        return per_row[np.argsort(self.order)].reshape(len(logits), -1)


def _row_ids(row_ids, batch: int) -> np.ndarray:
    """The batched entries' per-row ids: ``arange(batch)`` by default,
    else the caller's, which must name each row exactly once (runs of
    equal id are what the kernel takes for one sequence)."""
    if row_ids is None:
        return np.arange(batch)
    ids = np.asarray(row_ids, dtype=np.int64)
    if ids.shape != (batch,) or len(set(ids.tolist())) != batch:
        raise ValueError(
            f"row_ids must be {batch} distinct ints, got {ids.tolist()}"
        )
    return ids


class InferenceEngine:
    """Decoder-only transformer forward pass over faultable weights."""

    def __init__(
        self,
        store: ParamStore,
        weight_policy: str = "fp32",
        activation_format: str | None = None,
    ) -> None:
        """
        Parameters
        ----------
        store:
            Trained parameters (shared naming scheme with the trainer).
        weight_policy:
            Storage policy for the FI-targetable linear layers:
            ``fp32``/``fp16``/``bf16``/``int8``/``int4``.
        activation_format:
            Float format that computational faults corrupt activations
            in.  Defaults to the weight policy when it is a float
            format, else ``fp32``.  (Injection helpers read this; the
            engine itself always computes in float32.)
        """
        self.config: ModelConfig = store.config
        self.weight_policy = weight_policy
        if activation_format is None:
            activation_format = (
                weight_policy if weight_policy in ("fp32", "fp16", "bf16") else "fp32"
            )
        self.activation_format = activation_format
        self.hooks = HookManager()

        # FI-targetable linear layers go behind storage policies; the
        # rest (norm gains, embeddings, lm_head) stay plain float32,
        # matching the paper's restriction of faults to block linears.
        self._stores: dict[str, WeightStore] = {}
        self._plain: dict[str, np.ndarray] = {}
        faultable = set(store.linear_layer_names())
        for name, array in store.items():
            base = name[: -len(".weight")] if name.endswith(".weight") else name
            if base in faultable:
                self._stores[base] = make_weight_store(array, weight_policy)
            else:
                self._plain[name] = np.ascontiguousarray(array, dtype=np.float32)

        self._cos, self._sin = rope_tables(
            self.config.head_dim, self.config.max_seq, self.config.rope_theta
        )
        self._table = [
            _Block(self.config, b, self._stores, self._plain)
            for b in range(self.config.n_blocks)
        ]
        """The layer table: one :class:`_Block` per transformer block."""
        self._disarm()

    def _disarm(self) -> None:
        """The engine's armed-fault state, written once: unarmed, as
        :meth:`__init__` leaves it and a campaign restores it after a
        crashed trial — every weight store reading its own compute array
        again.  Hooks are not part of it: a
        campaign detaches only the ones the trial registered."""
        self.weight_fault_depth = 0
        """Count of currently armed weight (memory) faults.  Maintained
        by :class:`~repro.fi.injector.MemoryFaultInjector` so fast-path
        optimizations can tell whether the stored weights are pristine."""
        self.row_weights: dict[str, dict[int, np.ndarray]] = {}
        """Weight faults keyed by batch row, not swapped in engine-wide:
        layer name -> ``{row id: faulted copy of its compute array}``.
        Maintained by ``MemoryFaultInjector(rows=)``; on the batched
        entries :meth:`_surfaces` recomputes a registered row's product
        against its own copy."""
        self.kv_faults: dict = {}
        """Armed :class:`~repro.fi.injector.KVFaultInjector` by the row id
        it strikes (``None``: unpinned, any row and the 1-D entry), handed
        its row's appends by :meth:`_attention`."""
        self.acc_faults: dict = {}
        """Armed :class:`~repro.fi.injector.AccumulatorFaultInjector`,
        keyed the same way, handed every GEMM's output by :meth:`_surfaces`."""
        for store in self._stores.values():
            store.swap(store.planes()["array"])

    # -- weight access ---------------------------------------------------------

    def weight_store(self, layer_name: str) -> WeightStore:
        """The storage policy behind a faultable linear layer."""
        try:
            return self._stores[layer_name]
        except KeyError as exc:
            raise KeyError(
                f"{layer_name!r} is not a fault-targetable linear layer;"
                f" known: {sorted(self._stores)[:4]}..."
            ) from exc

    def linear_layer_names(self) -> list[str]:
        return list(self._stores)

    # -- forward ----------------------------------------------------------------

    def _linear(
        self,
        x: np.ndarray,
        layer: _Layer,
        armed: bool,
        iteration,
        rows: np.ndarray | None = None,
        t: int = 0,
    ) -> np.ndarray:
        """One faultable linear layer (a row of the layer table) over
        flat ``(N, D)`` input: its row-exact product (:func:`_product`)
        with the store's compute array, then, only when the forward's
        plan found something ``armed``, the fault surfaces that ride on
        its output (:meth:`_surfaces`).  ``rows`` is ``None`` on the
        serial entry, else each token's batch row id, ``iteration`` the
        aligned per-token iterations, and ``t`` the tokens per row (``0``
        for an MoE expert's ragged subset: one product per run of equal
        row id).  q, k and v do not come here (:meth:`_qkv`).
        """
        output = _product(x, layer.store.array, rows, t)
        if armed:
            self._surfaces(output, x, layer, iteration, rows, t)
        return output

    def _surfaces(
        self,
        output: np.ndarray,
        x: np.ndarray,
        layer: _Layer,
        iteration,
        rows: np.ndarray | None,
        t: int,
    ) -> None:
        """The fault surfaces of one linear, on its ``(N, features)``
        output (a whole array, or q, k or v's columns of the shared
        product) for input ``x``, in place and in this order.

        A row with a weight fault keyed to its id (:attr:`row_weights`)
        has its run recomputed against its own faulted copy ``W'``:
        ``x[row] @ W'``, the shape and BLAS call of its product in the
        stacked matmul, which is what the serial forward of that row
        runs with ``W'`` swapped into the store.  Every other row keeps
        the store's ``W``.  An armed accumulator fault then strikes its
        sampled reduction in its row's run of tokens, before any hook
        sees the output (a ranger on the layer clamps the strike), and
        hooks run once per sequence on that sequence's ``(t, features)``
        token slice — the exact serial shape — with
        :attr:`HookContext.batch_row` identifying the sequence, so a
        row-scoped fault strikes exactly one sequence of the batch.  An
        array a hook returns is written back into ``output``.
        """
        full = layer.full
        faulted = None if rows is None else self.row_weights.get(full)
        if faulted:
            for start, stop in _runs(rows, t):
                own = faulted.get(int(rows[start]))
                if own is not None:
                    output[start:stop] = x[start:stop] @ own
        for fault in self.acc_faults.values():
            fault.maybe_strike(output, x, layer.store.array, full, iteration, rows)
        if not self.hooks.has(full):
            return
        if rows is None:
            result = self.hooks.apply(
                output, HookContext(layer.block, layer.name, iteration, full)
            )
            if result is not output:
                output[...] = result
            return
        for start, stop in _runs(rows, t):
            view = output[start:stop]
            ctx = HookContext(
                layer.block, layer.name, int(iteration[start]), full,
                batch_row=int(rows[start]),
            )
            result = self.hooks.apply(view, ctx)
            if result is not view:
                output[start:stop] = result

    def _qkv(
        self,
        x: np.ndarray,
        layers: _Block,
        armed: bool,
        iteration,
        rows: np.ndarray | None,
        t: int,
        first: int = 0,
        stop: int = 3,
    ) -> np.ndarray:
        """Members ``first .. stop - 1`` of a block's (q, k, v) over flat
        ``(N, D)`` input as one ``(N, (stop - first)·D)`` array: one
        row-exact product with their columns of the block's ``qkv``
        (:func:`_product`), then, in q, k, v order, each member's own
        columns — recomputed from its store's compute array when a
        faulted copy is swapped in, then its surfaces (:meth:`_surfaces`)
        when the plan found something ``armed``.  Column by column the
        bits are each member's own :meth:`_linear`."""
        d = self.config.d_model
        w = layers.qkv if stop - first == 3 else layers.qkv[:, first * d : stop * d]
        out = _product(x, w, rows, t)
        for j, layer in enumerate(layers.attn[first:stop]):
            w = layer.store.array
            if w is layer.pristine and not armed:
                continue
            own = out[:, j * d : (j + 1) * d]
            if w is not layer.pristine:
                own[...] = _product(x, w, rows, t)
            if armed:
                self._surfaces(own, x, layer, iteration, rows, t)
        return out

    def _rotated(
        self, h: np.ndarray, layers: _Block, plan: _Plan
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A block's ``(B, heads, ·, hd)`` q, k and v over the ``B`` rows
        the ``plan`` has taken: one shared product (:meth:`_qkv`), q and k
        rotating in one RoPE broadcast.  In the read window's block q is
        its own product over the window's positions and rotates apart; k
        and v cover every position."""
        cfg = self.config
        heads, hd, batch, t = cfg.n_heads, cfg.head_dim, plan.m, plan.t
        armed, iteration, rows, cos, sin = (
            plan.armed, plan.iteration, plan.rows, plan.cos, plan.sin
        )
        if layers.index != plan.window_block:
            # (B*t, 3D) -> (B, 3·heads, t, hd); q and k rotate in one call.
            split = self._qkv(h, layers, armed, iteration, rows, t)
            split = split.reshape(batch, t, 3 * heads, hd).swapaxes(1, 2)
            qk = _rope(split[:, : 2 * heads], cos, sin)
            return qk[:, :heads], qk[:, heads:], split[:, 2 * heads :]
        start, n = plan.read_from, t - plan.read_from
        q = self._qkv(
            _tail(h, batch, start), layers, armed, _tail(iteration, batch, start),
            _tail(rows, batch, start), n, 0, 1,
        )
        q = q.reshape(batch, n, heads, hd).swapaxes(1, 2)
        q = _rope(q, cos[:, :, start:], sin[:, :, start:])
        kv = self._qkv(h, layers, armed, iteration, rows, t, 1, 3)
        kv = kv.reshape(batch, t, 2 * heads, hd).swapaxes(1, 2)
        return q, _rope(kv[:, :heads], cos, sin), kv[:, heads:]

    def _attention(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        layers: _Block,
        plan: _Plan,
    ) -> np.ndarray:
        """The attention core of one block over the rows the ``plan``
        has taken: ``(B, heads, n, hd)`` queries (``n < t``: the read
        window's, :meth:`_Plan.window`), ``(B, heads, t, hd)`` keys and
        values (:meth:`_rotated`); returns the flat ``(B*n, D)`` context.

        The new K/V lands first (the plan's
        :class:`~repro.inference.kvcache.KVWrite`), then the KV faults
        latch (:meth:`_latch`).  Only three things run per group of
        ``plan.groups``, because padding them changes a row's bits:
        ``q @ keysᵀ``, the softmax sum over exactly the group's length
        and ``attn @ values``, over keys of the strides a single
        sequence's forward reads.  Scale, mask (``plan.hide``, written as
        ``-1e9``), max, ``exp`` and divide run once over the ``(B, heads,
        n, W)`` block: they are elementwise or exact in any order, and the
        ``-inf`` pad past a shorter row's length lifts no max (a row
        whose every score is ``-inf`` still yields NaN).
        """
        block, n = layers.index, plan.n
        caches = None
        if plan.write is not None:
            caches = [own[block] for own in plan.row_caches]
            plan.write(caches, k, v)
        if plan.kv:
            self._latch(k, v, caches, block, plan)
        batch, heads, _, hd = q.shape
        shape, parts = (batch, heads, n, plan.width), []
        scores = (
            np.full(shape, -np.inf, np.float32) if plan.pad
            else np.empty(shape, np.float32)
        )
        for rows, cols, slots in plan.groups:
            if slots is None:
                keys, vals = k[rows], v[rows]
            else:  # a slot's basic slice, or one gather per plane
                arena_k, arena_v = caches[rows.start].arena
                keys, vals = arena_k[slots, :, cols], arena_v[slots, :, cols]
            part = scores[rows, ..., cols]  # every head and query, :L
            np.matmul(q[rows], keys.swapaxes(-1, -2), out=part)
            parts.append((rows, part, vals))
        scores *= np.float32(hd**-0.5)
        if plan.hide is not None:
            np.copyto(scores, np.float32(-1e9), where=plan.hide)
        total = np.maximum.reduce(scores, axis=-1, keepdims=True)  # then the sum
        scores -= total
        np.exp(scores, out=scores)
        for rows, part, _ in parts:
            np.add.reduce(part, axis=-1, keepdims=True, out=total[rows])
        scores /= total
        ctx = np.empty((batch, n, heads, hd), np.float32)  # out_proj's layout
        heads_first = ctx.swapaxes(1, 2)
        for rows, part, vals in parts:
            np.matmul(part, vals, out=heads_first[rows])
        return ctx.reshape(batch * n, heads * hd)

    def _latch(self, k, v, caches: list | None, block: int, plan: _Plan) -> None:
        """Hand each row's appends in ``block`` to the KV faults keyed to
        it, in row order: its own and the unpinned one (the 1-D entry
        carries no row id, so only the unpinned).  Without caches a
        fault strikes the row's fresh K/V."""
        kv_faults, rows, n = self.kv_faults, plan.rows, plan.n
        for i in range(len(plan.lengths)):
            row = None if rows is None else int(rows[i * n])
            armed_kv = [
                kv_faults[key] for key in dict.fromkeys((row, None)) if key in kv_faults
            ]
            if armed_kv:
                own = KVCache((k, v), i, plan.t) if caches is None else caches[i]
                it = plan.iteration if rows is None else int(plan.iteration[i * n])
                for fault in armed_kv:
                    fault.on_append(block, own, it)

    def _mlp(
        self,
        h: np.ndarray,
        mlp: tuple,
        armed: bool,
        iteration,
        rows: np.ndarray | None = None,
        t: int = 0,
    ) -> np.ndarray:
        """SwiGLU over the ``(gate, up, down)`` layers ``mlp``; the SiLU
        runs under the forward's own ``errstate``, not one per call."""
        gate_proj, up_proj, down_proj = mlp
        gate = self._linear(h, gate_proj, armed, iteration, rows, t)
        up = self._linear(h, up_proj, armed, iteration, rows, t)
        return self._linear(
            silu_np_unguarded(gate) * up, down_proj, armed, iteration, rows, t
        )

    def _moe(
        self,
        h: np.ndarray,
        layers: _Block,
        armed: bool,
        iteration,
        rows: np.ndarray | None = None,
        t: int = 0,
    ) -> np.ndarray:
        """Token-wise expert routing over flat ``(N, D)`` input
        (:func:`select_experts` on the router's output, after its hooks);
        each expert sees only its tokens, with their
        per-token ``iteration``/``rows`` on the batched entries (a
        ragged subset of each row, so its products run per row run)."""
        router_logits = self._linear(h, layers.router, armed, iteration, rows, t)
        top = select_experts(router_logits, self.config.top_k)
        gates = softmax_np(
            np.take_along_axis(router_logits, top, axis=-1), axis=-1
        )
        out = np.zeros_like(h)
        for e, expert in enumerate(layers.experts):
            slot_mask = top == e  # (t, k)
            sel = np.nonzero(slot_mask.any(axis=-1))[0]
            if sel.size == 0:
                continue
            expert_out = self._mlp(
                h[sel],
                expert,
                armed,
                iteration if rows is None else iteration[sel],
                rows=None if rows is None else rows[sel],
            )
            weight = (gates[sel] * slot_mask[sel]).sum(axis=-1, keepdims=True)
            out[sel] += expert_out * weight
        return out

    def _last_block_observed(self) -> bool:
        """Whether a read window (``read_from``) must leave the last block
        whole: something sees its products — a hook on one of its layers
        (a fault, a layer-timing probe), an armed accumulator fault — or
        it routes tokens to experts, where a windowed expert's run could
        shrink to one token, a different product."""
        return (
            self.config.is_moe
            or bool(self.acc_faults)
            or self.hooks.has_prefix(f"blocks.{self.config.n_blocks - 1}.")
        )

    def _join(self, x: np.ndarray | None, b: int, plan: _Plan) -> np.ndarray:
        """``x`` with the rows entering at block ``b`` joined — from the
        embedding at block 0, else from their entry states — and the
        plan taking them (:meth:`_Plan.take`); ``x`` as it is where no
        row enters."""
        starts, m, t = plan.starts, plan.m, plan.t
        if m == len(starts) or starts[m] != b:
            return x
        stop = bisect_right(starts, b)
        if b == 0:
            x = self._plain["embed.weight"][plan.ids[:stop].reshape(-1)]
            for i, entry in enumerate((plan.enter or ())[:stop]):
                if entry is not None:
                    x[i * t : (i + 1) * t] = entry[1]
        else:
            joining = [entry[1] for entry in plan.enter[m:stop]]
            x = np.concatenate(joining if x is None else [x, *joining])
        plan.take(stop, b)
        return x

    def _block(self, x: np.ndarray, layers: _Block, plan: _Plan) -> np.ndarray:
        """One block over the rows the plan has taken, in its stages:
        norm, q/k/v (:meth:`_rotated`), the attention core
        (:meth:`_attention`), ``out_proj``, norm and the MLP or MoE, each
        half with its residual.  The read window's block narrows ``x``
        and the plan to the window once K/V are computed."""
        eps = self.config.norm_eps
        q, k, v = self._rotated(rms_norm_np(x, layers.attn_norm, eps), layers, plan)
        if layers.index == plan.window_block:
            # Every row computes the last block, so ``plan.m`` is the batch.
            x = plan.window(x)
        armed, n = plan.armed, plan.n
        ctx = self._attention(q, k, v, layers, plan)
        del q, k, v  # not held through the MLP
        x = x + self._linear(ctx, layers.attn[3], armed, plan.iteration, plan.rows, n)
        h = rms_norm_np(x, layers.mlp_norm, eps)
        if layers.mlp is not None:
            return x + self._mlp(h, layers.mlp, armed, plan.iteration, plan.rows, n)
        return x + self._moe(h, layers, armed, plan.iteration, plan.rows, n)

    def _head(self, x: np.ndarray, plan: _Plan) -> np.ndarray:
        """Flat logits of the read window (every position without one):
        the final norm and ``lm_head``, one product per sequence on the
        batched entries (row-exact like every linear), in the caller's
        row order."""
        x = plan.window(x)
        x = rms_norm_np(x, self._plain["final_norm.weight"], self.config.norm_eps)
        head = self._plain["lm_head.weight"]
        if plan.rows is None:
            return x @ head
        logits = (x.reshape(plan.m, -1, x.shape[1]) @ head).reshape(len(x), -1)
        return plan.unorder(logits)

    def _count(self, tel, t0: float, faults: int | None, plan: _Plan) -> None:
        """The forward's counters: its time, page faults, call, tokens
        and the fullest row's KV occupancy."""
        metrics = tel.metrics
        metrics.histogram("engine.forward_ms").observe((time.perf_counter() - t0) * 1e3)
        if faults is not None:
            metrics.counter("engine.minor_faults").add(_minor_faults() - faults)
        metrics.counter("engine.forward_calls").add()
        metrics.counter("engine.tokens").add(plan.ids.size)
        if plan.row_caches is not None:
            metrics.gauge("engine.kv_occupancy").set(
                max((c[-1].length for c in plan.row_caches if c), default=0)
                / self.config.max_seq
            )

    def _forward_rows(
        self,
        ids: np.ndarray,
        row_caches: list[list[KVCache]] | None,
        positions,
        iteration,
        rows: np.ndarray | None,
        block_inputs: list | None = None,
        enter: list | None = None,
        read_from: int = 0,
    ) -> np.ndarray:
        """The one forward (contract: :class:`_Plan`), stage by stage;
        ``iteration``/``rows`` are the caller's scalar and ``None`` on the
        serial entry, else per-row iterations and row ids.  Returns flat
        ``(B*(t-read_from), vocab)`` logits."""
        tel = _telemetry()
        t0 = faults = None
        if tel.active:
            faults = _minor_faults()
            t0 = tel.marks["forward_start"] = time.perf_counter()
        plan = _Plan(
            self, ids, row_caches, positions, iteration, rows, enter, read_from
        )
        x = None
        # Corrupted weights legitimately overflow float32 (an MSB
        # exponent flip scales a value by ~2^128); inf/nan propagation
        # *is* the studied behaviour, so silence the warnings.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for b in range(plan.starts[0], self.config.n_blocks):
                x = self._join(x, b, plan)
                if block_inputs is not None:
                    block_inputs.append(x)
                x = self._block(x, self._table[b], plan)
            logits = self._head(x, plan)
        if t0 is not None:
            self._count(tel, t0, faults, plan)
        return logits

    def forward(
        self,
        tokens: np.ndarray | list[int],
        caches: list[KVCache] | None,
        start_pos: int,
        iteration: int,
    ) -> np.ndarray:
        """Run ``tokens`` (one sequence's chunk, 1-D) from ``start_pos``
        through the model, appending to ``caches`` — or, with
        ``caches=None``, to nothing.  Returns logits of shape
        ``(len(tokens), vocab)``.  The serial entry of the one forward
        (contract: :class:`_Plan`); several sequences at once are
        :meth:`forward_step_batch` / :meth:`forward_chunk_batch`, and any
        other shape raises ``ValueError`` before a cache is touched.
        """
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError(f"tokens must be a 1-D chunk of ids, got {ids.shape}")
        rows = None if caches is None else [caches]
        return self._forward_rows(ids[None], rows, [start_pos], iteration, None)

    def forward_step_batch(
        self,
        tokens: np.ndarray | list[int],
        row_caches: list[list[KVCache]],
        positions: np.ndarray | list[int],
        iterations: np.ndarray | list[int],
        row_ids: np.ndarray | list[int] | None = None,
        *,
        block_inputs: list | None = None,
        enter: list | None = None,
    ) -> np.ndarray:
        """One decode step for ``B`` sequences: :meth:`forward_chunk_batch`
        at ``t = 1``, positions and iterations ragged as continuous
        batching needs, each row bit-identical to its ``Session.step``
        (contract: :class:`_Plan`).  ``row_ids`` (distinct ints, default
        ``arange(B)``) is what hooks see as
        :attr:`HookContext.batch_row`: ids that stay with the sequence
        keep a hook pinned to it off whichever sibling inherits its
        position.  Returns logits of shape ``(B, vocab)``.
        """
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError(f"tokens must be a 1-D batch of ids, got {ids.shape}")
        if len(row_caches) != ids.shape[0]:
            raise ValueError(
                f"{ids.shape[0]} tokens but {len(row_caches)} cache rows"
            )
        return self._forward_rows(
            ids[:, None], row_caches, positions, iterations,
            _row_ids(row_ids, ids.shape[0]),
            block_inputs=block_inputs, enter=enter,
        )

    def forward_chunk_batch(
        self,
        tokens: np.ndarray | list[list[int]],
        row_caches: list[list[KVCache]] | None,
        positions: np.ndarray | list[int],
        iterations: np.ndarray | list[int],
        row_ids: np.ndarray | list[int] | None = None,
        *,
        block_inputs: list | None = None,
        enter: list | None = None,
        read_from: int = 0,
    ) -> np.ndarray:
        """Multi-token chunks for ``B`` sequences: :meth:`forward` at
        ``B`` rows, :meth:`forward_step_batch` at ``t`` tokens — ``(B,
        t)`` ``tokens``, row ``i`` from ``positions[i]`` tagged
        ``iterations[i]`` (a verify chunk: the round's first
        emitted-token index) and ``row_ids[i]``.  Row-exact bits,
        ``block_inputs`` / ``enter``, ``row_caches=None`` and
        ``read_from`` are the forward's contract (:class:`_Plan`).
        Returns logits of shape ``(B, t - read_from, vocab)``.
        """
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim != 2:
            raise ValueError(
                f"tokens must be a rectangular (B, t) batch, got {ids.shape}"
            )
        if row_caches is not None and len(row_caches) != ids.shape[0]:
            raise ValueError(
                f"{ids.shape[0]} chunk rows but {len(row_caches)} cache rows"
            )
        return self._forward_rows(
            ids, row_caches, positions, iterations,
            _row_ids(row_ids, ids.shape[0]),
            block_inputs=block_inputs, enter=enter, read_from=read_from,
        ).reshape(ids.shape[0], ids.shape[1] - read_from, -1)

    def new_caches(self) -> list[KVCache]:
        """One sequence's per-block caches: the views of a fresh
        one-slot pool, a slot like any other."""
        pool = self.new_pool(1)
        return pool.caches(pool.acquire())

    def new_pool(self, n_slots: int) -> PooledKVCache:
        """A block-allocated KV arena sized for this model (one slot per
        concurrently decoding sequence)."""
        cfg = self.config
        return PooledKVCache(
            cfg.n_blocks, n_slots, cfg.n_heads, cfg.max_seq, cfg.head_dim
        )

    def forward_full(self, tokens: np.ndarray | list[int]) -> np.ndarray:
        """Single full-sequence forward that no step continues (option
        scoring, propagation traces, calibration): generation iteration
        0, keeping no K/V."""
        return self.forward(tokens, None, start_pos=0, iteration=0)

    def start_session(self, prompt: list[int]) -> "Session":
        """Prefill a prompt and return an incremental decoding session."""
        return Session(self, prompt)


class Session:
    """Incremental decoding state: one slot's KV caches (a fresh one-slot
    pool, :meth:`InferenceEngine.new_caches`) + iteration counter."""

    def __init__(self, engine: InferenceEngine, prompt: list[int]) -> None:
        if not prompt:
            raise ValueError("prompt must contain at least one token")
        self.engine = engine
        self.caches = engine.new_caches()
        self.iteration = 0
        logits = engine.forward(prompt, self.caches, start_pos=0, iteration=0)
        self.last_logits: np.ndarray = logits[-1]
        self.position = len(prompt)

    def step(self, token: int) -> np.ndarray:
        """Feed one generated token; returns logits for the next one."""
        self.iteration += 1
        logits = self.engine.forward(
            [token], self.caches, start_pos=self.position, iteration=self.iteration
        )
        self.position += 1
        self.last_logits = logits[-1]
        return self.last_logits
