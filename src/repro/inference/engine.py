"""Fast NumPy inference engine with hooks, KV cache and storage policies.

This is the system under test for every fault-injection experiment:
a vectorised, allocation-light forward pass over a trained
:class:`~repro.model.params.ParamStore`, exposing

* **weight stores** — per-linear-layer storage policies whose stored
  bits can be flipped (memory faults, Figs 5/17/21);
* **forward hooks** — interception of each linear layer's output
  tensor (computational faults, Fig. 6);
* **activation capture** — per-layer output snapshots for the
  propagation-trace experiments (Figs 5/6) and MoE expert-selection
  records (Fig. 15);
* **sessions** — incremental decoding with a KV cache and a
  generation-iteration counter, so faults can be timed to a specific
  token-generation iteration exactly as the paper does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.autograd.functional import rms_norm_np, silu_np, softmax_np
from repro.inference.hooks import HookContext, HookManager
from repro.inference.kvcache import KVCache, PooledKVCache
from repro.inference.storage import (
    WeightStore,
    attach_weight_store,
    make_weight_store,
)
from repro.model.config import ModelConfig
from repro.model.params import ParamStore, open_arena, write_arena
from repro.model.transformer import rope_tables
from repro.obs.runtime import telemetry as _telemetry

__all__ = ["InferenceEngine", "Session", "CaptureState"]


@dataclass
class CaptureState:
    """Recorded layer outputs and expert selections for one forward."""

    layer_outputs: dict[str, np.ndarray] = field(default_factory=dict)
    expert_selections: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    """Maps ``(iteration, block)`` -> ``(tokens, top_k)`` expert indices."""


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
        self.capture: CaptureState | None = None
        self.weight_fault_depth = 0
        """Count of currently armed weight (memory) faults.  Maintained
        by :class:`~repro.fi.injector.MemoryFaultInjector` so fast-path
        optimizations can tell whether the stored weights are pristine."""
        self.kv_fault = None
        """Armed :class:`~repro.fi.injector.KVFaultInjector` (or None).
        The attention paths call ``kv_fault.on_append(block, cache,
        iteration)`` after each cache append so the fault can latch into
        live K/V state."""
        self.acc_fault = None
        """Armed :class:`~repro.fi.injector.AccumulatorFaultInjector`
        (or None).  :meth:`_linear` calls ``acc_fault.maybe_strike`` on
        every GEMM while armed."""

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

    # -- shared (memory-mapped) weight planes -----------------------------------

    def export_shared(self, directory: str | Path) -> Path:
        """Write every weight plane into a read-only mmap arena.

        Unlike exporting a :class:`ParamStore` (raw float32 parameters),
        this captures the engine's *policy-encoded* state — stored bit
        patterns for float policies, integer codes and group scales for
        quantized ones, plus the dequantized/rounded compute arrays —
        so :meth:`open_shared` attaches without re-encoding anything and
        is bit-identical to this engine by construction.
        """
        arrays: dict[str, np.ndarray] = {}
        store_meta: dict[str, dict] = {}
        for name, ws in self._stores.items():
            planes, meta = ws.export_state()
            store_meta[name] = meta
            for plane, array in planes.items():
                arrays[f"store:{name}:{plane}"] = array
        for name, array in self._plain.items():
            arrays[f"plain:{name}"] = array
        return write_arena(
            directory,
            arrays,
            meta={
                "kind": "engine",
                "config": self.config.to_json(),
                "weight_policy": self.weight_policy,
                "activation_format": self.activation_format,
                "stores": store_meta,
            },
        )

    @staticmethod
    def open_shared(directory: str | Path) -> "InferenceEngine":
        """Attach an engine to an arena written by :meth:`export_shared`.

        All weight planes are zero-copy read-only views into the shared
        mapping; only the (tiny, deterministic) RoPE tables are
        recomputed.  Weight-fault trials privatize the targeted tensor
        on first flip (storage-policy copy-on-write) — the arena and
        every sibling attachment stay pristine.
        """
        arrays, meta = open_arena(directory)
        if meta.get("kind") != "engine":
            raise ValueError(
                f"{directory} is not an engine arena"
                f" (kind={meta.get('kind')!r})"
            )
        engine = InferenceEngine.__new__(InferenceEngine)
        engine.config = ModelConfig.from_json(meta["config"])
        engine.weight_policy = meta["weight_policy"]
        engine.activation_format = meta["activation_format"]
        engine.hooks = HookManager()
        engine.capture = None
        engine.weight_fault_depth = 0
        engine.kv_fault = None
        engine.acc_fault = None
        engine._stores = {
            name: attach_weight_store(
                {
                    plane: arrays[f"store:{name}:{plane}"]
                    for plane in smeta["planes"]
                },
                smeta,
            )
            for name, smeta in meta["stores"].items()
        }
        engine._plain = {
            key[len("plain:"):]: array
            for key, array in arrays.items()
            if key.startswith("plain:")
        }
        engine._cos, engine._sin = rope_tables(
            engine.config.head_dim,
            engine.config.max_seq,
            engine.config.rope_theta,
        )
        return engine

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

    def _w(self, layer_name: str) -> np.ndarray:
        return self._stores[layer_name].array

    # -- forward ----------------------------------------------------------------

    def _linear(
        self,
        x: np.ndarray,
        block: int,
        layer: str,
        iteration,
        rows: np.ndarray | None = None,
        t: int = 0,
    ) -> np.ndarray:
        """One faultable linear layer over flat ``(N, D)`` input, then
        the fault surfaces that ride on its output (accumulator strike,
        hooks, capture).

        ``rows`` is ``None`` on the serial entry: one GEMM over every
        token.  On the batched entries it carries the id of the batch
        row each token belongs to (tokens of one row are contiguous) and
        ``iteration`` is the aligned per-token iteration array.  The
        product is then **row-exact**: one BLAS call per sequence — the
        ``(t, D) @ W`` the serial forward of that row runs, so its bits
        do not depend on what else is in the batch — issued from a
        single stacked NumPy matmul when every row has ``t`` tokens,
        or one product per run of equal row id when ``t == 0`` (an MoE
        expert's ragged subset).  An armed accumulator fault strikes its
        sampled reduction in the right row, and hooks run once per
        sequence on that sequence's contiguous ``(t, features)`` token
        slice — the exact serial shape — with
        :attr:`HookContext.batch_row` identifying the sequence, so a
        row-scoped fault strikes exactly one sequence of the batch.
        """
        full = f"blocks.{block}.{layer}"
        w = self._w(full)
        if rows is None:
            output = x @ w
        elif t:
            output = (x.reshape(-1, t, x.shape[1]) @ w).reshape(x.shape[0], -1)
        else:
            output = np.concatenate(
                [x[start:stop] @ w for start, stop in _runs(rows, 0)]
            )
        if self.acc_fault is not None:
            self.acc_fault.maybe_strike(output, x, w, full, iteration, rows)
        if self.hooks.has(full):
            if rows is None:
                output = self.hooks.apply(
                    output, HookContext(block, layer, iteration, full)
                )
            else:
                for start, stop in _runs(rows, t):
                    view = output[start:stop]
                    ctx = HookContext(
                        block, layer, int(iteration[start]), full,
                        batch_row=int(rows[start]),
                    )
                    result = self.hooks.apply(view, ctx)
                    if result is not view:
                        output[start:stop] = result
        if self.capture is not None:
            # Captured after hooks so propagation traces see injected
            # computational faults in the injected layer's own output.
            self.capture.layer_outputs[full] = output.copy()
        return output

    def _attention(
        self,
        x: np.ndarray,
        block: int,
        row_caches: list[list[KVCache]],
        cos: np.ndarray,
        sin: np.ndarray,
        masks,
        iteration,
        rows: np.ndarray | None,
        shared: bool,
    ) -> np.ndarray:
        """Causal attention for one block over flat ``(B*t, D)`` input.

        Projections and RoPE (``cos``/``sin`` are ``(B, 1, t, hd)``) are
        shared :meth:`_linear` calls / broadcasts; the core has two legs:

        * **own cache** — per row, append the row's new K/V to
          ``row_caches[i][block]``, let an armed KV fault latch, then
          score against that cache (prefix + chunk) under ``masks[i]``
          (``masks`` is ``None`` when ``t == 1``).  Rows are ragged, so
          this is a loop; each row's slices have the strides of a
          single-sequence forward, so every row is bit-identical to it.
        * **shared prefix** (``shared``) — every row attends to the one
          read-only cache ``row_caches[0][block]`` plus its own chunk
          (``masks`` is the ``(t, t)`` chunk mask; the prefix is fully
          visible) in one split softmax vectorised across rows; the
          cache is not advanced.
        """
        cfg = self.config
        heads, hd = cfg.n_heads, cfg.head_dim
        batch, t = cos.shape[0], cos.shape[2]
        half = hd // 2

        def rot(a: np.ndarray) -> np.ndarray:
            rotated = np.concatenate([-a[..., half:], a[..., :half]], axis=-1)
            return a * cos + rotated * sin

        # (B*t, D) -> (B, heads, t, hd)
        split = (batch, t, heads, hd)
        q = self._linear(x, block, "q_proj", iteration, rows, t)
        k = self._linear(x, block, "k_proj", iteration, rows, t)
        v = self._linear(x, block, "v_proj", iteration, rows, t)
        q = rot(q.reshape(split).swapaxes(1, 2))
        k = rot(k.reshape(split).swapaxes(1, 2))
        v = v.reshape(split).swapaxes(1, 2)
        scale = np.float32(hd**-0.5)
        if shared:
            cache = row_caches[0][block]
            pk, pv = cache.keys(), cache.values()  # (heads, P, hd)
            scores_prefix = (q @ pk.swapaxes(-1, -2)) * scale  # (B, heads, t, P)
            scores_self = (q @ k.swapaxes(-1, -2)) * scale  # (B, heads, t, t)
            if masks is not None:
                scores_self = np.where(
                    masks[None, None], scores_self, np.float32(-1e9)
                )
            scores = np.concatenate([scores_prefix, scores_self], axis=-1)
            attn = softmax_np(scores, axis=-1)
            p = cache.length
            ctx = (attn[..., :p] @ pv + attn[..., p:] @ v).swapaxes(1, 2)
        else:
            ctx = np.empty(split, dtype=np.float32)
            for i in range(batch):
                cache = row_caches[i][block]
                cache.append(k[i], v[i])
                if self.kv_fault is not None:
                    self.kv_fault.on_append(
                        block,
                        cache,
                        iteration if rows is None else int(iteration[i * t]),
                    )
                keys, values = cache.keys(), cache.values()
                scores = (q[i] @ keys.swapaxes(-1, -2)) * scale
                if masks is not None:
                    scores = np.where(masks[i][None], scores, np.float32(-1e9))
                attn = softmax_np(scores, axis=-1)
                ctx[i] = (attn @ values).swapaxes(0, 1)
        return self._linear(
            ctx.reshape(batch * t, cfg.d_model), block, "out_proj", iteration, rows, t
        )

    def _mlp(
        self,
        h: np.ndarray,
        block: int,
        iteration,
        expert: int | None = None,
        rows: np.ndarray | None = None,
        t: int = 0,
    ) -> np.ndarray:
        tag = "" if expert is None else f"experts.{expert}."
        gate = self._linear(h, block, tag + "gate_proj", iteration, rows, t)
        up = self._linear(h, block, tag + "up_proj", iteration, rows, t)
        return self._linear(
            silu_np(gate) * up, block, tag + "down_proj", iteration, rows, t
        )

    def _moe(
        self,
        h: np.ndarray,
        block: int,
        iteration,
        rows: np.ndarray | None = None,
        t: int = 0,
    ) -> np.ndarray:
        """Token-wise expert routing over flat ``(N, D)`` input (so
        expert-selection capture records ``(N, top_k)`` rows,
        batch-major); each expert sees only its tokens, with their
        per-token ``iteration``/``rows`` on the batched entries (a
        ragged subset of each row, so its products run per row run)."""
        cfg = self.config
        router_logits = self._linear(h, block, "router", iteration, rows, t)
        k = cfg.top_k
        top = np.argpartition(router_logits, -k, axis=-1)[:, -k:]
        # Order selected experts by descending logit for stable records.
        order = np.argsort(
            np.take_along_axis(router_logits, top, axis=-1), axis=-1
        )[:, ::-1]
        top = np.take_along_axis(top, order, axis=-1)
        if self.capture is not None:
            self.capture.expert_selections[(iteration, block)] = top.copy()
        gates = softmax_np(
            np.take_along_axis(router_logits, top, axis=-1), axis=-1
        )
        out = np.zeros_like(h)
        for e in range(cfg.n_experts):
            slot_mask = top == e  # (t, k)
            sel = np.nonzero(slot_mask.any(axis=-1))[0]
            if sel.size == 0:
                continue
            expert_out = self._mlp(
                h[sel],
                block,
                iteration if rows is None else iteration[sel],
                expert=e,
                rows=None if rows is None else rows[sel],
            )
            weight = (gates[sel] * slot_mask[sel]).sum(axis=-1, keepdims=True)
            out[sel] += expert_out * weight
        return out

    def _forward_rows(
        self,
        ids: np.ndarray,
        row_caches: list[list[KVCache]],
        positions,
        iteration,
        rows: np.ndarray | None,
        shared: bool = False,
        block_inputs: list | None = None,
        resume: tuple[int, np.ndarray] | None = None,
    ) -> np.ndarray:
        """The one forward: rectangular ``(B, t)`` ``ids``, row ``i``
        starting at ``positions[i]`` and appending to its own
        ``row_caches[i]`` (or, under ``shared``, every row reading the
        single cache list ``row_caches[0]``; see :meth:`_attention`).

        ``iteration``/``rows`` are the caller's scalar and ``None`` for
        the serial entry, or the per-row iterations and row ids for the
        batched entries (expanded per token here, since activations
        stay flat ``(B*t, D)`` outside attention).  With ``rows`` every
        product is issued per sequence (see :meth:`_linear`), which
        makes each row bit-identical to its own serial forward; the
        serial entry — the 2-D shared-prefix mode included — keeps one
        flat GEMM.  ``block_inputs`` collects the flat hidden state
        entering each block that runs; ``resume = (first_block, hidden)``
        starts from such a state instead of the embedding (see
        :meth:`forward_chunk_batch`).  Returns flat ``(B*t, vocab)``
        logits.
        """
        cfg = self.config
        batch, t = ids.shape
        positions = np.asarray(positions, dtype=np.int64)
        # Checked before any cache, hook or GEMM is touched, so a full
        # cache fails the same way on every entry and corrupts nothing.
        if batch and int(positions.max()) + t > cfg.max_seq:
            raise ValueError(
                f"KV cache overflow: {int(positions.max())} + {t} > {cfg.max_seq}"
            )
        tel = _telemetry()
        t0 = None
        if tel.active:
            t0 = tel.marks["forward_start"] = time.perf_counter()
        offs = np.arange(t)
        # Per-row RoPE gather: row i rotates positions[i] .. positions[i]+t-1.
        gather = positions[:, None] + offs
        cos = self._cos[gather][:, None]  # (B, 1, t, hd)
        sin = self._sin[gather][:, None]
        # The causal masks only depend on (positions, t), so build them
        # once per forward instead of once per block: the prefix is
        # fully visible, the chunk is causal within itself.
        masks = None
        if t > 1 and shared:
            masks = offs[None, :] <= offs[:, None]
        elif t > 1:
            masks = [
                np.arange(int(p) + t)[None, :] <= (int(p) + offs)[:, None]
                for p in positions
            ]
        if rows is not None:
            iteration, rows = np.repeat(iteration, t), np.repeat(rows, t)
        # Corrupted weights legitimately overflow float32 (an MSB
        # exponent flip scales a value by ~2^128); inf/nan propagation
        # *is* the studied behaviour, so silence the warnings.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if resume is None:
                first, x = 0, self._plain["embed.weight"][ids.reshape(-1)]
            else:
                first, x = resume
            for b in range(first, cfg.n_blocks):
                if block_inputs is not None:
                    block_inputs.append(x)
                prefix = f"blocks.{b}."
                h = rms_norm_np(
                    x, self._plain[prefix + "attn_norm.weight"], cfg.norm_eps
                )
                x = x + self._attention(
                    h, b, row_caches, cos, sin, masks, iteration, rows, shared
                )
                h = rms_norm_np(
                    x, self._plain[prefix + "mlp_norm.weight"], cfg.norm_eps
                )
                if cfg.is_moe:
                    x = x + self._moe(h, b, iteration, rows, t)
                else:
                    x = x + self._mlp(h, b, iteration, rows=rows, t=t)
            x = rms_norm_np(x, self._plain["final_norm.weight"], cfg.norm_eps)
            head = self._plain["lm_head.weight"]
            if rows is None:
                logits = x @ head
            else:
                # Row-exact like every _linear: one product per sequence.
                logits = (x.reshape(batch, t, -1) @ head).reshape(batch * t, -1)
        if t0 is not None:
            metrics = tel.metrics
            metrics.histogram("engine.forward_ms").observe(
                (time.perf_counter() - t0) * 1e3
            )
            metrics.counter("engine.forward_calls").add()
            metrics.counter("engine.tokens").add(ids.size)
            metrics.gauge("engine.kv_occupancy").set(
                max((c[-1].length for c in row_caches if c), default=0)
                / cfg.max_seq
            )
        return logits

    def forward(
        self,
        tokens: np.ndarray | list[int],
        caches: list[KVCache],
        start_pos: int,
        iteration: int,
    ) -> np.ndarray:
        """Run ``tokens`` (a chunk) through the model, filling ``caches``.

        Returns logits of shape ``(len(tokens), vocab)``.

        ``tokens`` may also be a rectangular batch of shape ``(B, t)``:
        every batch row is then scored against the *shared* prefix
        already in ``caches`` (one large matmul per linear layer instead
        of ``B`` small ones), the caches are left untouched, and logits
        come back as ``(B, t, vocab)``.  Hooks and capture observe the
        flattened batch-major ``(B*t, ...)`` tensors in that mode —
        callers that need exact single-sequence fault semantics must
        ask :func:`~repro.generation.round.decode_plan` first and use
        the unbatched path unless it finds nothing but observers armed.
        """
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim not in (1, 2):
            raise ValueError(f"tokens must be 1-D or rectangular 2-D, got {ids.shape}")
        if ids.ndim == 1:
            return self._forward_rows(ids[None], [caches], [start_pos], iteration, None)
        batch, t = ids.shape
        return self._forward_rows(
            ids, [caches], [start_pos] * batch, iteration, None, shared=True
        ).reshape(batch, t, -1)

    def forward_step_batch(
        self,
        tokens: np.ndarray | list[int],
        row_caches: list[list[KVCache]],
        positions: np.ndarray | list[int],
        iterations: np.ndarray | list[int],
        row_ids: np.ndarray | list[int] | None = None,
    ) -> np.ndarray:
        """One single-token decode step for ``B`` independent sequences.

        Unlike the shared-prefix batched :meth:`forward`, every batch
        row here owns its caches (``row_caches[i]`` is that row's
        per-block list — typically :class:`PooledKVCache` slot views)
        and its K/V **is appended**; per-row positions and iteration
        counts may be ragged, which is what continuous batching needs.
        The linear layers run one ``(1, D) @ W`` product per row inside
        one stacked NumPy matmul and the attention core runs per row
        against that row's own cache — every operation on a row matches
        the serial ``Session.step`` shape-for-shape, so **each row's
        logits and appended K/V are bit-identical to its serial step at
        any width**, and fault hooks observe identical tensors.

        Hooks are applied per row (see :meth:`_linear`) with
        :attr:`HookContext.batch_row` set to ``row_ids[i]`` — distinct
        ints, default ``arange(B)``.  A caller whose rows come and go
        between steps passes ids that stay with the sequence, so a hook
        pinned to one sequence cannot land on whichever sibling inherits
        its position.  Activation capture is not supported on this path
        — use the serial forward.  Returns logits of shape
        ``(B, vocab)``.
        """
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError(f"tokens must be a 1-D batch of ids, got {ids.shape}")
        if self.capture is not None:
            raise RuntimeError(
                "forward_step_batch does not support activation capture;"
                " use the serial per-sequence path"
            )
        if len(row_caches) != ids.shape[0]:
            raise ValueError(
                f"{ids.shape[0]} tokens but {len(row_caches)} cache rows"
            )
        return self._forward_rows(
            ids[:, None], row_caches, positions, iterations,
            _row_ids(row_ids, ids.shape[0]),
        )

    def forward_chunk_batch(
        self,
        tokens: np.ndarray | list[list[int]],
        row_caches: list[list[KVCache]],
        positions: np.ndarray | list[int],
        iterations: np.ndarray | list[int],
        row_ids: np.ndarray | list[int] | None = None,
        *,
        block_inputs: list | None = None,
        resume: tuple[int, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Multi-token decode chunks for ``B`` independent sequences.

        The missing quadrant between :meth:`forward` and
        :meth:`forward_step_batch`: ``tokens`` is a rectangular
        ``(B, t)`` chunk batch and every row **appends to its own
        caches** (``row_caches[i]``, typically pooled slot views)
        starting at its own ``positions[i]``.  The shared-prefix 2-D
        :meth:`forward` mode scores against one read-only cache and
        :meth:`forward_step_batch` is single-token; batched speculative
        verification needs both raggedness *and* chunk width, which is
        exactly this.

        Linear layers run one ``(t, D) @ W`` product per row inside one
        stacked NumPy matmul; RoPE tables are gathered per row from the
        ragged positions; the attention core runs per row against that
        row's own cache (which, after the append, holds prefix + chunk)
        under the standard causal mask.  Every operation on a row is
        shape-identical to the 1-D chunked :meth:`forward`, so each
        row's logits and K/V are bit-identical to the serial speculative
        verify path at any width.

        ``iterations[i]`` tags row ``i``'s chunk with its generation
        iteration (the round's first emitted-token index, matching the
        serial speculative decoder's scalar tag); an armed KV fault
        receives per-row ``on_append`` callbacks against per-row
        caches, so slot-pinned injectors latch exactly as they would on
        that row's serial decode.  Hooks observe per-row
        ``(t, features)`` views — the serial chunk shape, tagged with
        ``row_ids[i]`` as in :meth:`forward_step_batch` (only *observer*
        hooks are admitted here by the FI gates); activation
        capture and an armed accumulator fault are rejected on this
        path — the composed-decode gate matrix routes
        capture/acc/non-observer machinery to the batched or serial
        paths instead.

        ``block_inputs`` (a list) receives the flat ``(B*t, d_model)``
        hidden state entering each block that runs, in block order —
        the arrays the forward computed, not copies; nothing later
        writes to them.  ``resume = (first_block, hidden)`` is the
        other half: skip the embedding and the blocks below
        ``first_block`` and start from ``hidden``, the state that
        entered ``first_block`` in a forward of the same ``tokens`` from
        the same ``positions`` (this engine never writes to it).  An
        error only travels downstream, so whatever is corrupted at
        ``first_block`` or later sees exactly the inputs it would in the
        whole forward and every row stays bit-identical to it.  The
        skipped blocks' caches are left untouched, so a resumed forward
        is for **single-forward scoring only**: no later step may
        attend over these caches.

        Returns logits of shape ``(B, t, vocab)``.
        """
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim != 2:
            raise ValueError(
                f"tokens must be a rectangular (B, t) batch, got {ids.shape}"
            )
        if resume is not None:
            first_block, hidden = resume
            if not 0 <= first_block < self.config.n_blocks:
                raise ValueError(
                    f"resume block {first_block} out of range for"
                    f" {self.config.n_blocks} blocks"
                )
            want = (ids.size, self.config.d_model)
            if (
                not isinstance(hidden, np.ndarray)
                or hidden.shape != want
                or hidden.dtype != np.float32
            ):
                raise ValueError(
                    f"resume hidden state must be a float32 array of shape {want}"
                )
        if self.capture is not None:
            raise RuntimeError(
                "forward_chunk_batch does not support activation capture;"
                " use the serial per-sequence path"
            )
        if self.acc_fault is not None:
            raise RuntimeError(
                "forward_chunk_batch cannot honor an armed accumulator"
                " fault (per-row strike mapping is single-token); the"
                " decode gate matrix must route acc faults to the"
                " batched or serial paths"
            )
        if len(row_caches) != ids.shape[0]:
            raise ValueError(
                f"{ids.shape[0]} chunk rows but {len(row_caches)} cache rows"
            )
        return self._forward_rows(
            ids, row_caches, positions, iterations,
            _row_ids(row_ids, ids.shape[0]),
            block_inputs=block_inputs, resume=resume,
        ).reshape(*ids.shape, -1)

    def new_caches(self) -> list[KVCache]:
        cfg = self.config
        return [
            KVCache(cfg.n_heads, cfg.max_seq, cfg.head_dim)
            for _ in range(cfg.n_blocks)
        ]

    def new_pool(self, n_slots: int) -> PooledKVCache:
        """A block-allocated KV arena sized for this model (one slot per
        concurrently decoding sequence)."""
        cfg = self.config
        return PooledKVCache(
            cfg.n_blocks, n_slots, cfg.n_heads, cfg.max_seq, cfg.head_dim
        )

    def forward_full(self, tokens: np.ndarray | list[int]) -> np.ndarray:
        """Single full-sequence forward (option scoring / prefill-only).

        This is generation iteration 0.
        """
        return self.forward(tokens, self.new_caches(), start_pos=0, iteration=0)

    def start_session(self, prompt: list[int]) -> "Session":
        """Prefill a prompt and return an incremental decoding session."""
        return Session(self, prompt)


class Session:
    """Incremental decoding state: KV caches + iteration counter."""

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

    def fork(self) -> "Session":
        """Clone the session (caches deep-copied) for beam search."""
        clone = Session.__new__(Session)
        clone.engine = self.engine
        clone.caches = [c.clone() for c in self.caches]
        clone.iteration = self.iteration
        clone.position = self.position
        clone.last_logits = self.last_logits.copy()
        return clone
