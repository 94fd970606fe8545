"""Continuous-batched generative decoding over a pooled KV cache.

The paper's generative campaigns (GSM8k, WMT16, XLSum, SQuAD v2,
§3.3.4) decode one sequence at a time; every trial and every baseline
pays the full per-token Python/dispatch overhead per sequence.
:class:`BatchedDecoder` amortizes it the way production inference
engines do:

* **Continuous batching** — up to ``max_batch`` prompts decode
  together, one :meth:`~repro.inference.engine.InferenceEngine.forward_step_batch`
  per token for the whole batch; a sequence that hits EOS or its length
  limit retires immediately and its slot is back-filled from the
  pending queue, so the batch stays full instead of draining to the
  slowest sequence.
* **Pooled KV cache** — sequences decode out of
  :class:`~repro.inference.kvcache.PooledKVCache` slot rows, so
  admissions and refills allocate nothing.

**FI-safety gate**: :func:`~repro.generation.round.decode_plan`, asked
once per call, names the path (the gate matrix in
:mod:`repro.generation.round`); its ``serial`` path runs the reference
loop per prompt.  Batched decoding is bit-identical to the serial path
per row at any width (the round's equivalence contract).
"""

from __future__ import annotations

from repro.generation.decode import GenerationConfig, greedy_decode
from repro.generation.round import (
    Admission,
    DecodeRound,
    count_plan,
    decode_plan,
    decode_to_completion,
)
from repro.inference.engine import InferenceEngine
from repro.inference.kvcache import PooledKVCache

__all__ = ["BatchedDecoder"]


class BatchedDecoder:
    """Continuous-batching decode scheduler over a pooled KV cache.

    One decoder owns one arena; reuse it across calls so admissions
    never allocate.  It falls back to the exact serial reference path
    whenever :func:`~repro.generation.round.decode_plan` says batching
    could change results.
    """

    # Only a BatchedSpeculativeDecoder has a draft (and a depth and a
    # draft pool): decode_many plans with it and hands it to a composed
    # round.
    draft: InferenceEngine | None = None
    depth = 0
    _draft_pool: PooledKVCache | None = None

    def __init__(
        self,
        engine: InferenceEngine,
        config: GenerationConfig,
        max_batch: int = 8,
        pool: PooledKVCache | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.engine = engine
        self.config = config
        self.max_batch = max_batch
        self._pool = pool

    def _ensure_pool(self, n_slots: int) -> PooledKVCache:
        if self._pool is None or self._pool.n_slots < n_slots:
            self._pool = self.engine.new_pool(n_slots)
        return self._pool

    def decode_many(self, prompts: list[list[int]]) -> list[list[int]]:
        """Greedy-decode many prompts with continuous batching.

        Sequences are admitted up to ``max_batch``, stepped as one
        batched forward per token (one speculative round under a
        ``composed`` plan), retired on EOS/length, and retired slots are
        immediately back-filled from the pending queue.  Per-sequence
        outputs are identical to serial ``greedy_decode`` (bit-identical
        logits per row at any width).
        """
        path, reason = decode_plan(self.engine, self.draft)
        count_plan(path, reason)
        if path == "serial":
            return [
                greedy_decode(self.engine, p, self.config, strategy="serial")
                for p in prompts
            ]
        width = min(self.max_batch, max(1, len(prompts)))
        draft = self.draft if path == "composed" else None
        if draft is not None and (
            self._draft_pool is None or self._draft_pool.n_slots < width
        ):
            self._draft_pool = draft.new_pool(width)
        return decode_to_completion(
            DecodeRound(
                self.engine, self._ensure_pool(width), self.config.eos_id,
                draft=draft, draft_pool=self._draft_pool, depth=self.depth,
            ),
            [Admission(i, p, self.config.max_new_tokens) for i, p in enumerate(prompts)],
            self.max_batch,
        )
