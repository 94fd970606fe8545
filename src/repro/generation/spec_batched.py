"""Batched speculative decoding: draft-and-verify × continuous batching.

The repo's two biggest decode speedups were mutually exclusive:
:class:`~repro.generation.speculative.SpeculativeDecoder` cuts target
forwards per sequence but runs one sequence at a time (BENCH_spec.json:
1.69× vs serial, **0.68× vs batched**), while
:class:`~repro.generation.batched.BatchedDecoder` amortizes dispatch
across sequences but still pays one target forward per token.
:class:`BatchedSpeculativeDecoder` composes them so the speedups
multiply instead of competing: it drives a
:class:`~repro.generation.round.DecodeRound` with the draft attached —
grouped draft propose, grouped batched target verify, per-row commit and
per-slot ``truncate`` rollback, round-granularity retire and back-fill
(see :mod:`repro.generation.round` for the schedule, the equivalence
contract and the FI gate matrix).  At batch width 1 the round schedule
reduces exactly to :class:`~repro.generation.speculative.SpeculativeDecoder`.

The ``spec_fault_side`` studies, which *want* faults inside the
speculative schedule, keep bypassing the gate through the 1-D decoder's
``decode_one(force=True)``.
"""

from __future__ import annotations

from repro.generation.batched import BatchedDecoder
from repro.generation.decode import GenerationConfig
from repro.generation.round import (
    DecodeRound,
    check_draft,
    count_plan,
    decode_plan,
    decode_to_completion,
)
from repro.inference.engine import InferenceEngine, Session
from repro.inference.kvcache import PooledKVCache

__all__ = ["BatchedSpeculativeDecoder"]


class BatchedSpeculativeDecoder(BatchedDecoder):
    """A :class:`BatchedDecoder` whose rounds also speculate.

    Same output contract as ``greedy_decode`` per prompt; rows share
    pooled KV arenas on both the target and draft side and advance in
    lockstep rounds whose per-row accept lengths are ragged.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        draft: InferenceEngine,
        config: GenerationConfig,
        speculation_depth: int = 4,
        max_batch: int = 8,
        pool: PooledKVCache | None = None,
        draft_pool: PooledKVCache | None = None,
    ) -> None:
        check_draft(engine, draft, speculation_depth)
        super().__init__(engine, config, max_batch=max_batch, pool=pool)
        self.draft = draft
        self.depth = speculation_depth
        self._draft_pool = draft_pool

    def decode_many(
        self,
        prompts: list[list[int]],
        sessions: "list[Session | None] | None" = None,
    ) -> list[list[int]]:
        """Greedy-decode every prompt; same contract as ``greedy_decode``
        applied prompt-by-prompt.

        ``sessions`` optionally supplies already-prefilled target
        sessions (consumed), aligned with ``prompts``; the draft side
        always prefills into its own pool.  :func:`decode_plan` picks
        the fastest path that preserves exact fault semantics: composed
        when nothing but observers is armed on either engine, else the
        target's own batched or serial path.
        """
        sessions = self._aligned(prompts, sessions)
        path, reason = decode_plan(self.engine, self.draft)
        count_plan(path, reason)
        if path != "composed":
            return self._decode_on(path, prompts, sessions)
        width = min(self.max_batch, max(1, len(prompts)))
        if self._draft_pool is None or self._draft_pool.n_slots < width:
            self._draft_pool = self.draft.new_pool(width)
        return decode_to_completion(
            DecodeRound(
                self.engine, self._ensure_pool(width), self.config.eos_id,
                draft=self.draft, draft_pool=self._draft_pool, depth=self.depth,
            ),
            prompts, sessions, self.config.max_new_tokens, self.max_batch,
        )
