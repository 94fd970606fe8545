"""Batched speculative decoding: draft-and-verify × continuous batching.

The repo's two biggest decode speedups were mutually exclusive:
:class:`~repro.generation.speculative.SpeculativeDecoder` cuts target
forwards per sequence but runs one sequence at a time, while
:class:`~repro.generation.batched.BatchedDecoder` amortizes dispatch
across sequences but still pays one target forward per token.
:class:`BatchedSpeculativeDecoder` composes them (whether that pays on
a given draft/target pair is the ledger's
``generation.composed_tok_per_s.b8d4`` against
``generation.batched_tok_per_s.b8``): it drives a
:class:`~repro.generation.round.DecodeRound` with the draft attached —
grouped draft propose, grouped batched target verify, per-row commit and
per-slot ``truncate`` rollback, round-granularity retire and back-fill
(see :mod:`repro.generation.round` for the schedule, the equivalence
contract and the FI gate matrix).  At batch width 1 the round schedule
reduces exactly to :class:`~repro.generation.speculative.SpeculativeDecoder`.

A caller that *wants* a fault inside the speculative schedule calls the
1-D decoder's ungated
:meth:`~repro.generation.speculative.SpeculativeDecoder.speculate`.
"""

from __future__ import annotations

from repro.generation.batched import BatchedDecoder
from repro.generation.decode import GenerationConfig
from repro.generation.round import check_draft
from repro.inference.engine import InferenceEngine
from repro.inference.kvcache import PooledKVCache

__all__ = ["BatchedSpeculativeDecoder"]


class BatchedSpeculativeDecoder(BatchedDecoder):
    """A :class:`BatchedDecoder` whose rounds also speculate, under a
    ``composed`` plan (any other plan is the target's own batched or
    serial path).

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
