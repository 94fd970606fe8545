"""Draft-and-verify speculative decoding for greedy generation.

The paper's generative campaigns decode one token per target forward;
at small scale every forward is dominated by Python/BLAS dispatch, so
wall clock scales with the *number* of forwards, not their size.
:class:`SpeculativeDecoder` cuts the forward count the way production
engines do: a cheap same-tokenizer **draft model** proposes up to
``speculation_depth`` tokens per round, and the **target** model
verifies the whole proposal in a single multi-token ``forward`` chunk
over its existing KV cache (the chunked-prefill path
:meth:`~repro.inference.engine.InferenceEngine.forward` already
supports).  The longest prefix of the proposal that matches the
target's own greedy choices is accepted; everything after the first
mismatch is rolled back with :meth:`~repro.inference.kvcache.KVCache.truncate`,
and the mismatch position itself still yields one emitted token (the
target's correction) — so every round emits ``accepted + 1`` tokens
for one target forward.

Output equivalence: the emitted tokens are always argmaxes of *target*
logits, so a round with zero accepted proposals degenerates to exactly
one serial step and speculation can never change which tokens are
greedy-optimal under the target.  Chunked verification evaluates the
same positions as the serial loop but through multi-token GEMMs, which
agree with the single-token path up to float associativity — the same
contract as PR 3's batched decoder — and the differential suite plus
the benchmark's pre-timing equivalence gate hold the decoded tokens to
bit-identity with the serial reference.

**Why this class stays** beside the batched
:class:`~repro.generation.round.DecodeRound`: it is the reference the
composed path is tested against (width 1 must reduce to exactly this
schedule), and it is the only speculative schedule that honours armed
accumulator faults and perturbing hooks — it runs on the 1-D
``engine.forward``, where ``forward_chunk_batch`` rejects them.  It
shares the per-row
rules (:func:`~repro.generation.round.pick`, the accept walk, the
draft-keep length) with the stepper instead of keeping copies.

**FI-safety gate**: :func:`~repro.generation.round.decode_plan` —
anything armed on either engine but pure observers forces the exact
serial reference path, so injected trial records never depend on the
decode strategy.

Draft corruption, by contrast, is masked *by construction*: every
emitted token is an argmax of **target** logits over the true emitted
prefix, so a corrupted proposal can only lower the accept rate — it
can never change the output.  A property test holds exactly that: any
fault armed on the draft, decoded through the ungated schedule
(:meth:`SpeculativeDecoder.speculate`; under the gate's serial
fallback a draft fault would never fire), emits the fault-free tokens
(``tests/test_new_surfaces.py``).
"""

from __future__ import annotations

import time

from repro.generation.decode import GenerationConfig, greedy_decode
from repro.generation.round import accept, check_draft, draft_keep, pick
from repro.inference.engine import InferenceEngine, Session
from repro.obs.runtime import telemetry as _telemetry

__all__ = ["SpeculativeDecoder"]


class SpeculativeDecoder:
    """Greedy draft-and-verify decoder over a target/draft engine pair.

    The draft runs its own KV caches alongside the target session; per
    round it first catches up on tokens the target emitted that it has
    not seen (one small chunked forward), proposes ``speculation_depth``
    tokens by argmax, and hands them to the target for chunked
    verification.  Rejected positions are rolled back on both sides by
    cache truncation — no copies, no reallocation.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        draft: InferenceEngine,
        config: GenerationConfig,
        speculation_depth: int = 4,
    ) -> None:
        check_draft(engine, draft, speculation_depth)
        self.engine = engine
        self.draft = draft
        self.config = config
        self.depth = speculation_depth

    def decode_one(
        self,
        prompt_ids: list[int],
        session: Session | None = None,
    ) -> list[int]:
        """Greedy-decode one prompt: ``greedy_decode`` with this pair —
        :meth:`speculate` where
        :func:`~repro.generation.round.decode_plan` allows speculation,
        else the exact serial reference loop.

        ``session`` optionally supplies an already-prefilled target
        session for ``prompt_ids`` (consumed).
        """
        return greedy_decode(
            self.engine, prompt_ids, self.config, session=session,
            draft=self.draft, speculation_depth=self.depth,
        )

    def speculate(
        self,
        prompt_ids: list[int],
        session: Session | None = None,
    ) -> list[int]:
        """The draft-and-verify schedule itself, whatever is armed.

        For callers that already hold a ``composed`` plan, and for
        tests that arm a fault on purpose to watch how it meets the
        speculative schedule.
        """
        tel = _telemetry()
        t0 = time.perf_counter()
        with tel.span(
            "decode.speculate",
            depth=self.depth,
            prompt_tokens=len(prompt_ids),
            prefilled=session is not None,
        ) as span:
            out = self._decode_impl(prompt_ids, session, tel)
            span.set(new_tokens=len(out))
        if tel.active:
            tel.metrics.histogram("decode.speculate_ms").observe(
                (time.perf_counter() - t0) * 1e3
            )
        return out

    def _decode_impl(
        self, prompt_ids: list[int], session: Session | None, tel
    ) -> list[int]:
        engine, draft, config = self.engine, self.draft, self.config
        eos, max_new = config.eos_id, config.max_new_tokens
        if session is None:
            session = engine.start_session(prompt_ids)
        caches = session.caches
        first = pick(session.last_logits)
        if first == eos:
            return []
        out = [first]
        if max_new == 1:
            return out
        # Invariant maintained by every round: the target caches hold
        # ``prompt + out[:-1]`` — the last emitted token is *pending*
        # (not yet fed) and becomes position 0 of the next verify
        # chunk, exactly like the serial loop's next ``step``.  The
        # draft caches hold ``(prompt + out)[:d_len]``.
        d_caches = draft.new_caches()
        draft.forward(prompt_ids, d_caches, start_pos=0, iteration=0)
        d_len = len(prompt_ids)
        while len(out) < max_new:
            # Never propose past the token budget: the chunk emits at
            # most gamma + 1 tokens, and the serial loop never runs a
            # forward whose logits it would discard.
            gamma = min(self.depth, max_new - len(out) - 1)
            proposals: list[int] = []
            if gamma > 0:
                # Catch the draft up on tokens the target emitted since
                # its cache was last valid (1–2: the previous round's
                # correction/bonus plus possibly a rolled-back slot).
                feed = out[d_len - len(prompt_ids):]
                d_logits = draft.forward(
                    feed, d_caches, start_pos=d_len, iteration=len(out)
                )[-1]
                d_len += len(feed)
                for i in range(gamma):
                    token = pick(d_logits)
                    proposals.append(token)
                    if i < gamma - 1:
                        d_logits = draft.forward(
                            [token], d_caches, start_pos=d_len,
                            iteration=len(out) + i + 1,
                        )[-1]
                        d_len += 1
            target_len = caches[0].length
            chunk = [out[-1], *proposals]
            logits = engine.forward(
                chunk, caches, start_pos=target_len, iteration=len(out)
            )
            accepted, stop = accept(logits, proposals, eos, out)
            if tel.active:
                tel.metrics.counter("decode.spec_rounds").add()
                tel.metrics.counter("decode.spec_rejected").add(
                    gamma - accepted
                )
                tel.metrics.histogram("decode.spec_accept_len").observe(
                    accepted
                )
            # Roll back rejected K/V on both sides.  The target keeps
            # the pending token plus the accepted proposals (everything
            # emitted except the new pending tail); the draft keeps the
            # accepted proposals it has already stepped through.
            for cache in caches:
                cache.truncate(target_len + 1 + accepted)
            if stop:
                break
            d_len = draft_keep(d_len, gamma, accepted)
            for cache in d_caches:
                cache.truncate(d_len)
        return out
