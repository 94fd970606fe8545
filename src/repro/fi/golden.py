"""Golden runs: the fault-free decode an injected trial resumes from.

Greedy decoding is deterministic and every transient injector
(computational, KV-cache, accumulator) is one-shot and timed to one
generation iteration ``k``, so everything a trial computes before the
forward tagged ``k`` is, bit for bit, the fault-free run of its example.
A :class:`GoldenRun` keeps that run once — token ids, per-iteration
logits and one full-length K/V snapshot per block — and hands trials the
state they would otherwise recompute.

**States.**  Forward 0 is the prompt forward; forward ``i >= 1`` feeds
golden token ``i - 1`` and produces the logits that pick token ``i``.
``S_j`` is the decode state after forward ``j``: every cache holds
``prompt_len + j`` positions, ``iteration == j`` and ``last_logits`` is
forward ``j``'s output.  A strike at iteration ``k`` resumes at
``S_(k-1)``: the first forward the trial runs is the one tagged ``k``,
over the inputs the full decode would have fed it.

**Width 1.**  The run is decoded with ``Session.step``, which is
bit-identical to the width-1 batch round injected trials decode through.
The campaign baseline is *not* reusable: it batches eight examples per
forward and agrees with width 1 only up to float associativity — the
same tokens, different K/V bits.

**Unreached strikes.**  When the run ended at EOS after ``n`` tokens the
forwards tagged ``1..n`` exist and no other; a strike at ``k > n`` never
fires, so that trial *is* the golden run and needs no forward at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.generation.decode import GenerationConfig
from repro.generation.round import pick
from repro.inference.engine import InferenceEngine, Session
from repro.obs.flight import flight_recorder as _flight
from repro.obs.runtime import telemetry as _telemetry

__all__ = ["GoldenRun"]


@dataclass(eq=False)
class GoldenRun:
    """One example's fault-free width-1 run, rewindable to any ``S_j``."""

    session: Session
    """The one session trials of this example decode in, rewound in
    place (never forked: a fork allocates full ``max_seq`` buffers)."""
    config: GenerationConfig
    prompt_len: int
    ids: list[int]
    logits: list[np.ndarray]
    """``logits[j]`` is forward ``j``'s output; ``len(ids)`` entries,
    plus the EOS-producing one when the run ended at EOS."""
    snaps: list[tuple[np.ndarray, np.ndarray, int]]

    @classmethod
    def decode(
        cls, engine: InferenceEngine, prompt: list[int], config: GenerationConfig
    ) -> "GoldenRun":
        """Prefill ``prompt`` and, for a greedy ``config``, decode it to
        the end exactly as a ``DecodeRound`` row does: EOS is not
        emitted and a full budget retires without a final forward.
        Beam-search trials resume at ``S_0`` only, so theirs stops at
        the prompt forward."""
        session = engine.start_session(prompt)
        ids: list[int] = []
        logits = [session.last_logits]
        while config.num_beams == 1:
            token = pick(logits[-1])
            if token == config.eos_id:
                break
            ids.append(token)
            if len(ids) == config.max_new_tokens:
                break
            logits.append(session.step(token))
        tel = _telemetry()
        if tel.active:
            tel.metrics.counter("campaign.golden.builds").add()
        snaps = [cache.snapshot() for cache in session.caches]
        return cls(session, config, len(prompt), ids, logits, snaps)

    def rewind(self, j: int) -> Session:
        """The session, rewound in place to ``S_j`` (consumed by the
        decode it is handed to; the next rewind reclaims it)."""
        session = self.session
        length = self.prompt_len + j
        for cache, snap in zip(session.caches, self.snaps):
            cache.restore(snap, length)
        session.iteration = j
        session.position = length
        session.last_logits = self.logits[j].copy()
        return session

    def resume(self, k: int) -> tuple[Session, list[int], GenerationConfig]:
        """What a trial struck at iteration ``k >= 1`` still has to do:
        decode the returned session under the returned config (the
        budget left after ``prefix``) and prepend ``prefix``.

        An unreached strike (``k > len(ids)``) resumes at the run's last
        state, whose logits pick EOS: the decode returns at once and
        ``prefix`` is the whole prediction."""
        greedy = self.config.num_beams == 1
        j = min(k - 1, len(self.ids)) if greedy else 0
        tel = _telemetry()
        if tel.active:
            tel.metrics.counter("campaign.golden.replayed_tokens").add(j)
            if greedy and k > len(self.ids):
                tel.metrics.counter("campaign.golden.unreached").add()
        recorder = _flight()
        if recorder.active:
            recorder.annotate(resumed_at=j)
        budget = self.config.max_new_tokens - j
        return (
            self.rewind(j),
            self.ids[:j],
            replace(self.config, max_new_tokens=budget),
        )
