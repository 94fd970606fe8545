"""Decoding strategies: greedy search, beam search, option scoring.

The paper's generation settings (§3.3.4) use HuggingFace ``generate()``
with sampling disabled; greedy search is ``num_beams=1``.  Beam search
maintains ``num_beams`` candidate sequences ranked by cumulative
(length-normalized) log-probability — the mechanism behind
Observation #9: an isolated corrupted token tanks one hypothesis'
cumulative probability and the search shifts to an unaffected path.

Multiple-choice tasks are scored, not generated: each option is
appended to the prompt and the option tokens' summed log-likelihood
ranks the candidates (§3.3.2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.autograd.functional import log_softmax_np
from repro.generation.round import count_plan, decode_plan
from repro.inference.engine import InferenceEngine, Session
from repro.obs.runtime import telemetry as _telemetry

__all__ = [
    "GenerationConfig",
    "greedy_decode",
    "beam_search_decode",
    "generate_ids",
    "option_logp",
    "score_continuation",
    "score_options",
    "choose_option",
]


@dataclass(frozen=True)
class GenerationConfig:
    """Decoding hyperparameters (mirrors the paper's generate() settings)."""

    max_new_tokens: int = 32
    num_beams: int = 1
    length_penalty: float = 1.0
    eos_id: int = 2

    def __post_init__(self) -> None:
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.num_beams < 1:
            raise ValueError("num_beams must be >= 1")


def greedy_decode(
    engine: InferenceEngine,
    prompt_ids: list[int],
    config: GenerationConfig,
    session: Session | None = None,
    strategy: str = "auto",
    draft: InferenceEngine | None = None,
    speculation_depth: int = 4,
) -> list[int]:
    """Argmax decoding; returns generated ids (without the prompt/EOS).

    ``session`` optionally supplies an already-prefilled session for
    ``prompt_ids`` (e.g. a clone of a cached fault-free prefill); it is
    consumed — the caller must not reuse it afterwards.

    ``strategy`` is ``auto`` or ``serial``.  ``serial`` is the per-token
    reference loop below.  ``auto`` asks
    :func:`~repro.generation.round.decode_plan` once and runs what it
    names: draft-and-verify rounds of ``speculation_depth`` proposals
    when a ``draft`` is given and nothing but observers is armed
    (:class:`~repro.generation.speculative.SpeculativeDecoder`), else a
    width-1 batch through
    :class:`~repro.generation.batched.BatchedDecoder` (bit-identical to
    the reference, as every row of a batch is), else the reference loop.
    """
    if strategy == "auto":
        path, reason = decode_plan(engine, draft)
        count_plan(path, reason)
        if path == "composed":
            from repro.generation.speculative import SpeculativeDecoder

            return SpeculativeDecoder(
                engine, draft, config, speculation_depth=speculation_depth
            ).speculate(prompt_ids, session=session)
        if path == "batched":
            from repro.generation.batched import BatchedDecoder

            return BatchedDecoder(engine, config, max_batch=1).decode_planned(
                path, [prompt_ids], [session]
            )[0]
    elif strategy != "serial":
        raise ValueError(f"unknown decode strategy {strategy!r}")
    # The serial reference loop — kept on purpose: it is what the
    # differential oracle and every equivalence test compare against.
    if session is None:
        session = engine.start_session(prompt_ids)
    out: list[int] = []
    logits = session.last_logits
    for _ in range(config.max_new_tokens):
        # NaN-safe argmax: corrupted runs can produce all-NaN logits,
        # which we map to EOS-free garbage deterministically.  The
        # exceptional branch costs nothing on healthy logits — unlike a
        # per-token full-vocab isnan scan.
        try:
            token = int(np.nanargmax(logits))
        except ValueError:  # all-NaN logits
            token = 0
        if token == config.eos_id:
            break
        out.append(token)
        logits = session.step(token)
    return out


@dataclass
class _Beam:
    session: Session
    tokens: list[int]
    score: float
    finished: bool

    def normalized(self, length_penalty: float) -> float:
        length = max(1, len(self.tokens))
        return self.score / length**length_penalty


def beam_search_decode(
    engine: InferenceEngine,
    prompt_ids: list[int],
    config: GenerationConfig,
    session: Session | None = None,
    strategy: str = "auto",
) -> list[int]:
    """Standard beam search with length normalization.

    ``session`` optionally supplies a pre-built prefill for
    ``prompt_ids`` (consumed, like :func:`greedy_decode`).

    ``strategy='auto'`` runs the ``k`` beams as batch rows over a pooled
    KV cache whenever :func:`~repro.generation.round.decode_plan` allows
    batching — one batched forward per round, copy-on-fork instead of
    per-beam cache clones; ``serial`` is the per-session reference loop
    below.
    """
    if strategy == "auto":
        path, reason = decode_plan(engine)
        count_plan(path, reason)
        if path == "batched":
            from repro.generation.batched import BatchedDecoder

            return BatchedDecoder(engine, config).beam_batched(
                prompt_ids, session=session
            )
    elif strategy != "serial":
        raise ValueError(f"unknown decode strategy {strategy!r}")
    k = config.num_beams
    root = session if session is not None else engine.start_session(prompt_ids)
    beams = [_Beam(root, [], 0.0, False)]
    for _ in range(config.max_new_tokens):
        # Stop as soon as every hypothesis is finished — later rounds
        # would only re-rank the same finished candidates.
        if all(b.finished for b in beams):
            break
        candidates: list[tuple[float, _Beam, int, float]] = []
        for beam in beams:
            if beam.finished:
                candidates.append(
                    (beam.normalized(config.length_penalty), beam, -1, beam.score)
                )
                continue
            logp = log_softmax_np(
                np.nan_to_num(
                    beam.session.last_logits, nan=-1e9, posinf=1e9, neginf=-1e9
                )
            )
            top = np.argpartition(logp, -k)[-k:]
            for token in top:
                score = beam.score + float(logp[token])
                length = max(1, len(beam.tokens) + 1)
                candidates.append(
                    (score / length**config.length_penalty, beam, int(token), score)
                )
        candidates.sort(key=lambda c: c[0], reverse=True)
        next_beams: list[_Beam] = []
        forks: dict[int, int] = {}
        for norm_score, beam, token, raw_score in candidates:
            if len(next_beams) == k:
                break
            if token == -1:
                next_beams.append(beam)
                continue
            # Fork lazily: the first extension of a beam reuses its
            # session; later extensions need a cache copy.
            uses = forks.get(id(beam), 0)
            forks[id(beam)] = uses + 1
            session = beam.session if uses == 0 else beam.session.fork()
            new = _Beam(session, [*beam.tokens, token], raw_score, False)
            if token == config.eos_id:
                new.tokens = beam.tokens  # EOS terminates, not emitted
                new.finished = True
            next_beams.append(new)
        # Advance the sessions of unfinished beams that gained a token.
        # (Do it after selection, and handle shared sessions: when one
        # base beam spawned several children the *first* child kept the
        # original session, so it must step before forks are stale.)
        beams = next_beams
        for beam in beams:
            if not beam.finished and beam.tokens:
                if beam.session.position == len(prompt_ids) + len(beam.tokens) - 1:
                    beam.session.step(beam.tokens[-1])
    best = max(beams, key=lambda b: b.normalized(config.length_penalty))
    return best.tokens


def generate_ids(
    engine: InferenceEngine,
    prompt_ids: list[int],
    config: GenerationConfig,
    session: Session | None = None,
    strategy: str = "auto",
    draft: InferenceEngine | None = None,
    speculation_depth: int = 4,
) -> list[int]:
    """Dispatch to greedy or beam decoding based on ``num_beams``.

    ``session``, when given, must be a prefilled session for
    ``prompt_ids`` (it is consumed).  Where no draft proposes (the
    width-1 round and the serial loop, all an injected trial takes) a
    greedy session may already be ``session.iteration`` steps past the
    prompt: decoding continues
    from there, ``config.max_new_tokens`` is the budget that is left
    and only the new ids are returned — how campaigns resume a trial
    from its example's golden run (:mod:`repro.fi.golden`) instead of
    re-decoding the fault-free prefix.  ``strategy`` is forwarded to
    the decoder (``auto`` or ``serial``, see :func:`greedy_decode`).
    ``draft`` and
    ``speculation_depth`` enable draft-and-verify greedy decoding; beam
    search ignores the draft (speculation is greedy-only).
    """
    if config.num_beams == 1:
        def decode(**kw):
            return greedy_decode(
                engine, prompt_ids, config,
                draft=draft, speculation_depth=speculation_depth, **kw,
            )
    else:
        def decode(**kw):
            return beam_search_decode(engine, prompt_ids, config, **kw)
    tel = _telemetry()
    if not tel.active:
        return decode(session=session, strategy=strategy)
    t0 = time.perf_counter()
    with tel.span(
        "decode.generate",
        num_beams=config.num_beams,
        prompt_tokens=len(prompt_ids),
        prefilled=session is not None,
        strategy=strategy,
    ) as span:
        out = decode(session=session, strategy=strategy)
        span.set(new_tokens=len(out))
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    metrics = tel.metrics
    metrics.histogram("decode.generate_ms").observe(elapsed_ms)
    metrics.counter("decode.calls").add()
    metrics.counter("decode.tokens").add(len(out))
    return out


def _clean_logp(logits: np.ndarray) -> np.ndarray:
    """Log-softmax with non-finite logits (a corrupted run's) clamped."""
    return log_softmax_np(
        np.nan_to_num(logits, nan=-1e9, posinf=1e9, neginf=-1e9), axis=-1
    )


def option_logp(logits: np.ndarray, option_ids: list[int]) -> float:
    """Summed log-likelihood of ``option_ids`` given the ``(len(option_ids),
    vocab)`` logits that predict them, one row per token.

    The one spelling every option-scoring path shares — the per-option
    reference, the shared-prefix tails and a campaign's rows forward
    (:mod:`repro.fi.golden`) — so their scores cannot drift apart: the
    per-token terms of the clamped log-softmax, summed in float32.
    """
    return float(_clean_logp(logits)[np.arange(len(option_ids)), option_ids].sum())


def score_continuation(
    engine: InferenceEngine, prompt_ids: list[int], option_ids: list[int]
) -> float:
    """Summed log-likelihood of ``option_ids`` following ``prompt_ids``.

    This is the unshared reference path: one full forward over
    ``prompt + option``.  It is exact under any active fault injection
    (a one-shot computational fault strikes exactly one option's
    forward, as on real hardware) and is what :func:`score_options`
    runs per option whenever anything but pure observers is armed.
    """
    if not option_ids:
        raise ValueError("option must contain at least one token")
    logits = engine.forward_full([*prompt_ids, *option_ids])
    start = len(prompt_ids) - 1
    return option_logp(logits[start : start + len(option_ids)], option_ids)


def score_options(
    engine: InferenceEngine,
    prompt_ids: list[int],
    options_ids: list[list[int]],
    strategy: str = "auto",
) -> list[float]:
    """Per-option summed log-likelihood of each option after the prompt.

    ``strategy`` is ``auto`` or ``full``:

    * ``full`` — the reference path: one ``forward_full(prompt+option)``
      per option (pays the prompt FLOPs once *per option*).
    * ``auto`` — prefill the prompt once and run all options as one
      ``(B, t)`` forward against the shared read-only prefix, whenever
      :func:`~repro.generation.round.decode_plan` finds nothing but
      pure observers armed (reason ``clean`` or ``observer_hooks`` — the
      speculation bar: sharing the prompt forward changes which
      computation a fault or a capture would see); else ``full``.  The
      choice is counted as ``decode.plan.shared_prefix.<reason>`` or
      ``decode.plan.per_option.<reason>``.

    Both agree on fault-free engines up to float-associativity (chunked
    vs. full matmuls); the argmax option is stable in practice and
    asserted identical by the equivalence tests.

    Under an armed fault this function never shares anything.  What a
    fault cannot reach *is* shared one level up: an ``auto`` campaign
    scores a weight- or computational-fault trial from its example's
    fault-free pass, as rows of one row-exact forward that starts at
    the struck block (:class:`repro.fi.golden.GoldenOptions`) —
    ``array_equal`` to ``full`` here, option by option.
    """
    if not options_ids:
        raise ValueError("need at least one option to score")
    for option in options_ids:
        if not option:
            raise ValueError("option must contain at least one token")
    if strategy == "auto":
        reason = decode_plan(engine)[1]
        shared = reason in ("clean", "observer_hooks")
        count_plan("shared_prefix" if shared else "per_option", reason)
    elif strategy == "full":
        shared = False
    else:
        raise ValueError(f"unknown option-scoring strategy {strategy!r}")
    if not shared:
        return [
            score_continuation(engine, prompt_ids, option)
            for option in options_ids
        ]

    session = engine.start_session(prompt_ids)
    prompt_len = len(prompt_ids)
    # Every option's first token is predicted by the one prompt forward.
    first_logp = _clean_logp(session.last_logits)
    scores = [float(first_logp[option[0]]) for option in options_ids]
    # Only tokens whose *output* is read need a forward: feeding
    # option[:-1] produces the rows predicting option[1:].
    tails = [option[:-1] for option in options_ids]
    longest = max(len(tail) for tail in tails)
    if longest == 0:
        return scores

    # Rectangular chunk, right-padded.  Padded rows are causal
    # successors of every real row, so they never influence the scored
    # positions; their outputs are simply ignored.
    chunk = np.zeros((len(options_ids), longest), dtype=np.int64)
    for i, tail in enumerate(tails):
        chunk[i, : len(tail)] = tail
    logits = engine.forward(
        chunk, session.caches, start_pos=prompt_len, iteration=0
    )
    tel = _telemetry()
    if tel.active:
        tel.metrics.histogram("decode.option_batch_size").observe(
            len(options_ids)
        )
    for i, (option, tail) in enumerate(zip(options_ids, tails)):
        if not tail:
            continue
        scores[i] += option_logp(logits[i, : len(tail)], option[1:])
    return scores


def choose_option(
    engine: InferenceEngine,
    prompt_ids: list[int],
    options_ids: list[list[int]],
    strategy: str = "auto",
) -> int:
    """Index of the highest-likelihood option (multiple-choice answer)."""
    tel = _telemetry()
    with tel.span(
        "decode.choose_option",
        options=len(options_ids),
        prompt_tokens=len(prompt_ids),
        strategy=strategy,
    ):
        scores = score_options(engine, prompt_ids, options_ids, strategy)
    if tel.active:
        tel.metrics.counter("decode.option_scores").add(len(options_ids))
    return int(np.argmax(scores))
