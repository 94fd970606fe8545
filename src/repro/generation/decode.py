"""Decoding strategies: greedy search, beam search, option scoring.

The paper's generation settings (§3.3.4) use HuggingFace ``generate()``
with sampling disabled; greedy search is ``num_beams=1``.  Beam search
maintains ``num_beams`` candidate sequences ranked by cumulative
(length-normalized) log-probability — the mechanism behind
Observation #9: an isolated corrupted token tanks one hypothesis'
cumulative probability and the search shifts to an unaffected path.
:func:`beam_search_decode` is one loop over pooled KV slots whose
candidate rule is written once; its only fork is how the hypotheses
that gained a token step — one 1-D forward each (the reference) or one
batched step over the same rows, bit for bit the same.

Multiple-choice tasks are scored, not generated: each option is
appended to the prompt and the option tokens' summed log-likelihood
ranks the candidates (§3.3.2).  :func:`score_options` is the reference
for that: one full forward per option, exact under any armed fault.
The one faster scorer is a campaign's, one level up: the row-exact
option rows of :class:`repro.fi.golden.GoldenOptions`, ``array_equal``
to this reference option by option.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.autograd.functional import log_softmax_np
from repro.generation.round import count_plan, decode_plan
from repro.inference.engine import InferenceEngine
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
    strategy: str = "auto",
    draft: InferenceEngine | None = None,
    speculation_depth: int = 4,
) -> list[int]:
    """Argmax decoding; returns generated ids (without the prompt/EOS).

    ``strategy`` is ``auto`` or ``serial``.  ``serial`` is the per-token
    reference loop below.  ``auto`` asks
    :func:`~repro.generation.round.decode_plan` once: draft-and-verify
    rounds of ``speculation_depth`` proposals when a ``draft`` is given
    and nothing but observers is armed
    (:meth:`~repro.generation.speculative.SpeculativeDecoder.speculate`,
    counted ``decode.plan.composed.<reason>``), else the reference loop
    — one sequence has nothing to batch — counted
    ``decode.plan.serial.<reason>``.
    """
    if strategy == "auto":
        path, reason = decode_plan(engine, draft)
        if path == "composed":
            from repro.generation.speculative import SpeculativeDecoder

            count_plan(path, reason)
            return SpeculativeDecoder(
                engine, draft, config, speculation_depth=speculation_depth
            ).speculate(prompt_ids)
        count_plan("serial", reason)
    elif strategy != "serial":
        raise ValueError(f"unknown decode strategy {strategy!r}")
    # The serial reference loop — kept on purpose: it is what the
    # differential oracle and every equivalence test compare against.
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


def beam_search_decode(
    engine: InferenceEngine,
    prompt_ids: list[int],
    config: GenerationConfig,
    strategy: str = "auto",
) -> list[int]:
    """Standard beam search with length normalization.

    A hypothesis is ``(tokens, score, slot)``: its emitted ids, its
    summed log-probability and the slot of one ``2k``-slot
    :class:`~repro.inference.kvcache.PooledKVCache` its K/V lives in —
    ``None`` once EOS finished it (EOS is not emitted).  The prompt is
    forwarded into the root slot.  Each round ranks the ``k`` best
    extensions of every live hypothesis and every finished one as it
    stands by length-normalized score, keeps the best ``k`` in a stable
    sort and forks lazily: the first kept extension of a hypothesis
    inherits its slot, a later one copies the filled prefix into a fresh
    slot (:meth:`~repro.inference.kvcache.PooledKVCache.copy_slot`), and
    a slot no extension kept is released.

    The only fork is how the hypotheses that gained a token step.
    ``serial`` — the reference, and ``auto`` whenever
    :func:`~repro.generation.round.decode_plan` says ``serial`` (a weight
    fault swapped in engine-wide, unscoped hooks) — runs one 1-D
    :meth:`~InferenceEngine.forward` per hypothesis in beam order.
    ``auto`` under a ``batched`` plan runs one
    :meth:`~InferenceEngine.forward_step_batch` over the same rows in the
    same order; its rows are row-exact, so both give the same bits.
    """
    if strategy == "auto":
        path, reason = decode_plan(engine)
        count_plan(path, reason)
        batched = path == "batched"
    elif strategy == "serial":
        batched = False
    else:
        raise ValueError(f"unknown decode strategy {strategy!r}")
    k = config.num_beams
    tel = _telemetry()
    pool = engine.new_pool(2 * k)
    root = pool.acquire()
    last_logits = {root: engine.forward(prompt_ids, pool.caches(root), 0, 0)[-1]}

    def normalized(score: float, length: int) -> float:
        return score / max(1, length) ** config.length_penalty

    beams: list[tuple[list[int], float, int | None]] = [([], 0.0, root)]
    for step in range(1, config.max_new_tokens + 1):
        candidates = []
        for beam in beams:
            tokens, score, slot = beam
            if slot is None:
                candidates.append((normalized(score, len(tokens)), beam, -1, score))
                continue
            logp = log_softmax_np(
                np.nan_to_num(last_logits[slot], nan=-1e9, posinf=1e9, neginf=-1e9)
            )
            for token in np.argpartition(logp, -k)[-k:]:
                total = score + float(logp[token])
                candidates.append(
                    (normalized(total, len(tokens) + 1), beam, int(token), total)
                )
        candidates.sort(key=lambda c: c[0], reverse=True)
        next_beams = []
        inherited: set[int] = set()
        for _, beam, token, total in candidates[:k]:
            tokens, _, slot = beam
            if token == -1:
                next_beams.append(beam)
            elif token == config.eos_id:
                next_beams.append((tokens, total, None))
            else:
                if slot in inherited:
                    child = pool.acquire()
                    pool.copy_slot(slot, child)
                else:
                    inherited.add(slot)
                    child = slot
                next_beams.append(([*tokens, token], total, child))
        for _, _, slot in beams:
            if slot is not None and slot not in inherited:
                pool.release(slot)
        beams = next_beams
        live = [(tokens[-1], slot) for tokens, _, slot in beams if slot is not None]
        if not live:
            # Every hypothesis is finished: later rounds would only
            # re-rank the same finished candidates.
            break
        # Every live hypothesis holds ``step`` tokens now.
        at, it = len(prompt_ids) + step - 1, step
        if batched:
            if tel.active:
                tel.metrics.histogram("decode.batch_occupancy").observe(len(live))
            rows = engine.forward_step_batch(
                [token for token, _ in live],
                [pool.caches(slot) for _, slot in live],
                [at] * len(live),
                [it] * len(live),
            )
        else:
            rows = [
                engine.forward([token], pool.caches(slot), at, it)[-1]
                for token, slot in live
            ]
        for (_, slot), row in zip(live, rows):
            last_logits[slot] = row
    best = max(beams, key=lambda b: normalized(b[1], len(b[0])))
    return best[0]


def generate_ids(
    engine: InferenceEngine,
    prompt_ids: list[int],
    config: GenerationConfig,
    strategy: str = "auto",
) -> list[int]:
    """Dispatch to greedy or beam decoding based on ``num_beams``, from
    the prompt.  ``strategy`` is forwarded to the decoder (``auto`` or
    ``serial``, see :func:`greedy_decode`).
    """
    decoder = greedy_decode if config.num_beams == 1 else beam_search_decode
    tel = _telemetry()
    if not tel.active:
        return decoder(engine, prompt_ids, config, strategy=strategy)
    t0 = time.perf_counter()
    with tel.span(
        "decode.generate",
        num_beams=config.num_beams,
        prompt_tokens=len(prompt_ids),
        strategy=strategy,
    ) as span:
        out = decoder(engine, prompt_ids, config, strategy=strategy)
        span.set(new_tokens=len(out))
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    metrics = tel.metrics
    metrics.histogram("decode.generate_ms").observe(elapsed_ms)
    metrics.counter("decode.calls").add()
    metrics.counter("decode.tokens").add(len(out))
    return out


def option_logp(
    logits: np.ndarray,
    starts: list[int],
    options: list[list[int]],
    rows: list[int] | None = None,
) -> list[float]:
    """Summed log-likelihood of each option: row ``rows[i]`` (default
    ``i``) of the ``(rows, window, vocab)`` block ``logits`` predicts
    ``options[i]`` from window position ``starts[i]`` on, one position
    per token.  Several options may read one row: the options of a class
    (:mod:`repro.fi.golden`) are scored off their leader's row.

    The one spelling both option-scoring paths share — the per-option
    reference (one row) and a campaign's rows forward
    (:mod:`repro.fi.golden`) — so their scores cannot drift apart:
    non-finite logits (a corrupted run's) clamped and the log-softmax
    taken once over the block, every position on its own, then each
    option's per-token terms summed in float32.
    """
    logp = log_softmax_np(
        np.nan_to_num(logits, nan=-1e9, posinf=1e9, neginf=-1e9), axis=-1
    )
    return [
        float(logp[row, np.arange(start, start + len(option)), option].sum())
        for row, start, option in zip(
            range(len(options)) if rows is None else rows, starts, options
        )
    ]


def score_continuation(
    engine: InferenceEngine, prompt_ids: list[int], option_ids: list[int]
) -> float:
    """Summed log-likelihood of ``option_ids`` following ``prompt_ids``.

    One full forward over ``prompt + option``.  It is exact under any
    active fault injection: a one-shot computational fault strikes
    exactly one option's forward, as on real hardware.
    """
    if not option_ids:
        raise ValueError("option must contain at least one token")
    logits = engine.forward_full([*prompt_ids, *option_ids])
    start = len(prompt_ids) - 1
    return option_logp(logits[None, start:], [0], [option_ids])[0]


def score_options(
    engine: InferenceEngine,
    prompt_ids: list[int],
    options_ids: list[list[int]],
) -> list[float]:
    """Per-option summed log-likelihood of each option after the prompt:
    :func:`score_continuation` per option, in order — the reference,
    which pays the prompt FLOPs once *per option*.

    What a fault cannot reach is shared one level up, never here: an
    ``auto`` campaign scores its fault-free baseline and its weight- or
    computational-fault trials from its example's golden option pass,
    as rows of row-exact forwards that other trials' rows share, each
    trial's fault keyed to its own rows
    (:class:`repro.fi.golden.GoldenOptions`) — ``array_equal`` to this
    list, option by option.  Options that differ only in their last
    token share one row there: that token reaches the positions their
    scores read only through a masked attention entry, whose weight is
    exactly 0 and whose value is finite while every score stays below
    ``1e8`` and every activation below ``1e15`` — a norm bound
    (:class:`repro.fi.golden.MaskBounds`) proves it per struck element,
    and a trial it does not admit runs one row per option.
    """
    if not options_ids:
        raise ValueError("need at least one option to score")
    return [score_continuation(engine, prompt_ids, option) for option in options_ids]


def choose_option(
    engine: InferenceEngine,
    prompt_ids: list[int],
    options_ids: list[list[int]],
) -> int:
    """Index of the highest-likelihood option (multiple-choice answer)."""
    tel = _telemetry()
    with tel.span(
        "decode.choose_option",
        options=len(options_ids),
        prompt_tokens=len(prompt_ids),
    ):
        scores = score_options(engine, prompt_ids, options_ids)
    if tel.active:
        tel.metrics.counter("decode.option_scores").add(len(options_ids))
    return int(np.argmax(scores))
