"""Golden runs: a campaign's one fault-free pass per example — its
baseline, and the computation an injected trial reuses.

Two of them, one per axis a fault cannot travel along.  A transient
fault cannot reach *earlier iterations*: :class:`GoldenRun` is the
fault-free decode a generative trial resumes from.  No fault can reach
*earlier blocks*, and a one-shot fault cannot reach the option forwards
after the one it fired in: :class:`GoldenOptions` is the fault-free
scoring pass a multiple-choice trial resumes from.

**Generative trials.**

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

**Any width.**  The runs a campaign needs are decoded together, as rows
of one :class:`~repro.generation.round.DecodeRound`.  The engine's
batched entries are row-exact, so each row's logits and K/V are the bits
a ``Session.step`` loop over that prompt alone produces — and the bits
of the round an injected trial continues in, whatever else shares its
forwards.

**Unreached strikes.**  When the run ended at EOS after ``n`` tokens the
forwards tagged ``1..n`` exist and no other; a strike at ``k > n`` never
fires, so that trial *is* the golden run and needs no forward at all.

**Who owns a pass.**  The engine it was computed on, not the campaign
that happened to compute it: a study sweeps every (model, task) pair
under several fault models, and the cells of one pair — same engine,
same weights, same examples, same decoding config — would decode the
same passes again.  :data:`_SHARED` keeps, per engine and weakly keyed
by it, the *one* example set its latest campaign swept
(:class:`SharedBaseline`: the passes, the baseline read off them and the
scores that seed ``FICampaign._scored``) under a key of everything they
are a function of (:func:`weights_digest`, every example's token ids,
the ``GenerationConfig``, what the scores were computed against).
:func:`take_shared` hands a campaign with the same key the entry and drops
one with another key *before* that campaign decodes its own, so an
engine never has more than one example set resident.  Passes are
immutable once built and shared read-only (a rewind writes into caches
the caller hands it); :func:`forget` drops an engine's entry for a cold
baseline.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, replace

import numpy as np

from repro.generation.decode import GenerationConfig, option_logp
from repro.generation.round import (
    DecodeRound,
    _by_length,
    count_plan,
    decode_plan,
    decode_to_completion,
)
from repro.inference.engine import InferenceEngine, Session
from repro.inference.kvcache import KVCache, PooledKVCache
from repro.obs.flight import flight_recorder as _flight
from repro.obs.runtime import telemetry as _telemetry

__all__ = ["GoldenRun", "GoldenOptions", "SharedBaseline", "forget"]


@dataclass(eq=False)
class GoldenRun:
    """One example's fault-free run, restorable at any ``S_j`` on any
    engine over the weights it was decoded with (a pool worker's)."""

    config: GenerationConfig
    prompt: list[int]
    ids: list[int]
    logits: list[np.ndarray]
    """``logits[j]`` is forward ``j``'s output; ``len(ids)`` entries,
    plus the EOS-producing one when the run ended at EOS."""
    snaps: list[tuple[np.ndarray, np.ndarray, int]]
    """One full-length K/V snapshot per block.  Like every field, never
    written after the build: campaigns share a run (:data:`_SHARED`)."""

    @classmethod
    def decode_many(
        cls,
        engine: InferenceEngine,
        prompts: list[list[int]],
        config: GenerationConfig,
        pool: PooledKVCache | None = None,
    ) -> "list[GoldenRun]":
        """Prefill every prompt and, for a greedy ``config``, decode it
        to the end as a ``DecodeRound`` row: EOS is not emitted and a
        full budget retires without a final forward.  Beam-search trials
        resume at ``S_0`` only, so theirs stop at the prompt forward.

        The rows share forwards, as many at a time as ``pool`` (default:
        one slot) has free slots; freed slots are back-filled.
        """
        greedy = config.num_beams == 1
        if pool is None:
            pool = engine.new_pool(1)
        logits: list[list[np.ndarray]] = [[] for _ in prompts]
        runs: list = [None] * len(prompts)

        def keep(row, reason) -> None:
            logits[row.key].append(row.logits[-1])
            if reason is not None:
                # The round has released the slot, but nothing acquires
                # one before this returns: its views still hold the run.
                runs[row.key] = cls(
                    config, row.prompt, row.out if greedy else [],
                    logits[row.key], [c.snapshot() for c in row.caches],
                )

        decode_to_completion(
            DecodeRound(engine, pool, config.eos_id),
            prompts,
            [None] * len(prompts),
            config.max_new_tokens if greedy else 1,
            pool.n_slots,
            on_event=keep,
        )
        tel = _telemetry()
        if tel.active:
            tel.metrics.counter("campaign.golden.builds").add(len(runs))
        return runs

    @classmethod
    def decode(
        cls, engine: InferenceEngine, prompt: list[int], config: GenerationConfig
    ) -> "GoldenRun":
        """:meth:`decode_many` of one prompt."""
        return cls.decode_many(engine, [prompt], config)[0]

    def rewind(
        self, engine: InferenceEngine, j: int, caches: list[KVCache]
    ) -> Session:
        """A session of ``engine`` at ``S_j`` over ``caches``, rewound
        in place: a wave row's pool slot, several trials of one example
        being in flight at once, or the scratch caches a campaign keeps
        for the trials it runs alone.  The run keeps nothing of it: the
        session is consumed by the decode it is handed to."""
        session = _blank_session(engine, caches)
        length = len(self.prompt) + j
        for cache, snap in zip(session.caches, self.snaps):
            cache.restore(snap, length)
        session.iteration = j
        session.position = length
        session.last_logits = self.logits[j].copy()
        return session

    def resume(
        self, engine: InferenceEngine, k: int, caches: list[KVCache]
    ) -> tuple[Session, list[int], GenerationConfig]:
        """What a trial struck at iteration ``k >= 1`` still has to do:
        decode the returned session (see :meth:`rewind` for ``caches``)
        under the returned config (the budget left after ``prefix``) and
        prepend ``prefix``.

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
            self.rewind(engine, j, caches),
            self.ids[:j],
            replace(self.config, max_new_tokens=budget),
        )


def _blank_session(engine: InferenceEngine, caches: list[KVCache]) -> Session:
    """A :class:`Session` over ``caches`` with no forward run: its
    decode state is whatever the caller restores into it."""
    session = Session.__new__(Session)
    session.engine = engine
    session.caches = caches
    return session


def _score_rows(
    engine: InferenceEngine,
    pool: PooledKVCache,
    prompt: list[int],
    options: list[list[int]],
    **forward_kw,
) -> list[float]:
    """Score equally long ``options`` as rows ``prompt + option`` of one
    ``forward_chunk_batch`` from position 0, each row over a pool slot of
    its own.  The batched entry is row-exact, so row ``i`` is
    ``forward_full(prompt + options[i])`` bit for bit, whatever is armed
    on the engine."""
    slots: list[int] = []
    try:
        for _ in options:
            slots.append(pool.acquire())
        zeros = [0] * len(options)
        logits = engine.forward_chunk_batch(
            [prompt + option for option in options],
            [pool.caches(slot) for slot in slots],
            zeros, zeros, **forward_kw,
        )
    finally:
        for slot in slots:
            pool.release(slot)
    start = len(prompt) - 1
    return [
        option_logp(logits[row, start : start + len(option)], option)
        for row, option in enumerate(options)
    ]


def _by_option(groups: list[list[int]], per_group: list[list[float]]) -> list[float]:
    """Per-group score lists back in option order."""
    scores = [0.0] * sum(len(group) for group in groups)
    for group, rows in zip(groups, per_group):
        for i, score in zip(group, rows):
            scores[i] = score
    return scores


@dataclass(eq=False)
class GoldenOptions:
    """One multiple-choice example's fault-free scoring pass.

    The options of equal token length are one *group*: rows of one
    forward (at most a pool's width of them).  Kept per group: the
    hidden state that entered blocks ``1..n-1`` (block 0's input is the
    embedding gather, not worth keeping), and per option its score.  A
    fault in block ``L`` leaves every block before it computing exactly
    this pass, so a trial runs each group from block ``L`` on
    (:meth:`rescore`); a one-shot computational fault also leaves the
    option forwards it does not fire in untouched, so a trial recomputes
    single rows (:meth:`rescore_option`) and keeps the golden
    :attr:`scores` of the rest.
    """

    prompt: list[int]
    options: list[list[int]]
    groups: list[list[int]]
    """Option indices of each rows forward."""
    hidden: list[list[np.ndarray]]
    """``hidden[g][b - 1]``: the ``(rows, t, d_model)`` input of block
    ``b`` in group ``g``'s forward."""
    scores: list[float]

    @classmethod
    def build(
        cls,
        engine: InferenceEngine,
        prompt: list[int],
        options: list[list[int]],
        pool: PooledKVCache,
    ) -> "GoldenOptions":
        """Score every option on ``engine``, which must be pristine: a
        fault baked into this pass would be taken for fault-free by
        every trial that reuses it."""
        reason = decode_plan(engine)[1]
        if reason not in ("clean", "observer_hooks"):
            raise RuntimeError(
                f"golden option pass needs a pristine engine, found {reason}"
            )
        count_plan("option_rows", reason)
        groups = [
            same[at : at + pool.n_slots]
            for same in _by_length(range(len(options)), lambda i: len(options[i]))
            for at in range(0, len(same), pool.n_slots)
        ]
        inputs: list[list[np.ndarray]] = [[] for _ in groups]
        scores = _by_option(groups, [
            _score_rows(
                engine, pool, prompt, [options[i] for i in group],
                block_inputs=kept,
            )
            for group, kept in zip(groups, inputs)
        ])
        hidden = [
            [x.reshape(len(group), -1, x.shape[-1]) for x in kept[1:]]
            for group, kept in zip(groups, inputs)
        ]
        tel = _telemetry()
        if tel.active:
            tel.metrics.counter("campaign.mc_golden.builds").add()
        return cls(prompt, options, groups, hidden, scores)

    def _rescore(
        self,
        engine: InferenceEngine,
        pool: PooledKVCache,
        first_block: int,
        g: int,
        rows: slice,
    ) -> list[float]:
        """Scores of ``groups[g][rows]`` under whatever is armed on
        ``engine`` now — which must not reach a block below
        ``first_block`` — computed from the golden state entering it."""
        resume = None
        if first_block:
            state = self.hidden[g][first_block - 1][rows]
            resume = (first_block, state.reshape(-1, state.shape[-1]))
        return _score_rows(
            engine, pool, self.prompt,
            [self.options[i] for i in self.groups[g][rows]],
            resume=resume,
        )

    def rescore(
        self, engine: InferenceEngine, pool: PooledKVCache, first_block: int
    ) -> list[float]:
        """Every option's score, one forward of blocks
        ``first_block..n-1`` per group."""
        return _by_option(self.groups, [
            self._rescore(engine, pool, first_block, g, slice(None))
            for g in range(len(self.groups))
        ])

    def rescore_option(
        self, engine: InferenceEngine, pool: PooledKVCache, first_block: int,
        option: int,
    ) -> float:
        """One option's score: its row alone, from ``first_block`` on."""
        g, row = next(
            (g, group.index(option))
            for g, group in enumerate(self.groups)
            if option in group
        )
        return self._rescore(engine, pool, first_block, g, slice(row, row + 1))[0]


# ----------------------------------------------------------------------------
# One fault-free pass per engine and example set.
# ----------------------------------------------------------------------------


@dataclass(eq=False)
class SharedBaseline:
    """What a baseline sweep leaves with its engine for the next
    campaign over the same weights, examples and decoding config."""

    key: tuple
    passes: "list[GoldenRun] | list[GoldenOptions]"
    preds: list
    metrics: dict
    scored: dict
    """The ``FICampaign._scored`` seeds: ``(idx, text) -> (metrics,
    outcome)`` of every baseline prediction."""


_SHARED: "weakref.WeakKeyDictionary[InferenceEngine, SharedBaseline]" = (
    weakref.WeakKeyDictionary()
)
"""Engine -> its single entry.  Weakly keyed, and nothing in an entry
refers to the engine, so the passes go when the engine does.  One entry,
not a table: a study visits a (model, task) pair's fault-model cells
back to back, and a second resident example set would be memory no
campaign holds today."""


def weights_digest(engine: InferenceEngine) -> bytes:
    """A content hash of every faultable weight as the forward reads it.

    A pass must never outlive the weights it was decoded on.  A write
    epoch on :class:`~repro.inference.storage.WeightStore` would miss the
    writers that bypass it (``mitigation/weight_guard.py`` zeroes
    ``store.array`` elements directly), so the key is the content: about
    half a millisecond per 0.65 MB of stores, against the tens a sweep
    costs.  Norm gains, embeddings and the head are fault-free by
    construction (no store, no injector, no guard writes them)."""
    digest = hashlib.sha256()
    for name in engine.linear_layer_names():
        digest.update(np.ascontiguousarray(engine.weight_store(name).array))
    return digest.digest()


def take_shared(engine: InferenceEngine, key: tuple) -> SharedBaseline | None:
    """``engine``'s entry when it was swept under ``key``.  An entry
    under another key is dropped here, before the caller decodes its own
    passes, so never two example sets are resident on one engine."""
    entry = _SHARED.get(engine)
    if entry is None:
        return None
    if entry.key != key:
        del _SHARED[engine]
        return None
    return entry


def leave_shared(engine: InferenceEngine, entry: SharedBaseline) -> None:
    """Leave ``entry`` with ``engine``, in place of whatever it held."""
    _SHARED[engine] = entry


def forget(engine: InferenceEngine) -> None:
    """Drop ``engine``'s entry: its next campaign sweeps a cold baseline."""
    _SHARED.pop(engine, None)
