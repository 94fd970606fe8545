"""Statistical fault-injection campaigns (paper §3.2, §3.3).

A campaign evaluates one (model, task, fault model) cell of the paper's
study: it computes the fault-free baseline over a standardized example
subset, then runs ``n_trials`` independent fault injections — each at a
uniformly sampled site — and aggregates normalized performance with
log-transform 95% confidence intervals, SDC breakdowns and
bit-position vulnerability profiles.

:class:`FICampaign` is a facade over three parts.  The cell is a value,
:class:`~repro.fi.plan.CellPlan`: its examples, fault model, seed and
decoding config, and each trial's stable key and site, so the campaign
is bit-reproducible, embarrassingly parallel and restartable.  The
fault-free passes (:mod:`repro.fi.golden`), one per example and kept
with the engine, are the baseline and what injected trials start from.
The executor (:mod:`repro.fi.executor`, over :mod:`repro.fi.pool`) runs
the trials in this process or a pool of its forks, fault-tolerant:
``checkpoint=`` journals completed trials to a crash-durable JSONL file
(:mod:`repro.fi.checkpoint`) that :meth:`FICampaign.resume` picks up; a
trial that raises is retried and quarantined as an
:attr:`Outcome.FAILED` record when it fails deterministically; a dead
or stuck worker is replaced, within a budget, and past it the campaign
degrades to this process.

Trials that can share forwards do, each under its own fault keyed to
its rows: generative trials decode as rows of one round
(:mod:`repro.fi.wave`), multiple-choice trials rerun the option rows
their fault can reach (:mod:`repro.fi.options`).  Which path a trial
takes, a wave or alone through the whole reference, and why is one
table (:meth:`FICampaign.trial_plan`); a trial that runs alone is
counted under ``campaign.lone_trials.<reason>``.  Most strikes never
reach the output, so each distinct ``(example, prediction)`` is scored
and classified once (:meth:`FICampaign._score`).  A campaign studies
one engine, offline.  This module is what a trial's record is: the
lone trial, the record, the baseline and the aggregation.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.fi.checkpoint import site_to_dict
from repro.fi.executor import (
    CampaignChaos,
    ChaosError,
    Executor,
    TrialTimeoutError,
    _Supervision,
)
from repro.fi.fault_models import FaultModel
from repro.fi.golden import (
    GoldenOptions,
    GoldenRun,
    MaskBounds,
    SharedBaseline,
    leave_shared,
    mask_bounds,
    take_shared,
)
from repro.fi.injector import inject
from repro.fi.options import option_scores
from repro.fi.outcomes import Outcome, classify_direct_answer, classify_generative
from repro.fi.plan import CellPlan
from repro.fi.sites import FaultSite, LayerFilter
from repro.fi.wave import _DECODE_BATCH, _ROW_KEYED, Wave, WaveRow
from repro.generation.decode import GenerationConfig, choose_option, generate_ids
from repro.generation.round import count_plan, decode_plan, pick
from repro.inference.engine import InferenceEngine
from repro.inference.kvcache import PooledKVCache
from repro.inference.recorder import Recorder
from repro.metrics.evaluate import score_generative
from repro.obs.flight import flight_recorder as _flight
from repro.obs.instrument import attach_layer_timing
from repro.obs.manifest import config_hash
from repro.obs.runtime import telemetry as _telemetry
from repro.numerics.stats import (
    RatioCI,
    log_ratio_ci_means,
    log_ratio_ci_proportions,
)
from repro.tasks.math_task import extract_final_answer
from repro.text.tokenizer import Tokenizer

__all__ = [
    "TrialRecord",
    "CampaignResult",
    "CampaignChaos",
    "ChaosError",
    "TrialTimeoutError",
    "FICampaign",
]


@dataclass(frozen=True)
class TrialRecord:
    """One fault-injection run's outcome."""

    site: FaultSite
    example_index: int
    prediction: str
    outcome: Outcome
    metrics: dict = field(hash=False, compare=False)
    changed: bool = False
    selection_changed: bool | None = None
    """For MoE gate studies: did the expert routing change?"""
    fired: bool = True
    """Whether the armed fault actually struck during the trial's
    inference.  Memory faults always fire (the corruption exists the
    moment the weights flip); transient injectors can miss — the decode
    can end before the sampled iteration.  A trial whose fault never
    landed measures nothing."""
    error: str | None = field(default=None, hash=False, compare=False)
    """For quarantined (``FAILED``) trials: the final attempt's error."""


@dataclass
class CampaignResult:
    """Aggregated campaign statistics.

    Quarantined (``FAILED``) trials appear in :attr:`trials` — the
    campaign accounts for every requested trial — but are excluded
    from SDC rates and metric aggregates: they produced no model
    output to classify.
    """

    task_name: str
    fault_model: FaultModel
    n_trials: int
    baseline: dict
    faulty: dict
    normalized: dict
    trials: list[TrialRecord]

    @property
    def quarantined(self) -> int:
        """Trials that failed deterministically and were quarantined."""
        return sum(t.outcome is Outcome.FAILED for t in self.trials)

    def _classified(self) -> list[TrialRecord]:
        return [t for t in self.trials if t.outcome is not Outcome.FAILED]

    @property
    def sdc_rate(self) -> float:
        """Fraction of classified trials whose outcome is an SDC."""
        classified = self._classified()
        if not classified:
            return 0.0
        return sum(t.outcome.is_sdc for t in classified) / len(classified)

    def sdc_breakdown(self) -> dict[str, float]:
        """Fractions of classified trials that are subtle vs distorted."""
        n = max(1, len(self._classified()))
        subtle = sum(t.outcome is Outcome.SDC_SUBTLE for t in self.trials)
        distorted = sum(t.outcome is Outcome.SDC_DISTORTED for t in self.trials)
        return {"subtle": subtle / n, "distorted": distorted / n}

    def outcomes_by_highest_bit(self) -> dict[int, dict[str, int]]:
        """Per-highest-flipped-bit outcome counts (paper Figs 9/10)."""
        table: dict[int, dict[str, int]] = {}
        for t in self.trials:
            row = table.setdefault(
                t.site.highest_bit,
                {"masked": 0, "subtle": 0, "distorted": 0, "failed": 0},
            )
            key = {
                Outcome.MASKED: "masked",
                Outcome.SDC_SUBTLE: "subtle",
                Outcome.SDC_DISTORTED: "distorted",
                Outcome.FAILED: "failed",
            }[t.outcome]
            row[key] += 1
        return table



def _tally(record: TrialRecord, t0: float) -> None:
    """The per-trial counters of a traced run, for a trial that began at
    ``t0`` — run alone or as a row of a wave (where the latency is its
    time in flight, beside its siblings)."""
    metrics = _telemetry().metrics
    metrics.histogram("campaign.trial_ms").observe((time.perf_counter() - t0) * 1e3)
    metrics.counter("campaign.trials").add()
    metrics.counter("campaign.injections").add()
    metrics.counter(f"campaign.outcome.{record.outcome.name.lower()}").add()


def _recorded(engine: InferenceEngine, forward, *args) -> dict:
    """Every layer's output in one fault-free ``forward(*args)``."""
    with Recorder(engine) as recorder:
        forward(*args)
    return recorder.layer_outputs


class FICampaign:
    """Driver for one statistical fault-injection campaign: its cell's
    :attr:`plan`, the fault-free passes the trials start from, and the
    executor that runs them."""

    def __init__(
        self,
        engine: InferenceEngine,
        tokenizer: Tokenizer,
        task_name: str,
        metrics: tuple[str, ...],
        examples: list,
        fault_model: FaultModel,
        seed: int = 0,
        generation: GenerationConfig | None = None,
        layer_filter: LayerFilter | None = None,
        track_expert_selection: bool = False,
        max_fault_iterations: int | None = None,
        decode_strategy: str = "auto",
        chaos: CampaignChaos | None = None,
    ) -> None:
        self.engine = engine
        self.tokenizer = tokenizer
        self.plan = CellPlan.build(
            tokenizer, task_name, metrics, examples, fault_model, seed,
            generation, layer_filter, track_expert_selection, max_fault_iterations,
        )
        if decode_strategy not in ("auto", "serial"):
            raise ValueError(
                f"decode_strategy must be 'auto' or 'serial',"
                f" got {decode_strategy!r}"
            )
        self.decode_strategy = decode_strategy
        """The one execution switch.  ``auto`` keeps one fault-free pass
        per example (:attr:`_golden`), reads the baseline off it and
        runs each trial on the path :meth:`trial_plan` names.
        ``serial`` is the whole reference, as the differential oracle
        runs it: per-sequence decode loops, one full forward per option,
        one trial at a time, each from its prompt."""
        self.chaos = chaos
        """Optional runner-level fault injection (resilience tests)."""
        self._baseline_preds: list | None = None
        self._baseline_selections: list | None = None
        self._golden: dict[int, GoldenRun | GoldenOptions] = {}
        """*The* fault-free pass of each example (:mod:`repro.fi.golden`),
        never written; empty where none is kept (:meth:`_why_no_golden`)."""
        self._bounds: MaskBounds | None = None
        """The engine's mask-exactness tables, set with the golden option
        passes: ``None`` where no option class shares a row."""
        self._kv_pool: PooledKVCache | None = None
        self._scored: dict[tuple[int, str], tuple[dict, Outcome]] = {}
        """``(example index, prediction text) -> (metrics, outcome)``
        (:meth:`_score`), seeded by the baseline sweep."""
        self._executor = Executor()
        """Runs the trials; owns the persistent worker pool, which
        survives across ``run()``/``resume()`` until :meth:`close_pool`."""
        self._in_worker = False
        """True on the forked copy a pool worker runs."""
        self._hook_mark: int | None = None
        """The engine's hook registrations when the latest trial or wave
        began: :meth:`_post_failure_repair` detaches those after it."""

    def trial_key(self, trial: int) -> tuple[str, int, str]:
        """``trial``'s stable key (:meth:`CellPlan.key`): what a journal
        records and its site is drawn from."""
        return self.plan.key(trial)

    def fingerprint(self) -> dict:
        """The cell's result-determining configuration
        (:meth:`CellPlan.fingerprint`), hashed into checkpoints."""
        return self.plan.fingerprint()

    # -- the reference -------------------------------------------------------------

    def _reference(self, idx: int):
        """Example ``idx``'s prediction by the reference, under whatever
        is armed: the option index one full forward per option picks —
        counted, on the ``auto`` route, as the plan it took instead of
        option rows (``decode.plan.per_option.<reason>``) — or the text
        decoded from its prompt."""
        plan = self.plan
        if not plan.is_mc:
            ids = generate_ids(
                self.engine, plan.token_ids[idx], plan.generation,
                strategy=self.decode_strategy,
            )
            return self.tokenizer.decode(ids)
        if self.decode_strategy == "auto":
            count_plan("per_option", decode_plan(self.engine)[1])
        return choose_option(self.engine, *plan.token_ids[idx])

    def _tracking(self):
        """A recorder of every router's choice while the campaign tracks
        expert selection, else a context that records nothing (``None``);
        enter it after the trial's injector, so a struck router's choice
        is the injected one."""
        if not self.plan.track_expert_selection:
            return nullcontext()
        names = self.engine.linear_layer_names()
        return Recorder(self.engine, [n for n in names if n.endswith(".router")])

    # -- baseline ----------------------------------------------------------------

    def compute_baseline(self) -> dict:
        """Fault-free predictions + metrics over all examples (cached).

        Where the campaign keeps golden passes (:meth:`_why_no_golden`)
        they are the engine's: an earlier campaign on this engine under
        the same :meth:`CellPlan.golden_key` left its passes, baseline
        and scores with the engine (:func:`repro.fi.golden.take_shared`)
        and this one starts from them (``campaign.golden.shared``; the
        sweep counts ``.builds``), or it sweeps and leaves its own.
        Pool workers inherit the baseline through the fork.
        """
        if self._baseline_preds is not None:
            return self._baseline_metrics
        plan, key = self.plan, None
        selections: list = [None] * len(plan.examples)
        if self._why_no_golden() is None:
            key = plan.golden_key(self.engine)
            if plan.is_mc:
                self._bounds = mask_bounds(self.engine, key[0])
            entry = take_shared(self.engine, key)
            tel = _telemetry()
            if tel.active:
                # Beside ``.builds``, which the sweep counts: always
                # there, so the two sum to the example count by name.
                kind = "mc_golden" if plan.is_mc else "golden"
                tel.metrics.counter(f"campaign.{kind}.shared").add(
                    len(entry.passes) if entry is not None else 0
                )
            if entry is not None:
                self._golden = dict(enumerate(entry.passes))
                self._baseline_preds = list(entry.preds)
                self._baseline_selections = selections
                self._baseline_metrics = dict(entry.metrics)
                self._scored = dict(entry.scored)
                return self._baseline_metrics
            self._build_golden()
            # The trial no fault fires in, off each example's pass.
            preds = [
                int(np.argmax(golden.scores)) if plan.is_mc
                else self.tokenizer.decode(golden.ids)
                for golden in self._golden.values()
            ]
        else:
            preds, selections = [], []
            for idx in range(len(plan.examples)):
                with self._tracking() as tracked:
                    preds.append(self._reference(idx))
                selections.append(tracked and tracked.expert_selections)
        self._baseline_preds = preds
        self._baseline_selections = selections
        if plan.is_mc:
            hits = sum(int(p == ex.answer_index) for p, ex in zip(preds, plan.examples))
            self._baseline_metrics = {"accuracy": 100.0 * hits / len(preds)}
        else:
            self._baseline_metrics = score_generative(plan.metrics, preds, plan.examples)
            for idx, pred in enumerate(preds):
                self._score(idx, pred)
        if key is not None:
            leave_shared(self.engine, SharedBaseline(
                key, list(self._golden.values()), list(preds),
                dict(self._baseline_metrics), dict(self._scored),
            ))
        return self._baseline_metrics

    def _build_golden(self) -> None:
        """Every example's fault-free pass, in one sweep: one decode
        round over the campaign's KV slots (generative), one rows forward
        per example and option length (multiple choice).
        :meth:`compute_baseline` calls it only when the engine holds no
        passes for this cell (and leaves the result with the engine)."""
        plan = self.plan
        if plan.is_mc:
            passes = [
                GoldenOptions.build(self.engine, prompt, options, self._bounds)
                for prompt, options in plan.token_ids
            ]
        else:
            count_plan(*decode_plan(self.engine))
            passes = GoldenRun.decode_many(
                self.engine, plan.token_ids, plan.generation, self._kv_slots()
            )
        self._golden = dict(enumerate(passes))

    # -- one trial ---------------------------------------------------------------

    def _selection_changed(self, idx: int, faulty: dict | None) -> bool | None:
        if not self.plan.track_expert_selection or faulty is None:
            return None
        assert self._baseline_selections is not None
        base = self._baseline_selections[idx]
        if base is None:
            return None
        return any(
            key not in faulty or not np.array_equal(faulty[key], chosen)
            for key, chosen in base.items()
        )

    def _run_trial(self, trial: int, attempt: int = 0) -> TrialRecord:
        self._hook_mark = self.engine.hooks._registered
        tel = _telemetry()
        if not tel.active:
            return self._run_trial_impl(trial, attempt)
        t0 = time.perf_counter()
        with tel.span("campaign.trial", trial=trial, task=self.plan.task_name) as span:
            record = self._run_trial_impl(trial, attempt)
            span.set(
                site=record.site.layer_name,
                fault=record.site.fault_model.value,
                outcome=record.outcome.name.lower(),
                example=record.example_index,
            )
        _tally(record, t0)
        return record

    def _kv_slots(self) -> PooledKVCache:
        """The campaign's KV slots, each as long as its cell can reach
        and no longer: the longest prompt plus the decode budget, plus
        one, and never more than ``max_seq``.  A shorter slot changes the
        stride of a K/V view and no value in it; an overflow raises the
        ``ValueError`` a ``max_seq`` slot raises.  Only a generative
        campaign has any: option rows are scored by forwards that keep
        no K/V (:func:`~repro.fi.golden.score_option_rows`)."""
        if self._kv_pool is None:
            cfg, plan = self.engine.config, self.plan
            reach = max(map(len, plan.token_ids)) + plan.generation.max_new_tokens
            self._kv_pool = PooledKVCache(
                cfg.n_blocks, _DECODE_BATCH, cfg.n_heads,
                min(cfg.max_seq, reach + 1), cfg.head_dim,
            )
        return self._kv_pool

    def _why_no_golden(self) -> str | None:
        """Why this campaign keeps no fault-free pass per example
        (:attr:`_golden`), or ``None`` when it keeps one: the first rows
        of :meth:`trial_plan` — expert-selection tracking records every
        forward's routing, while a wave row skips the forwards of its
        golden prefix and the golden sweep records none;
        :func:`decode_plan` must batch a decode
        round (generative) or find nothing but observers (option rows),
        and a pass is a greedy run, which no beam search reads."""
        if self.decode_strategy == "serial":
            return "serial"
        if self.plan.track_expert_selection:
            return "expert_tracking"
        path, reason = decode_plan(self.engine)
        if self.plan.is_mc:
            return None if reason in ("clean", "observer_hooks") else reason
        if path != "batched":
            return reason
        return "beam" if self.plan.generation.num_beams != 1 else None

    def trial_plan(self) -> tuple[str, str]:
        """``(path, reason)``: how this campaign's trials run, and why —
        the one place that decides it, asked while nothing of a trial is
        armed.  ``wave``: trials share forwards (:meth:`_run_wave`).
        ``reference``: a trial runs alone, its fault armed engine-wide,
        and decodes or scores from the prompt.  The first matching row
        decides:

        ================================  =========  ===============
        campaign                          path       reason
        ================================  =========  ===============
        ``decode_strategy="serial"``      reference  serial
        ``track_expert_selection``        reference  expert_tracking
        an engine the pass is inexact on  reference  decode_plan's
        beam search                       reference  beam
        ``chaos``                         reference  chaos
        flight recorder armed             reference  flight
        any other                         wave       its rows' plan
        ================================  =========  ===============

        Chaos strikes trials one at a time; a flight recorder probes the
        whole struck forward.  Both keep their campaign's passes, and
        its baseline is read off them.  A wave row's fault is keyed to
        its own rows, and the wave's reason is what :func:`decode_plan`
        reports while it is armed (:data:`repro.fi.wave._ROW_KEYED`).
        """
        reason = (
            self._why_no_golden()
            or ("chaos" if self.chaos is not None else None)
            or ("flight" if _flight().active else None)
        )
        if reason is not None:
            return "reference", reason
        return "wave", _ROW_KEYED[self.plan.fault_model.surface].reason

    def _run_trial_impl(self, trial: int, attempt: int = 0) -> TrialRecord:
        """One trial alone, through the reference: its fault armed
        engine-wide, decoded or scored from the prompt."""
        if self.chaos is not None:
            self.chaos.strike(trial, attempt, in_worker=self._in_worker)
        plan = self.plan
        idx = trial % len(plan.examples)
        site = plan.site(self.engine, trial)
        recorder = _flight()
        if recorder.active:
            recorder.begin_trial(trial, plan.key(trial), site_to_dict(site), idx)
        tel = _telemetry()
        if tel.active and not plan.is_mc:
            # A lone trial resumes nothing.
            tel.metrics.counter("engine.prefill_cache_misses").add()
        detach_front = None
        try:
            with inject(self.engine, site) as injector:
                if recorder.active:
                    # Probes register after the injector's hook, so the
                    # struck layer's probe observes the post-injection
                    # output; observer + row-scoped registration keeps
                    # the batching gate exactly where a recorder-off run
                    # has it.
                    detach_front = recorder.attach_front(
                        self.engine, site.iteration
                    )
                with self._tracking() as tracked:
                    pred = self._reference(idx)
            fired = injector.fired
        finally:
            if detach_front is not None:
                detach_front()
        selections = tracked and tracked.expert_selections
        record = self._record(site, idx, pred, fired, selections)
        if recorder.active:
            recorder.end_trial(
                outcome=record.outcome.value,
                prediction=record.prediction,
                baseline=str(self._baseline_preds[idx]),
                changed=record.changed,
                fired=fired,
                reference=(
                    self._flight_reference(site, idx) if recorder.has_front else None
                ),
            )
        return record

    def _record(
        self,
        site: FaultSite,
        idx: int,
        pred: int | str,
        fired: bool,
        selections: dict | None = None,
    ) -> TrialRecord:
        """One trial's record: the option index ``pred`` it picked
        (multiple choice), or its prediction text's score and class
        (:meth:`_score`), with a ``metrics`` dict of its own."""
        if self.plan.is_mc:
            correct = pred == self.plan.examples[idx].answer_index
            prediction, metrics = str(pred), {"accuracy": 100.0 * correct}
            outcome = Outcome.MASKED if correct else Outcome.SDC_SUBTLE
        else:
            scored, outcome = self._score(idx, pred)
            prediction, metrics = pred, dict(scored)
        return TrialRecord(
            site=site,
            example_index=idx,
            prediction=prediction,
            outcome=outcome,
            metrics=metrics,
            changed=pred != self._baseline_preds[idx],
            selection_changed=self._selection_changed(idx, selections),
            fired=fired,
        )

    def _score(self, idx: int, text: str) -> tuple[dict, Outcome]:
        """``(metrics, outcome)`` of ``text`` as example ``idx``'s
        prediction, computed once per campaign (:attr:`_scored`): both
        are functions of the pair alone, and most trials repeat their
        example's baseline.  The dict is the memo's — copy, never hand
        out."""
        scored = self._scored.get((idx, text))
        if scored is None:
            ex, metrics = self.plan.examples[idx], self.plan.metrics
            if "accuracy" in metrics:
                outcome = classify_direct_answer(
                    extract_final_answer(text),
                    ex.meta.get("final_answer", ""),
                    text,
                )
            else:
                outcome = classify_generative(
                    text, self._baseline_preds[idx], ex.reference
                )
            scored = self._scored[idx, text] = (
                score_generative(metrics, [text], [ex]),
                outcome,
            )
        return scored

    def _flight_reference(self, site: FaultSite, idx: int) -> dict | None:
        """Fault-free layer outputs of the struck forward (flight replay).

        The corruption front needs a pristine reference for exactly the
        forward the fault struck.  Because greedy decoding is
        deterministic and the injector is one-shot, the faulty run's
        token prefix up to the strike iteration equals the baseline's —
        so replaying serially (after the injector restored the weights)
        reproduces the struck forward's inputs bit-exactly:

        * MC trials score options at iteration 0, option 0 first, so
          the struck forward is ``forward_full(prompt + options[0])``;
        * memory faults and iteration-0 computational faults strike the
          prompt forward — replay is ``forward_full(prompt)``;
        * iteration-``k`` computational faults strike the ``k``-th
          greedy decode step — replay prefills and re-greedy-decodes
          ``k`` steps, recording the last.

        Beam-search trials return ``None`` (which hypothesis a replay
        follows is not well-defined); so do strikes the faulty decode
        never reached (baseline hit EOS first — the injector never
        fired either).  The replay runs strictly *outside* the
        injection context on restored weights: a pure post-hoc read
        that cannot perturb trial results.
        """
        engine, plan = self.engine, self.plan
        forward = engine.forward_full
        if plan.is_mc:
            prompt, options = plan.token_ids[idx]
            return _recorded(engine, forward, [*prompt, *options[0]])
        if plan.generation.num_beams != 1:
            return None
        # Memory faults strike the prompt forward; every transient
        # model (computational, KV, accumulator) strikes at its
        # sampled iteration.
        strike = 0 if site.fault_model.is_memory else site.iteration
        prompt = plan.token_ids[idx]
        if strike == 0:
            return _recorded(engine, forward, prompt)
        session = engine.start_session(prompt)
        logits = session.last_logits
        for step in range(strike):
            token = pick(logits)
            if token == plan.generation.eos_id:
                return None  # baseline ended before the strike
            if step == strike - 1:
                return _recorded(engine, session.step, token)
            logits = session.step(token)

    # -- supervision -------------------------------------------------------------

    def _post_failure_repair(self) -> None:
        """Remove exactly what a crashed trial (or wave) armed.

        Injector context managers restore weights and remove hooks in
        their ``finally`` paths; this is a belt-and-braces sweep for
        exceptions raised between arm and guard (e.g. a timeout signal
        landing inside ``__enter__``): the hooks registered since the
        trial began — never a ranger's or the layer-timing probes the
        engine carried before it — and the engine's armed-fault state
        (a faulted weight copy swapped in or keyed by row, the KV and
        accumulator registries), which no trial starts with.
        """
        if self._hook_mark is not None:
            self.engine.hooks._detach_since(self._hook_mark)
        self.engine._disarm()
        # The round releases its slots on every raise it sees, but a
        # timeout signal can land inside its own bookkeeping (between a
        # slot's acquire and the row recording it), where no handler
        # sees the slot: start the next round on a fresh pool.
        self._kv_pool = None
        recorder = _flight()
        if recorder.active:
            # A crashed trial's partial forensic record would describe a
            # run that never produced an outcome; drop it (a retry
            # reopens the trial from scratch).
            recorder.abort_trial()

    def _quarantine_record(self, trial: int, exc: BaseException) -> TrialRecord:
        """A ``FAILED`` placeholder for a deterministically crashing
        trial; ``exc`` is its final attempt's exception."""
        tel = _telemetry()
        if tel.active:
            tel.metrics.counter("campaign.trials").add()
            tel.metrics.counter("campaign.quarantined").add()
            tel.metrics.counter("campaign.outcome.failed").add()
        return TrialRecord(
            site=self.plan.site(self.engine, trial),
            example_index=trial % len(self.plan.examples),
            prediction="",
            outcome=Outcome.FAILED,
            metrics={},
            changed=False,
            selection_changed=None,
            error=f"{type(exc).__name__}: {exc}",
        )

    # -- waves ---------------------------------------------------------------------

    def _run_wave(self, trials: list[int]) -> dict[int, TrialRecord]:
        """Every record of ``trials`` run as one wave (:meth:`trial_plan`):
        option rows in shared forwards (:mod:`repro.fi.options`), or rows
        of one decode round (:mod:`repro.fi.wave`)."""
        self._hook_mark = self.engine.hooks._registered
        plan, tel, t0 = self.plan, _telemetry(), time.perf_counter()
        n = len(plan.examples)
        sites = [(trial, plan.site(self.engine, trial)) for trial in trials]
        records: dict[int, TrialRecord] = {}

        def keep(trial, site, pred, fired: bool, t0: float, cache=None) -> None:
            records[trial] = record = self._record(site, trial % n, pred, fired)
            if tel.active:
                if cache is not None:
                    tel.metrics.counter(f"engine.prefill_cache_{cache}").add()
                _tally(record, t0)

        def done(w: WaveRow, tokens: list[int]) -> None:
            text = self.tokenizer.decode(tokens)
            # A row that prefilled resumed nothing.
            cache = "misses" if w.prefix is None else "hits"
            keep(w.trial, w.site, text, w.injector.fired, w.t0, cache)

        with tel.span("campaign.wave", task=plan.task_name, trials=len(trials)):
            if plan.is_mc:
                scores = option_scores(self.engine, [
                    (trial, site, self._golden[trial % n]) for trial, site in sites
                ], self._bounds)
                for trial, site in sites:
                    options, fired = scores[trial]
                    keep(trial, site, int(np.argmax(options)), fired, t0)
                return records
            rows = []
            for trial, site in sites:
                row = WaveRow.of(trial, site, self._golden[trial % n])
                if row.prefix is None or site.iteration <= len(row.golden.ids):
                    rows.append(row)
                else:
                    # Unreached: the run ended at EOS before the strike,
                    # so the trial is the run, unfired, and takes no slot.
                    pred = self._baseline_preds[trial % n]
                    keep(trial, site, pred, False, time.perf_counter(), "hits")
            count_plan("batched", self.trial_plan()[1])
            Wave(self.engine, self._kv_slots(), plan.generation, done).run(rows)
        return records

    # -- aggregation ---------------------------------------------------------------

    def _aggregate(self, trials: list[TrialRecord]) -> CampaignResult:
        baseline = self.compute_baseline()
        n_examples = len(self.plan.examples)
        scored = [t for t in trials if t.outcome is not Outcome.FAILED]
        faulty: dict = {}
        normalized: dict = {}
        nan_ci = RatioCI(float("nan"), float("nan"), float("nan"))
        for metric in baseline:
            values = np.array(
                [t.metrics[metric] for t in scored], dtype=np.float64
            )
            faulty[metric] = float(values.mean()) if len(values) else float("nan")
            if not len(values):
                normalized[metric] = nan_ci
            elif metric in ("accuracy", "exact_match"):
                base_hits = round(baseline[metric] / 100.0 * n_examples)
                normalized[metric] = log_ratio_ci_proportions(
                    int((values > 0).sum()),
                    len(values),
                    max(1, int(base_hits)),
                    n_examples,
                )
            else:
                ratios = []
                for t in scored:
                    base = self._per_example_baseline(metric, t.example_index)
                    if base > 0:
                        ratios.append(t.metrics[metric] / base)
                normalized[metric] = (
                    log_ratio_ci_means(np.array(ratios), 1.0)
                    if ratios
                    else nan_ci
                )
        return CampaignResult(
            task_name=self.plan.task_name,
            fault_model=self.plan.fault_model,
            n_trials=len(trials),
            baseline=baseline,
            faulty=faulty,
            normalized=normalized,
            trials=trials,
        )

    def _per_example_baseline(self, metric: str, idx: int) -> float:
        assert self._baseline_preds is not None
        if self.plan.is_mc:
            ex = self.plan.examples[idx]
            return 100.0 * float(self._baseline_preds[idx] == ex.answer_index)
        return self._score(idx, self._baseline_preds[idx])[0][metric]

    # -- entry points ------------------------------------------------------------

    def run(
        self,
        n_trials: int,
        n_workers: int = 0,
        *,
        checkpoint: str | Path | None = None,
        resume: bool = False,
        trial_timeout: float | None = None,
        max_retries: int = 2,
    ) -> CampaignResult:
        """Execute ``n_trials`` fault injections (optionally in parallel).

        Trials run in batches (:func:`repro.fi.executor.run_batch`): one
        trial at a time, or, for the trials that can share forwards, a
        wave at a time (:meth:`_run_wave`).  ``n_workers`` counts the
        processes that run them: ``0`` or ``1`` runs every batch in this
        process; more forks a persistent pool of ``n_workers - 1``
        workers beside this process, which supervises them and runs a
        share too (:meth:`repro.fi.executor.Executor._run_pool`).
        Workers are forks: each runs this campaign and its engine, hooks
        included, sharing the weight pages copy-on-write, and survives
        across ``run()``/``resume()`` calls until what it inherited
        changes.  Results and merged telemetry are identical either way,
        because every trial derives its RNG from its stable
        :meth:`trial_key`.

        ``checkpoint`` journals every completed trial to a JSONL file;
        with ``resume=True`` an existing journal's trials are loaded and
        skipped (see :meth:`resume`).  ``trial_timeout`` bounds one
        trial's wall clock (and one wave's: a wave that exceeds it is
        re-run trial by trial, each under its own bound); a trial that
        raises is retried where it ran, up to ``max_retries`` times with
        exponential backoff, before being quarantined as
        :attr:`Outcome.FAILED`; a dead or stuck worker is killed, forked
        again and what it held re-queued, within a budget of
        replacements past which execution degrades to this process.
        """
        sup = _Supervision(trial_timeout=trial_timeout, max_retries=max_retries)
        tel, plan = _telemetry(), self.plan
        detach = attach_layer_timing(self.engine, tel) if tel.active else None
        try:
            with tel.span(
                "campaign.run",
                task=plan.task_name,
                fault=plan.fault_model.value,
                trials=n_trials,
                workers=n_workers,
                campaign_hash=config_hash(self.fingerprint()),
            ):
                self.compute_baseline()
                if tel.active and not plan.is_mc:
                    # Materialize both counters up front so traced reports
                    # always show the hit/miss pair, even when one side
                    # stays zero.
                    tel.metrics.counter("engine.prefill_cache_hits")
                    tel.metrics.counter("engine.prefill_cache_misses")
                return self._aggregate(
                    self._executor.run(
                        self, n_trials, n_workers, sup, checkpoint, resume
                    )
                )
        finally:
            if detach is not None:
                detach()

    def resume(
        self,
        checkpoint: str | Path,
        n_trials: int,
        n_workers: int = 0,
        **supervision,
    ) -> CampaignResult:
        """Resume a checkpointed campaign, re-running only missing trials.

        Already-journalled ``(example, trial, fault)`` keys are skipped;
        the aggregate over journalled + fresh trials is bit-identical
        to an uninterrupted ``run(n_trials)`` because trial RNGs derive
        from stable keys.  A journal written by a *different* campaign
        configuration is rejected (fingerprint hash mismatch).  If the
        checkpoint file does not exist yet, this is simply a
        checkpointed run from scratch.
        """
        return self.run(
            n_trials, n_workers, checkpoint=checkpoint, resume=True, **supervision
        )

    def close_pool(self) -> None:
        """Tear down the persistent pool (idempotent).

        Called automatically at garbage collection; call explicitly to
        release the worker processes early (e.g. between campaigns in a
        long-lived driver).
        """
        self._executor.close()
