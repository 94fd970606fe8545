"""Statistical fault-injection campaigns (paper §3.2, §3.3).

A campaign evaluates one (model, task, fault model) cell of the paper's
study: it computes the fault-free baseline over a standardized example
subset, then runs ``n_trials`` independent fault injections — each at a
uniformly sampled site — and aggregates normalized performance with
log-transform 95% confidence intervals, SDC breakdowns and
bit-position vulnerability profiles.

Every trial derives its RNG from a *stable trial key* — a hash of
``(example identity, trial index, fault model)`` — never from
enumeration order, so a campaign is bit-reproducible, embarrassingly
parallel, and restartable: the optional process pool partitions trials
without changing any sampled site, and a resumed run replays exactly
the sites an uninterrupted run would have drawn.

Trials that can share forwards do: the engine's batched forward is
bit-identical per row to the serial one and every fault model keys to a
batch row, so greedy trials decode as *waves*, ``_DECODE_BATCH`` rows of
one decode round, each under its own fault (:mod:`repro.fi.wave`).
A multiple-choice trial has no decode to share, but reruns option rows
from its example's fault-free pass — one per option class under a
weight fault the mask bound admits (:mod:`repro.fi.golden`), every one
under any other, one at a time until a transient fault has fired — and
the rows of many trials share a forward, each trial's fault keyed to
its own rows.  Which path a trial takes — a wave, or alone through the
whole reference, its fault armed engine-wide — and why is one table
(:meth:`FICampaign.trial_plan`); a trial that runs alone is counted
under ``campaign.lone_trials.<reason>``.  Most strikes never reach the
output, so each distinct ``(example, prediction)`` is scored and
classified once (:meth:`FICampaign._gen_record`) — and the fault-free
passes everything above starts from are decoded once per engine and
example set, not once per campaign (:meth:`FICampaign.compute_baseline`,
:mod:`repro.fi.golden`).  Those passes are the campaign's one
fault-free reference: the baseline is read off them.  A campaign
studies one engine, offline: every trial strikes that engine and
decodes in this process or a pool worker.

This module is what a trial *is*: its identity and sampling, the
lone trial, its record, the baseline, the aggregation; the generative
wave its trials decode in is :mod:`repro.fi.wave`.  *How* trials
get run is :mod:`repro.fi.executor` (over :mod:`repro.fi.pool`), the
same batch function in this process and in every pool worker — and
fault-tolerant, because the execution layer must survive the
paper-scale campaigns it measures: ``checkpoint=`` journals completed
trials to a crash-durable JSONL file (:mod:`repro.fi.checkpoint`) that
:meth:`FICampaign.resume` picks up; trials that raise are retried with
exponential backoff and quarantined as :attr:`Outcome.FAILED` records
when they fail deterministically; a dead or stuck worker is replaced
by a fresh fork of this campaign and what it held re-queued, and after
``max_pool_rebuilds`` replacements the campaign degrades gracefully to
this process.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import ExitStack, nullcontext
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
    score_option_rows,
    shares_row,
    take_shared,
    weights_digest,
)
from repro.fi.injector import inject
from repro.fi.outcomes import Outcome, classify_direct_answer, classify_generative
from repro.fi.sites import FaultSite, LayerFilter, sample_site
from repro.fi.wave import _ROW_KEYED, Wave, WaveRow, row_fault
from repro.generation.decode import (
    GenerationConfig,
    choose_option,
    generate_ids,
    option_logp,
)
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
from repro.tasks.base import MCExample
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


_DECODE_BATCH = 16
"""Continuous-batching width of a campaign's decode rounds, the golden
sweep's and the waves': a batched step costs a fixed part (about a third
of it at width 6) plus a part per ragged row, so the wider round is
fewer, fuller steps, over slots sized to what the cell can reach
(:meth:`FICampaign._kv_slots`)."""

_OPTION_ROW_TOKENS = 512
"""Most tokens one forward of option rows takes
(:meth:`FICampaign._option_scores`; rows of length ``t`` go
``512 // t`` to a forward, at least one and at most
:data:`_DECODE_BATCH`).  Its activations are rows x ``t`` x
``d_model``; its logits only rows x read window x vocabulary, the
window running from the shortest prompt's last position.  Measured on
``campaign_mc_mem`` (2-vCPU host, alternated pairs, one row per option
class) with freed heap kept mapped (``repro.inference.engine``): 512
tokens read a median 3 366 trials/s against 256's 3 108 (6 of 6 pairs)
for +0.4 MB ``peak_rss_mb`` (about 45.6 MB); 1 024 read 3 261 against
512's 3 345, winning 1 of 6.  Under glibc's default thresholds a wider
forward faults more of its temporaries in afresh, and 512 lost to 256."""


class FICampaign:
    """Driver for one statistical fault-injection campaign."""

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
        self.task_name = task_name
        self.metrics = metrics
        self.examples = list(examples)
        if not self.examples:
            raise ValueError("campaign needs at least one example")
        self.fault_model = fault_model
        self.seed = seed
        self.is_mc = isinstance(self.examples[0], MCExample)
        self.generation = generation or GenerationConfig()
        self.layer_filter = layer_filter
        self.track_expert_selection = track_expert_selection
        self.max_fault_iterations = max_fault_iterations
        """Restrict computational-fault timing to iterations below this
        bound (the paper's CoT study injects only during reasoning-token
        generation)."""
        if decode_strategy not in ("auto", "serial"):
            raise ValueError(
                f"decode_strategy must be 'auto' or 'serial',"
                f" got {decode_strategy!r}"
            )
        self.decode_strategy = decode_strategy
        """The one execution switch.  ``auto`` runs one fault-free pass
        per example (:attr:`_golden`, one batched sweep) wherever
        :func:`~repro.generation.round.decode_plan` finds it exact, reads
        the baseline off it — the trial in which no fault fires — and
        runs each trial on the path :meth:`trial_plan` names: a wave, or
        alone through the reference.  ``serial`` is the whole reference,
        as the differential oracle runs it: per-sequence decode loops,
        one full forward per option, a fresh prefill and a full decode
        per trial and per baseline example, one trial at a time."""
        self.chaos = chaos
        """Optional runner-level fault injection (resilience tests)."""
        self._example_ids = [self._stable_example_id(ex) for ex in self.examples]
        self._baseline_preds: list | None = None
        self._baseline_selections: list | None = None
        self._golden: dict[int, GoldenRun | GoldenOptions] = {}
        """*The* fault-free pass of each example — its golden run
        (generative tasks) or golden option pass (multiple choice) —
        built by the baseline sweep, which reads the baseline off it,
        and inherited by forked pool workers copy-on-write.  Empty where
        no pass is kept (:meth:`_why_no_golden`).  The dict is this
        campaign's; the passes may be the ones an earlier campaign on
        this engine swept (:mod:`repro.fi.golden`), and are never
        written."""
        self._bounds: MaskBounds | None = None
        """The engine's mask-exactness tables (:func:`~repro.fi.golden.mask_bounds`),
        set with the golden option passes: ``None`` where no option class
        shares a row — a generative or MoE campaign, one that keeps no
        pass, an engine whose pristine forward the bound does not hold
        for."""
        self._token_ids: list = [
            (
                tokenizer.encode(ex.prompt),
                [tokenizer.encode(option) for option in ex.options],
            )
            if self.is_mc
            else tokenizer.encode(ex.prompt)
            for ex in self.examples
        ]
        """Per example, its token ids, encoded once — the campaign's
        only encoding call: the prompt's, or ``(prompt, options)`` for
        multiple choice.  Everything that runs an example takes its ids
        from here by example index."""
        self._kv_pool: PooledKVCache | None = None
        """The ``_DECODE_BATCH`` KV slots of this campaign's golden sweep
        and waves, one round after the other."""
        self._scored: dict[tuple[int, str], tuple[dict, Outcome]] = {}
        """``(example index, prediction text) -> (metrics, outcome)``:
        a generative prediction is scored and classified once per
        campaign (:meth:`_score`).  The baseline sweep seeds it, so the
        masked majority of trials — and forked pool workers, which
        inherit it — look their scores up."""
        self._executor = Executor()
        """Runs the trials; owns the persistent worker pool, which
        survives across ``run()``/``resume()`` boundaries until
        :meth:`close_pool`."""
        self._in_worker = False
        """True on the forked copy a pool worker runs."""
        self._hook_mark: int | None = None
        """The engine's hook registrations when the latest trial or wave
        began: :meth:`_post_failure_repair` detaches those after it."""

    # -- stable trial identity ---------------------------------------------------

    @staticmethod
    def _stable_example_id(ex) -> str:
        """Content hash identifying an example across runs and reorders."""
        if isinstance(ex, MCExample):
            payload = ["mc", ex.prompt, list(ex.options), ex.answer_index]
        else:
            payload = ["gen", ex.prompt, ex.reference]
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        return digest[:16]

    def trial_key(self, trial: int) -> tuple[str, int, str]:
        """The stable ``(example id, trial index, fault model)`` key.

        This is the identity a checkpoint journal records and the sole
        source of a trial's RNG entropy (besides the campaign seed) —
        enumeration order, worker scheduling and resume boundaries can
        never shift which site a trial samples.
        """
        idx = trial % len(self.examples)
        return (self._example_ids[idx], trial, self.fault_model.value)

    def _trial_rng(self, trial: int) -> np.random.Generator:
        """The trial's generator, seeded with the campaign seed's 32-bit
        words (little-endian, at least one) and the first 16 bytes of
        its key's SHA-256 as four more: the entropy pool numpy builds
        from the list ``[seed, *words]``, from one array."""
        digest = hashlib.sha256(
            json.dumps(self.trial_key(trial)).encode()
        ).digest()
        seed = int(self.seed)
        head = seed.to_bytes(4 * (-(-seed.bit_length() // 32) or 1), "little")
        return np.random.default_rng(np.frombuffer(head + digest[:16], "<u4"))

    def fingerprint(self) -> dict:
        """Result-determining configuration, hashed into checkpoints.

        The one perf switch, ``decode_strategy``, is excluded on
        purpose: it cannot change TrialRecords (the differential suite
        holds it to that), so a journal written under one execution
        strategy may be resumed under the other.
        """
        return {
            "task": self.task_name,
            "fault_model": self.fault_model.value,
            "seed": self.seed,
            "is_mc": self.is_mc,
            "metrics": list(self.metrics),
            "example_ids": list(self._example_ids),
            "generation": {
                "max_new_tokens": self.generation.max_new_tokens,
                "num_beams": self.generation.num_beams,
                "length_penalty": self.generation.length_penalty,
                "eos_id": self.generation.eos_id,
            },
            "max_fault_iterations": self.max_fault_iterations,
            "track_expert_selection": self.track_expert_selection,
            "layer_filter": (
                getattr(self.layer_filter, "__name__", repr(self.layer_filter))
                if self.layer_filter is not None
                else None
            ),
        }

    # -- shared single-example evaluation --------------------------------------

    def _eval_mc(self, idx: int) -> int:
        """Example ``idx``'s answer by the reference, one full forward
        per option — counted, on the ``auto`` route, as the plan it
        took instead of option rows (``decode.plan.per_option.<reason>``)."""
        if self.decode_strategy == "auto":
            count_plan("per_option", decode_plan(self.engine)[1])
        return choose_option(self.engine, *self._token_ids[idx])

    def _option_scores(
        self, trials: list[tuple[int, FaultSite]]
    ) -> dict[int, tuple[list[float], bool]]:
        """``trial -> (option scores, fired)`` of multiple-choice
        ``(trial, site)`` pairs, from their examples' golden passes: bit
        for bit what one ``forward_full(prompt + option)`` per option
        scores with the fault armed engine-wide.

        A fault in block ``L`` reaches no block before it, so a row runs
        from ``L`` on from its pass's state — from the embedding where
        the pass keeps none (:meth:`GoldenOptions.entry`) — its trial's
        fault keyed to it (:func:`~repro.fi.wave.row_fault`).  A weight fault is read
        by every option's forward: its trial runs one row per option
        class, each member scored off its leader's logits with its own
        tokens, when :func:`~repro.fi.golden.shares_row` admits the
        struck element (``campaign.mc_golden.rows_shared``), and one row
        per option when it refuses (``.share_refused``).  A one-shot
        fault (computational, accumulator, KV) fires in the first option
        forward that runs its layer — option 0's, unless the layer is an
        MoE expert no token of that option is routed to — and in none
        after: its trial's row is option 0 and, while it has not fired,
        the next option in a further forward; every option but the one
        it fired in keeps its golden score.
        Rows of any trials equally long share a forward, whatever block
        each enters at, as many as :data:`_DECODE_BATCH` and
        :data:`_OPTION_ROW_TOKENS` allow.
        """
        n = len(self.examples)
        sites = dict(trials)
        scores = {trial: list(self._golden[trial % n].scores) for trial in sites}
        fired, ran = dict.fromkeys(sites, False), dict.fromkeys(sites, 0)
        computed, shared = dict.fromkeys(sites, 0), dict.fromkeys(sites, 0)
        refused = 0
        todo = []  # (trial, option whose row runs, options scored off it)
        for trial, site in trials:
            golden = self._golden[trial % n]
            if not site.fault_model.is_memory:
                count_plan("option_rows", _ROW_KEYED[site.fault_model.surface].reason)
                todo.append((trial, 0, [0]))
                continue
            count_plan("option_rows", "weight_fault")
            if golden.shared and self._shares_row(site):
                leaders = list(dict.fromkeys(golden.leaders))
                todo += [(trial, i, golden.members(i)) for i in leaders]
                shared[trial] = len(golden.options) - len(leaders)
            else:
                refused += golden.shared
                todo += [(trial, i, [i]) for i in range(len(golden.options))]
        tel = _telemetry()
        n_blocks = self.engine.config.n_blocks
        while todo:
            forwards: dict[int, list[tuple[int, int, list[int]]]] = {}
            for row in todo:
                golden = self._golden[row[0] % n]
                length = len(golden.prompt) + len(golden.options[row[1]])
                forwards.setdefault(length, []).append(row)
            for length, rows in forwards.items():
                width = min(_DECODE_BATCH, max(1, _OPTION_ROW_TOKENS // length))
                for at in range(0, len(rows), width):
                    chunk = rows[at : at + width]
                    mine: dict[int, list[int]] = {}
                    for row, (trial, _, _) in enumerate(chunk):
                        mine.setdefault(trial, []).append(row)
                    entries = [
                        self._golden[trial % n].entry(sites[trial].block, option)
                        for trial, option, _ in chunk
                    ]
                    with ExitStack() as armed:
                        faults = {
                            trial: armed.enter_context(
                                row_fault(self.engine, sites[trial], ids)
                            )
                            for trial, ids in mine.items()
                        }
                        logits, starts = score_option_rows(self.engine, [
                            (self._golden[trial % n], option, entry)
                            for (trial, option, _), entry in zip(chunk, entries)
                        ])
                    read = [
                        (row, trial, j)
                        for row, (trial, _, members) in enumerate(chunk)
                        for j in members
                    ]
                    got = option_logp(
                        logits,
                        [starts[row] for row, _, _ in read],
                        [self._golden[trial % n].options[j] for _, trial, j in read],
                        [row for row, _, _ in read],
                    )
                    for (_, trial, j), score in zip(read, got):
                        if faults[trial].fired:
                            fired[trial], scores[trial][j] = True, score
                    for (trial, _, _), entry in zip(chunk, entries):
                        ran[trial] += 1
                        computed[trial] += n_blocks - entry
                    if tel.active:
                        tel.metrics.histogram("campaign.wave.width").observe(len(chunk))
            todo = [
                (trial, ran[trial], [ran[trial]]) for trial in sites
                if not fired[trial] and ran[trial] < len(scores[trial])
            ]
        if tel.active:
            # Of each trial's option rows through every block, the
            # reference's work, ``computed`` ran here; of its options,
            # ``ran`` ran a row, ``shared`` read a leader's, and the rest
            # kept their golden scores.
            metrics = tel.metrics
            metrics.counter("campaign.mc_golden.share_refused").add(refused)
            for trial in sites:
                passes = len(scores[trial]) * n_blocks
                metrics.counter("campaign.mc_golden.block_passes").add(passes)
                metrics.counter("campaign.mc_golden.block_passes_skipped").add(
                    passes - computed[trial]
                )
                metrics.counter("campaign.mc_golden.rows_shared").add(shared[trial])
                metrics.counter("campaign.mc_golden.rows_reused").add(
                    len(scores[trial]) - ran[trial] - shared[trial]
                )
        return {trial: (scores[trial], fired[trial]) for trial in sites}

    def _shares_row(self, site: FaultSite) -> bool:
        """Whether a weight fault at ``site`` leaves the option rows'
        mask exact (:func:`~repro.fi.golden.shares_row`), from the
        value its injector writes."""
        store = self.engine.weight_store(site.layer_name)
        value = store.faulted_value(site.row, site.col, list(site.bits))
        return shares_row(self._bounds, site, value)

    def _eval_gen(self, idx: int) -> str:
        """Example ``idx``'s prediction by the reference: decoded from
        its prompt."""
        ids = generate_ids(
            self.engine,
            self._token_ids[idx],
            self.generation,
            strategy=self.decode_strategy,
        )
        return self.tokenizer.decode(ids)

    def _tracking(self):
        """A recorder of every router's choice while the campaign tracks
        expert selection, else a context that records nothing (``None``);
        enter it after the trial's injector, so a struck router's choice
        is the injected one."""
        if not self.track_expert_selection:
            return nullcontext()
        names = self.engine.linear_layer_names()
        return Recorder(self.engine, [n for n in names if n.endswith(".router")])

    # -- baseline ----------------------------------------------------------------

    def compute_baseline(self) -> dict:
        """Fault-free predictions + metrics over all examples (cached).

        Where the campaign keeps golden passes (:meth:`_why_no_golden`)
        the sweep is the engine's, not the campaign's: an earlier
        campaign on this engine over the same weights, examples and
        decoding config left its passes, the baseline read off them and
        their scores with the engine
        (:func:`repro.fi.golden.take_shared`), and this one starts from
        them — ``campaign.golden.shared`` counts the passes taken,
        ``.builds`` the ones decoded, and the two sum to the example
        count.  Otherwise it sweeps (after the stale entry is dropped)
        and leaves its own.  ``serial``, expert tracking, beam search
        and a hooked or armed engine neither read nor fill the entry;
        pool workers never get here (they inherit the baseline through
        the fork).
        """
        if self._baseline_preds is not None:
            return self._baseline_metrics
        selections: list = [None] * len(self.examples)
        key = None
        if self._why_no_golden() is None:
            key = self._shared_key()
            if self.is_mc:
                self._bounds = mask_bounds(self.engine, key[0])
            entry = take_shared(self.engine, key)
            tel = _telemetry()
            if tel.active:
                # Beside ``.builds``, which the sweep counts: always
                # there, so the two sum to the example count by name.
                kind = "mc_golden" if self.is_mc else "golden"
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
                int(np.argmax(golden.scores)) if self.is_mc
                else self.tokenizer.decode(golden.ids)
                for golden in self._golden.values()
            ]
        else:
            preds, selections = [], []
            for idx in range(len(self.examples)):
                with self._tracking() as tracked:
                    preds.append(
                        self._eval_mc(idx) if self.is_mc else self._eval_gen(idx)
                    )
                selections.append(tracked and tracked.expert_selections)
        self._baseline_preds = preds
        self._baseline_selections = selections
        if self.is_mc:
            hits = sum(
                int(p == ex.answer_index) for p, ex in zip(preds, self.examples)
            )
            self._baseline_metrics = {"accuracy": 100.0 * hits / len(preds)}
        else:
            self._baseline_metrics = score_generative(
                self.metrics, preds, self.examples
            )
            for idx, pred in enumerate(preds):
                self._score(idx, pred)
        if key is not None:
            leave_shared(self.engine, SharedBaseline(
                key, list(self._golden.values()), list(preds),
                dict(self._baseline_metrics), dict(self._scored),
            ))
        return self._baseline_metrics

    def _shared_key(self) -> tuple:
        """Everything this campaign's fault-free passes, the baseline
        read off them and its scores are a function of: the weights as
        stored now, every example's token ids, the decoding config, and
        the examples' content (references, answers) and metric names the
        scores were computed against."""
        if self.is_mc:
            ids = tuple(
                (tuple(prompt), tuple(map(tuple, options)))
                for prompt, options in self._token_ids
            )
        else:
            ids = tuple(map(tuple, self._token_ids))
        return (
            weights_digest(self.engine),
            ids,
            self.generation,
            tuple(self._example_ids),
            tuple(self.metrics),
        )

    # -- one trial ---------------------------------------------------------------

    def _max_fault_iter(self) -> int:
        """Exclusive bound on the iteration a trial's fault may strike."""
        max_iter = 1 if self.is_mc else self.generation.max_new_tokens
        if self.max_fault_iterations is not None:
            max_iter = min(max_iter, self.max_fault_iterations)
        return max_iter

    def _trial_site(self, trial: int, max_iterations: int) -> FaultSite:
        return sample_site(
            self.engine,
            self.fault_model,
            self._trial_rng(trial),
            max_iterations=max_iterations,
            layer_filter=self.layer_filter,
        )

    def _selection_changed(self, idx: int, faulty: dict | None) -> bool | None:
        if not self.track_expert_selection or faulty is None:
            return None
        assert self._baseline_selections is not None
        base = self._baseline_selections[idx]
        if base is None:
            return None
        for key, base_sel in base.items():
            other = faulty.get(key)
            if other is None or other.shape != base_sel.shape:
                return True
            if not np.array_equal(other, base_sel):
                return True
        return False

    def _run_trial(self, trial: int, attempt: int = 0) -> TrialRecord:
        self._hook_mark = self.engine.hooks._registered
        tel = _telemetry()
        if not tel.active:
            return self._run_trial_impl(trial, attempt)
        t0 = time.perf_counter()
        with tel.span("campaign.trial", trial=trial, task=self.task_name) as span:
            record = self._run_trial_impl(trial, attempt)
            span.set(
                site=record.site.layer_name,
                fault=record.site.fault_model.value,
                outcome=record.outcome.name.lower(),
                example=record.example_index,
            )
        self._tally(record, t0)
        return record

    @staticmethod
    def _tally(record: TrialRecord, t0: float) -> None:
        """The per-trial counters of a traced run, for a trial that
        began at ``t0`` — run alone or as a row of a wave (where the
        latency is its time in flight, beside its siblings)."""
        metrics = _telemetry().metrics
        metrics.histogram("campaign.trial_ms").observe(
            (time.perf_counter() - t0) * 1e3
        )
        metrics.counter("campaign.trials").add()
        metrics.counter("campaign.injections").add()
        metrics.counter(f"campaign.outcome.{record.outcome.name.lower()}").add()

    def _kv_slots(self) -> PooledKVCache:
        """The campaign's KV slots, each as long as its cell can reach
        and no longer: the longest prompt plus the decode budget, plus
        one, and never more than ``max_seq``.  A shorter slot changes the
        stride of a K/V view and no value in it; an overflow raises the
        ``ValueError`` a ``max_seq`` slot raises.  Only a generative
        campaign has any: option rows are scored by forwards that keep
        no K/V (:func:`~repro.fi.golden.score_option_rows`)."""
        if self._kv_pool is None:
            cfg = self.engine.config
            reach = max(map(len, self._token_ids)) + self.generation.max_new_tokens
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
        if self.track_expert_selection:
            return "expert_tracking"
        path, reason = decode_plan(self.engine)
        if self.is_mc:
            return None if reason in ("clean", "observer_hooks") else reason
        if path != "batched":
            return reason
        return "beam" if self.generation.num_beams != 1 else None

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
        return "wave", _ROW_KEYED[self.fault_model.surface].reason

    def _build_golden(self) -> None:
        """Every example's fault-free pass, in one sweep: one decode
        round over the campaign's KV slots (generative), one rows forward
        per example and option length (multiple choice).
        :meth:`compute_baseline` calls it only when the engine holds no
        passes for this key (and leaves the result with the engine)."""
        if self.is_mc:
            passes = [
                GoldenOptions.build(self.engine, prompt, options, self._bounds)
                for prompt, options in self._token_ids
            ]
        else:
            count_plan(*decode_plan(self.engine))
            passes = GoldenRun.decode_many(
                self.engine, self._token_ids, self.generation, self._kv_slots()
            )
        self._golden = dict(enumerate(passes))

    def _run_trial_impl(self, trial: int, attempt: int = 0) -> TrialRecord:
        """One trial alone, through the reference: its fault armed
        engine-wide, decoded or scored from the prompt."""
        if self.chaos is not None:
            self.chaos.strike(trial, attempt, in_worker=self._in_worker)
        idx = trial % len(self.examples)
        site = self._trial_site(trial, self._max_fault_iter())
        recorder = _flight()
        if recorder.active:
            recorder.begin_trial(
                trial, self.trial_key(trial), site_to_dict(site), idx
            )
        tel = _telemetry()
        if tel.active and not self.is_mc:
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
                    if self.is_mc:
                        pred_idx = self._eval_mc(idx)
                    else:
                        text = self._eval_gen(idx)
            fired = injector.fired
        finally:
            if detach_front is not None:
                detach_front()
        selections = tracked and tracked.expert_selections

        assert self._baseline_preds is not None
        base_pred = self._baseline_preds[idx]
        if self.is_mc:
            record = self._mc_record(site, idx, pred_idx, fired, selections)
        else:
            record = self._gen_record(site, idx, text, fired, selections)
        if recorder.active:
            reference = (
                self._flight_reference(site, idx)
                if recorder.has_front
                else None
            )
            recorder.end_trial(
                outcome=record.outcome.value,
                prediction=record.prediction,
                baseline=str(base_pred),
                changed=record.changed,
                fired=fired,
                reference=reference,
            )
        return record

    def _mc_record(
        self,
        site: FaultSite,
        idx: int,
        pred_idx: int,
        fired: bool,
        selections: dict | None = None,
    ) -> TrialRecord:
        """One multiple-choice trial's record: the option it picked."""
        correct = pred_idx == self.examples[idx].answer_index
        return TrialRecord(
            site=site,
            example_index=idx,
            prediction=str(pred_idx),
            outcome=Outcome.MASKED if correct else Outcome.SDC_SUBTLE,
            metrics={"accuracy": 100.0 * correct},
            changed=pred_idx != self._baseline_preds[idx],
            selection_changed=self._selection_changed(idx, selections),
            fired=fired,
        )

    def _gen_record(
        self,
        site: FaultSite,
        idx: int,
        text: str,
        fired: bool,
        selections: dict | None = None,
    ) -> TrialRecord:
        """One generative trial's record: its prediction's score and
        class (:meth:`_score`), with a ``metrics`` dict of its own."""
        trial_metrics, outcome = self._score(idx, text)
        return TrialRecord(
            site=site,
            example_index=idx,
            prediction=text,
            outcome=outcome,
            metrics=dict(trial_metrics),
            changed=text != self._baseline_preds[idx],
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
            ex = self.examples[idx]
            if "accuracy" in self.metrics:
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
                score_generative(self.metrics, [text], [ex]),
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
        forward = self.engine.forward_full
        if self.is_mc:
            prompt, options = self._token_ids[idx]
            return self._recorded(forward, [*prompt, *options[0]])
        if self.generation.num_beams != 1:
            return None
        # Memory faults strike the prompt forward; every transient
        # model (computational, KV, accumulator) strikes at its
        # sampled iteration.
        strike = 0 if site.fault_model.is_memory else site.iteration
        prompt = self._token_ids[idx]
        if strike == 0:
            return self._recorded(forward, prompt)
        session = self.engine.start_session(prompt)
        logits = session.last_logits
        for step in range(strike):
            token = pick(logits)
            if token == self.generation.eos_id:
                return None  # baseline ended before the strike
            if step == strike - 1:
                return self._recorded(session.step, token)
            logits = session.step(token)

    def _recorded(self, forward, *args) -> dict:
        """Every layer's output in one fault-free ``forward(*args)``."""
        with Recorder(self.engine) as recorder:
            forward(*args)
        return recorder.layer_outputs

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
            site=self._trial_site(trial, self._max_fault_iter()),
            example_index=trial % len(self.examples),
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
        option rows in shared forwards (:meth:`_option_scores`), or rows of
        one decode round (:mod:`repro.fi.wave`)."""
        self._hook_mark = self.engine.hooks._registered
        tel, n, t0 = _telemetry(), len(self.examples), time.perf_counter()
        max_iter = self._max_fault_iter()
        sites = [(trial, self._trial_site(trial, max_iter)) for trial in trials]
        records: dict[int, TrialRecord] = {}

        def keep(trial: int, record: TrialRecord, t0: float, cache=None) -> None:
            records[trial] = record
            if tel.active:
                if cache is not None:
                    tel.metrics.counter(f"engine.prefill_cache_{cache}").add()
                self._tally(record, t0)

        def done(w: WaveRow, tokens: list[int]) -> None:
            text = self.tokenizer.decode(tokens)
            record = self._gen_record(w.site, w.trial % n, text, w.injector.fired)
            # A row that prefilled resumed nothing.
            keep(w.trial, record, w.t0, "misses" if w.prefix is None else "hits")

        with tel.span("campaign.wave", task=self.task_name, trials=len(trials)):
            if self.is_mc:
                scores = self._option_scores(sites)
                for trial, site in sites:
                    options, fired = scores[trial]
                    pred = int(np.argmax(options))
                    keep(trial, self._mc_record(site, trial % n, pred, fired), t0)
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
                    record = self._gen_record(site, trial % n, pred, False)
                    keep(trial, record, time.perf_counter(), "hits")
            count_plan("batched", self.trial_plan()[1])
            Wave(self.engine, self._kv_slots(), self.generation, done).run(rows)
        return records

    # -- aggregation ---------------------------------------------------------------

    def _aggregate(self, trials: list[TrialRecord]) -> CampaignResult:
        baseline = self.compute_baseline()
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
                base_hits = round(baseline[metric] / 100.0 * len(self.examples))
                normalized[metric] = log_ratio_ci_proportions(
                    int((values > 0).sum()),
                    len(values),
                    max(1, int(base_hits)),
                    len(self.examples),
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
            task_name=self.task_name,
            fault_model=self.fault_model,
            n_trials=len(trials),
            baseline=baseline,
            faulty=faulty,
            normalized=normalized,
            trials=trials,
        )

    def _per_example_baseline(self, metric: str, idx: int) -> float:
        assert self._baseline_preds is not None
        if self.is_mc:
            ex = self.examples[idx]
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
        retry_backoff: float = 0.05,
        max_pool_rebuilds: int = 2,
    ) -> CampaignResult:
        """Execute ``n_trials`` fault injections (optionally in parallel).

        Trials run in batches (:func:`repro.fi.executor.run_batch`): one
        trial at a time, or, for the trials that can share forwards, a
        wave at a time (:meth:`_run_wave`).  ``n_workers`` counts the
        processes that run them: ``0`` or ``1`` runs every batch in this
        process; more forks a persistent pool of ``n_workers - 1``
        workers, and this process, which supervises them, is the n-th —
        it takes the next batch whenever no worker is free, and after
        each unit of its own looks after the pool, so a worker's death
        or overrun is noticed at most one such unit late (its own units
        are bounded by ``trial_timeout`` as in-process ones are).
        Workers are forks of this process:
        each runs this campaign and its engine, hooks included, sharing
        the weight pages copy-on-write (no trial writes them, so
        per-worker incremental memory is KV caches + Python overhead,
        not the model); they are dealt the next pending batch as they
        free up, and one more ahead while they run one, and survive across ``run()``/``resume()`` calls on
        this campaign until what they inherited changes.  Results are
        identical either way because every trial derives its RNG from
        its stable :meth:`trial_key`.  Telemetry, when enabled, is
        likewise schedule-invariant: worker snapshots merge in trial
        order.

        ``checkpoint`` journals every completed trial to a JSONL file,
        batch by batch in this process and unit by unit as workers
        report; with ``resume=True`` an existing journal's trials are
        loaded and skipped (see :meth:`resume`).  ``trial_timeout``
        bounds one trial's wall clock (and, where trials share
        forwards, one wave's: a wave that exceeds it is re-run trial by
        trial, each under its own bound); trials that raise are retried
        where they ran, up to ``max_retries`` times with exponential
        ``retry_backoff``, before being quarantined as
        :attr:`Outcome.FAILED`; a dead or stuck worker is killed and
        forked again, and what it still held re-queued, up to
        ``max_pool_rebuilds`` times, after which (workers that never
        boot spend that budget too) execution degrades to this process.
        """
        sup = _Supervision(
            trial_timeout=trial_timeout,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            max_pool_rebuilds=max_pool_rebuilds,
        )
        tel = _telemetry()
        detach = attach_layer_timing(self.engine, tel) if tel.active else None
        try:
            with tel.span(
                "campaign.run",
                task=self.task_name,
                fault=self.fault_model.value,
                trials=n_trials,
                workers=n_workers,
                campaign_hash=config_hash(self.fingerprint()),
            ):
                self.compute_baseline()
                if tel.active and not self.is_mc:
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
