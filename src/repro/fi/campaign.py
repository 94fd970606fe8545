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
bit-identical per row to the serial one, so greedy computational-fault
trials decode as *waves* — ``_DECODE_BATCH`` rows of one decode round,
each with its own budget and its own row-pinned injector, resumed from
its example's golden run or, struck at iteration 0, prefilled into its
slot under that injector (:meth:`FICampaign._run_wave`).  The wave is
such a campaign's only decode loop; a trial that still runs alone is
counted, by reason, under ``campaign.lone_trials.*``.  Most strikes
never reach the output, so each distinct ``(example, prediction)`` is
scored and classified once (:meth:`FICampaign._gen_record`) — and the
fault-free passes everything above starts from are decoded once per
engine and example set, not once per campaign
(:meth:`FICampaign.compute_baseline`, :mod:`repro.fi.golden`).

This module is what a trial *is*: its identity and sampling, the
one-trial path, the wave, the baseline, the aggregation.  *How* trials
get run is :mod:`repro.fi.executor` (over :mod:`repro.fi.pool`), the
same batch function in this process and in every pool worker — and
fault-tolerant, because the execution layer must survive the
paper-scale campaigns it measures: ``checkpoint=`` journals completed
trials to a crash-durable JSONL file (:mod:`repro.fi.checkpoint`) that
:meth:`FICampaign.resume` picks up; trials that raise are retried with
exponential backoff and quarantined as :attr:`Outcome.FAILED` records
when they fail deterministically; a dead or stuck worker is replaced
against the once-exported shared weight arena and what it held
re-queued, and after ``max_pool_rebuilds`` replacements the campaign
degrades gracefully to this process.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
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
    SharedBaseline,
    leave_shared,
    take_shared,
    weights_digest,
)
from repro.fi.injector import (
    ComputationalFaultInjector,
    MemoryFaultInjector,
    inject,
)
from repro.fi.outcomes import Outcome, classify_direct_answer, classify_generative
from repro.fi.sites import FaultSite, LayerFilter, sample_site
from repro.generation.decode import GenerationConfig, choose_option, generate_ids
from repro.generation.round import DecodeRound, count_plan, decode_plan, pick
from repro.generation.speculative import SpeculativeDecoder
from repro.inference.engine import CaptureState, InferenceEngine
from repro.inference.kvcache import PooledKVCache
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
from repro.tasks.base import GenExample, MCExample
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
    can end before the sampled iteration, and a draft-side fault's
    round schedule may skip it.  The masking studies condition on this:
    a trial whose fault never landed measures nothing."""
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
"""Continuous-batching width of a campaign's decode rounds: the
golden-run sweep that is its fault-free baseline and the waves injected
trials decode in.  A batched step costs a fixed part (about a third of
it at width 6) plus a part per ragged row, so the wider round is fewer,
fuller steps; the slots are sized to what the cell can reach
(:meth:`FICampaign._kv_slots`), which is what keeps sixteen of them
inside the memory eight ``max_seq`` ones took."""


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
        draft_model: InferenceEngine | None = None,
        speculation_depth: int = 4,
        spec_fault_side: str | None = None,
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
        :func:`~repro.generation.round.decode_plan` finds it exact, and
        everything fault-free is read off it: the baseline is the trial
        in which no fault fires, injected generative trials decode in a
        batch round under row-scoped faults, and generative trials whose
        transient fault strikes at iteration ``k >= 1`` resume their
        example's golden run (:mod:`repro.fi.golden`) at iteration
        ``k - 1`` instead of re-decoding the fault-free prefix — without
        a single forward when the golden run ended before ``k``.  Greedy
        computational-fault trials run as *waves* (:meth:`_run_wave`):
        up to ``_DECODE_BATCH`` of them — resumed, or struck in their
        own prompt forward — share each decode step, every row
        bit-identical to the trial decoded alone.
        A multiple-choice trial under a weight or computational fault
        scores only what the fault can reach (:meth:`_option_rows`):
        the blocks from the struck one on, as rows of one forward per
        option length, over its example's golden option pass.
        ``serial`` is the whole reference, as the differential oracle
        runs it: per-sequence decode loops, one full forward per option,
        a fresh prefill and a full decode per trial and per baseline
        example, one trial at a time."""
        if draft_model is not None and (
            draft_model.config.vocab_size != engine.config.vocab_size
        ):
            raise ValueError(
                "draft_model must share the target's vocabulary:"
                f" draft has {draft_model.config.vocab_size} tokens,"
                f" target has {engine.config.vocab_size}"
            )
        self.draft_model = draft_model
        """The same-tokenizer draft engine of the ``spec_fault_side``
        study, which decodes every trial through a draft/verify pair
        drafting ``speculation_depth`` tokens per round.  Nothing else
        speculates: the baseline is read off the golden passes every
        transient-fault campaign decodes anyway, and an armed trial
        never passes :func:`~repro.generation.round.decode_plan`'s
        speculation bar."""
        self.speculation_depth = speculation_depth
        if spec_fault_side is not None:
            if spec_fault_side not in ("draft", "target"):
                raise ValueError(
                    f"spec_fault_side must be 'draft' or 'target',"
                    f" got {spec_fault_side!r}"
                )
            if draft_model is None:
                raise ValueError("spec_fault_side needs a draft_model")
            if self.is_mc:
                raise ValueError(
                    "the speculation-side study is generative-only"
                )
        self.spec_fault_side = spec_fault_side
        """Speculation-side masking study: inject every trial's fault
        into the named engine of the draft/verify pair *while decoding
        speculatively* (:meth:`SpeculativeDecoder.speculate`, the
        ungated schedule).  ``"draft"`` sites are sampled against the
        draft engine's geometry; the verification step should mask them
        all (the masking theorem in
        :mod:`repro.generation.speculative`).  ``None`` (default) keeps
        the standard single-engine trial path."""
        self.chaos = chaos
        """Optional runner-level fault injection (resilience tests)."""
        self._example_ids = [self._stable_example_id(ex) for ex in self.examples]
        self._baseline_preds: list | None = None
        self._baseline_selections: list | None = None
        self._golden: dict[int, GoldenRun | GoldenOptions | None] = {}
        """*The* fault-free pass of each example — its golden run
        (generative tasks) or golden option pass (multiple choice) —
        built by the baseline sweep, which reads the baseline off it,
        and inherited by forked pool workers copy-on-write.  Empty where
        no pass is kept (:meth:`_keeps_golden`); ``None`` marks an
        example whose golden run disagreed with a *served* baseline.
        The dict is this campaign's; the passes may be the ones an
        earlier campaign on this engine swept (:mod:`repro.fi.golden`),
        and are never written."""
        self._token_ids: list = [
            self._encode_mc(ex) if self.is_mc else tokenizer.encode(ex.prompt)
            for ex in self.examples
        ]
        """Per example, the token ids its fault-free pass runs over,
        encoded once: the prompt's, or ``(prompt, options)`` for
        multiple choice."""
        self._kv_pool: PooledKVCache | None = None
        """The ``_DECODE_BATCH`` KV slots this campaign's own forwards
        run over (the golden sweep, waves, option rows), one after the
        other."""
        self._lone_caches: list | None = None
        """The caches a trial that runs alone rewinds its example's
        golden run into (:meth:`_eval_gen`): one set per campaign,
        allocated on first use."""
        self._scored: dict[tuple[int, str], tuple[dict, Outcome]] = {}
        """``(example index, prediction text) -> (metrics, outcome)``:
        a generative prediction is scored and classified once per
        campaign (:meth:`_score`).  The baseline sweep seeds it, so the
        masked majority of trials — and forked pool workers, which
        inherit it — look their scores up."""
        self._executor = Executor()
        """Runs the trials; owns the shared weight arena and the
        persistent worker pool, which survive across
        ``run()``/``resume()`` boundaries until :meth:`close_pool`."""
        self._in_worker = False
        """True on the copy a pool worker runs (:meth:`_attached`)."""
        self._serve = None
        """Optional attached :class:`~repro.serve.server.InferenceServer`
        (:meth:`attach_server`): fault-free generative baselines submit
        as tenant traffic instead of monopolizing the engine."""
        self._serve_tenant = "campaign"
        self._serve_faults = False
        """When True (``attach_server(serve_faults=True)``), KV-fault
        trials also run *through the live server* — the fault is pinned
        to the campaign request's pool slot while other tenants' streams
        share the batch (the cross-request blast-radius mode)."""

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
        digest = hashlib.sha256(
            json.dumps(self.trial_key(trial)).encode()
        ).digest()
        words = [
            int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
        ]
        return np.random.default_rng([self.seed, *words])

    def fingerprint(self) -> dict:
        """Result-determining configuration, hashed into checkpoints.

        The one perf switch, ``decode_strategy``, is excluded on
        purpose: it cannot change TrialRecords (the differential suite
        holds it to that), so a journal written under one execution
        strategy may be resumed under the other.  The draft matters to
        the speculation-side study alone, and joins below.
        """
        fingerprint = {
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
        if self.spec_fault_side is not None:
            # The speculation-side study makes the speculative schedule
            # result-determining (strike timing depends on round
            # boundaries), so these join the fingerprint — but only
            # conditionally, preserving every existing journal's hash.
            fingerprint["spec_fault_side"] = self.spec_fault_side
            fingerprint["speculation_depth"] = self.speculation_depth
        return fingerprint

    # -- shared single-example evaluation --------------------------------------

    def _encode_mc(self, ex: MCExample) -> tuple[list[int], list[list[int]]]:
        prompt = self.tokenizer.encode(ex.prompt)
        options = [self.tokenizer.encode(o) for o in ex.options]
        return prompt, options

    def _eval_mc(self, ex: MCExample) -> int:
        prompt, options = self._encode_mc(ex)
        return choose_option(
            self.engine, prompt, options,
            strategy="full" if self.decode_strategy == "serial" else "auto",
        )

    def _option_rows(
        self,
        golden: GoldenOptions,
        site: FaultSite,
        injector: MemoryFaultInjector | ComputationalFaultInjector,
    ) -> list[float]:
        """Option scores of a trial whose fault at ``site`` is armed,
        from its example's golden pass: bit for bit what one
        ``forward_full(prompt + option)`` per option scores.

        An error only travels downstream, so the blocks below
        ``site.block`` are never recomputed.  A corrupted weight is read
        by every option's forward: each group of equally long options is
        one rows forward from the struck block on.  A computational
        fault is one-shot: in the per-option loop its hook fires in the
        first forward that runs its layer — option 0's, unless the layer
        is an MoE expert no token of that option is routed to — and
        nowhere after, so rows are recomputed alone and in order until
        it has fired, and the rest keep their golden scores.

        Only the memory leg is timed end to end (the ledger's
        ``campaign_mc_mem``).  The computational leg is exact by the
        same tests but unmeasured end to end: no ledger workload runs
        computational faults on a multiple-choice task, and no gain is
        claimed for it.
        """
        first = site.block
        pool = self._kv_slots()
        n_blocks = self.engine.config.n_blocks
        if site.fault_model.is_memory:
            count_plan("option_rows", "weight_fault")
            scores = golden.rescore(self.engine, pool, first)
            ran = len(scores)
        else:
            count_plan("option_rows", "row_scoped_hooks")
            scores = list(golden.scores)
            ran = 0
            while ran < len(scores) and not injector.fired:
                scores[ran] = golden.rescore_option(self.engine, pool, first, ran)
                ran += 1
        tel = _telemetry()
        if tel.active:
            metrics = tel.metrics
            passes = len(scores) * n_blocks
            metrics.counter("campaign.mc_golden.block_passes").add(passes)
            metrics.counter("campaign.mc_golden.block_passes_skipped").add(
                passes - ran * (n_blocks - first)
            )
            metrics.counter("campaign.mc_golden.rows_reused").add(
                len(scores) - ran
            )
        return scores

    def _eval_gen(self, ex: GenExample, golden: GoldenRun | None = None,
                  k: int = 0) -> str:
        """Decode ``ex``; with ``golden``, only from iteration ``k`` on."""
        if golden is None:
            session, prefix, config = None, [], self.generation
        else:
            if self._lone_caches is None:
                self._lone_caches = self.engine.new_caches()
            session, prefix, config = golden.resume(
                self.engine, k, self._lone_caches
            )
        ids = generate_ids(
            self.engine,
            self.tokenizer.encode(ex.prompt),
            config,
            session=session,
            strategy=self.decode_strategy,
        )
        return self.tokenizer.decode(prefix + ids)

    def _capture_selections(self) -> dict | None:
        if not self.track_expert_selection:
            return None
        assert self.engine.capture is not None
        return dict(self.engine.capture.expert_selections)

    # -- serving integration -----------------------------------------------------

    def attach_server(
        self, server, tenant: str = "campaign", serve_faults: bool = False
    ) -> None:
        """Route fault-free generative baselines through a live
        :class:`~repro.serve.server.InferenceServer` as tenant traffic.

        The campaign becomes *just another tenant*: its baseline sweep
        competes under the server's admission control and weighted
        scheduling instead of monopolizing the engine with a blocking
        library call.  Served tokens are greedy-identical to the local
        path (the serve equivalence gate), so TrialRecords are
        unchanged.  By default injected trials keep the exact local
        reference path — fault arming and serving never mix.

        ``serve_faults=True`` (KV-fault campaigns only) additionally
        routes *injected* trials through the server: each trial submits
        its prompt with the sampled KV fault attached, the server arms
        a :class:`~repro.fi.injector.KVFaultInjector` pinned to that
        request's pool slot, and the fault decodes mid-batch alongside
        whatever other tenants are streaming — the cross-request
        blast-radius mode.  Slot pinning scopes the corruption to the
        campaign's own stream (asserted by the stream-isolation tests),
        so concurrent tenant traffic is measured, not forbidden.
        """
        if self.is_mc:
            raise ValueError("serving integration is generative-only")
        if serve_faults and not self.fault_model.is_kv:
            raise ValueError(
                "serve_faults mode is KV-fault-only:"
                f" {self.fault_model.value} faults arm engine-global state"
            )
        if serve_faults and self.generation.num_beams != 1:
            raise ValueError("serve_faults mode requires greedy decoding")
        if serve_faults and self.spec_fault_side is not None:
            raise ValueError(
                "serve_faults and spec_fault_side are mutually exclusive"
            )
        if server.engine is not self.engine:
            raise ValueError("server must wrap this campaign's engine")
        if server.config.eos_id != self.generation.eos_id:
            raise ValueError(
                "server and campaign must agree on eos_id:"
                f" server {server.config.eos_id},"
                f" campaign {self.generation.eos_id}"
            )
        server.ensure_tenant(tenant)
        self._serve = server
        self._serve_tenant = tenant
        self._serve_faults = serve_faults

    def detach_server(self) -> None:
        self._serve = None
        self._serve_faults = False

    def _serve_fallback(self, reason: str) -> None:
        """An attached server declined the baseline sweep: count the
        degradation (``serve.campaign_fallback.<reason>``, rendered by
        ``repro obs report``) so silently falling back to the local
        decode path is observable instead of invisible."""
        tel = _telemetry()
        if tel.active:
            tel.metrics.counter(f"serve.campaign_fallback.{reason}").add()

    def _serve_baseline(self) -> "list[str] | None":
        """Submit the baseline sweep as tenant traffic; ``None`` without
        a server to ask (none attached, ``serial``, expert tracking) or
        when it cannot take the sweep (not running, beams, armed fault
        machinery) so the caller falls back to the local path — every
        decline increments a reason-labelled ``serve.campaign_fallback``
        counter.  Served tokens are greedy-identical whatever it drafts
        with."""
        server = self._serve
        if (
            server is None
            or self.decode_strategy == "serial"
            or self.track_expert_selection
        ):
            return None
        if not server.running:
            self._serve_fallback("not_running")
            return None
        if self.generation.num_beams != 1:
            self._serve_fallback("beam_search")
            return None
        # The pump does not plan: it steps whatever round it was built
        # with, so the plan is asked here, for the server's own draft.
        path, reason = decode_plan(self.engine, server.draft)
        if path != ("batched" if server.draft is None else "composed"):
            self._serve_fallback("fault_machinery")
            return None
        count_plan(path, reason)
        handles = [
            server.submit(
                self.tokenizer.encode(ex.prompt),
                tenant=self._serve_tenant,
                max_new_tokens=self.generation.max_new_tokens,
            )
            for ex in self.examples
        ]
        return [self.tokenizer.decode(h.result()) for h in handles]

    # -- baseline ----------------------------------------------------------------

    def compute_baseline(self) -> dict:
        """Fault-free predictions + metrics over all examples (cached).

        Where the campaign keeps golden passes (:meth:`_keeps_golden`)
        and no server decoded the baseline, the sweep is the engine's,
        not the campaign's: an earlier campaign on this engine over the
        same weights, examples and decoding config left its passes, the
        baseline read off them and their scores with the engine
        (:func:`repro.fi.golden.take_shared`), and this one starts from
        them — ``campaign.golden.shared`` counts the passes taken,
        ``.builds`` the ones decoded, and the two sum to the example
        count.  Otherwise it sweeps (after the stale entry is dropped)
        and leaves its own.  ``serial``, expert tracking, a hooked or
        armed engine and a served baseline neither read nor fill the
        entry; pool workers never get here (they inherit the baseline
        through the fork).
        """
        if self._baseline_preds is not None:
            return self._baseline_metrics
        selections: list = [None] * len(self.examples)
        preds = self._serve_baseline()
        key = None
        if preds is None and self._keeps_golden():
            key = self._shared_key()
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
            preds = [
                self._fault_free(ex, golden)
                for ex, golden in zip(self.examples, self._golden.values())
            ]
        if preds is None:
            preds, selections = [], []
            for ex in self.examples:
                if self.track_expert_selection:
                    self.engine.capture = CaptureState()
                preds.append(
                    self._eval_mc(ex) if self.is_mc else self._eval_gen(ex)
                )
                selections.append(self._capture_selections())
                self.engine.capture = None
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
        # Draft-side sites must be sampled against the *draft* engine's
        # geometry (its layers, widths and formats differ).
        side = self.spec_fault_side or "target"
        engine = self.draft_model if side == "draft" else self.engine
        return sample_site(
            engine,
            self.fault_model,
            self._trial_rng(trial),
            max_iterations=max_iterations,
            layer_filter=self.layer_filter,
            engine_side=side,
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
        and no longer: the longest prompt plus the decode budget (for
        multiple choice the longest ``prompt + option``), plus one, and
        never more than ``max_seq``.  A shorter slot changes the stride
        of a K/V view and no value in it; an overflow raises the
        ``ValueError`` a ``max_seq`` slot raises."""
        if self._kv_pool is None:
            cfg = self.engine.config
            if self.is_mc:
                reach = max(
                    len(prompt) + max(map(len, options))
                    for prompt, options in self._token_ids
                )
            else:
                reach = (
                    max(map(len, self._token_ids))
                    + self.generation.max_new_tokens
                )
            self._kv_pool = PooledKVCache(
                cfg.n_blocks, _DECODE_BATCH, cfg.n_heads,
                min(cfg.max_seq, reach + 1), cfg.head_dim,
            )
        return self._kv_pool

    def _golden_eligible(self, site: FaultSite) -> bool:
        """Whether a trial struck at ``site`` may resume a golden run.

        Safe exactly when everything before the trial's strike is
        guaranteed bit-identical to the fault-free run: a transient
        fault (computational, KV-cache or accumulator) timed at
        iteration >= 1 on a generative task.  Memory faults corrupt the
        weights every forward reads, iteration-0 faults strike the
        prefill itself, and speculation-side and served-fault trials
        decode through a different schedule entirely — all of those,
        and every trial of a campaign that keeps no golden runs
        (:meth:`_keeps_golden`), re-prefill and decode in full.  In
        full is not alone: an iteration-0 trial of a wave-capable
        campaign runs that prompt forward into a wave's slot and decodes
        beside its siblings (:meth:`_run_wave`).
        """
        model = site.fault_model
        return not (
            self.is_mc
            or self.spec_fault_side is not None
            or (self._serve is not None and self._serve_faults)
            or not (model.is_computational or model.is_kv or model.is_accumulator)
            or site.iteration == 0
            or not self._keeps_golden()
        )

    def _keeps_golden(self) -> bool:
        """Whether this campaign keeps one fault-free pass per example
        (:attr:`_golden`), asked while nothing of a trial is armed:
        ``auto``, no expert-selection tracking (which must capture every
        forward's routing), and an engine the pass is exact on —
        :func:`decode_plan` batches a decode round (generative), finds
        nothing but observers (option rows).  Elsewhere — ``serial``, a
        ranger-hooked engine — the baseline is the per-example reference
        loop and every trial computes everything."""
        if self.decode_strategy == "serial" or self.track_expert_selection:
            return False
        path, reason = decode_plan(self.engine)
        if self.is_mc:
            return reason in ("clean", "observer_hooks")
        return path == "batched"

    def _build_golden(self) -> None:
        """Every example's fault-free pass, in one sweep over the
        campaign's KV slots: one decode round (generative), one rows
        forward per example and option length (multiple choice).
        :meth:`compute_baseline` calls it only when the engine holds no
        passes for this key (and leaves the result with the engine).

        A baseline that exists already was decoded elsewhere, by a
        server: the two references are compared, never mixed — an
        example whose run is off the served one keeps none and decodes
        in full.  Those passes are this campaign's second reference and
        its alone: the engine's entry is neither read nor replaced, and
        the ``None`` marks go into this campaign's own dict."""
        pool = self._kv_slots()
        if self.is_mc:
            passes = [
                GoldenOptions.build(self.engine, prompt, options, pool)
                for prompt, options in self._token_ids
            ]
        else:
            count_plan(*decode_plan(self.engine))
            passes = GoldenRun.decode_many(
                self.engine, self._token_ids, self.generation, pool
            )
        for idx, pred in enumerate(self._baseline_preds or ()):
            if self._fault_free(self.examples[idx], passes[idx]) != pred:
                passes[idx] = None
                tel = _telemetry()
                if tel.active:
                    tel.metrics.counter("campaign.golden.baseline_mismatch").add()
        self._golden = dict(enumerate(passes))

    def _fault_free(self, ex, golden: GoldenRun | GoldenOptions) -> "str | int":
        """The prediction of the trial no fault fires in, off ``ex``'s pass."""
        if self.is_mc:
            return int(np.argmax(golden.scores))
        if self.generation.num_beams == 1:
            return self.tokenizer.decode(golden.ids)
        # The beam search resumed at ``S_0``, as beam trials run it.
        return self._eval_gen(ex, golden, 1)

    def _reach_limited(self, site: FaultSite) -> bool:
        """Whether a multiple-choice trial struck at ``site`` may score
        from its example's golden option pass (:meth:`_option_rows`).

        Asked before the fault is armed: the engine must carry nothing
        but observers, so the pass it reuses is fault-free.  Weight and
        computational faults live in one block's linears; KV-cache and
        accumulator faults arm engine-wide state and an armed flight
        recorder probes the whole struck forward — those, and every
        trial of a campaign that keeps no pass (:meth:`_keeps_golden`),
        score one full forward per option.
        """
        model = site.fault_model
        return (
            self.is_mc
            and (model.is_memory or model.is_computational)
            and not _flight().active
            and self._keeps_golden()
        )

    def _golden_run(
        self, site: FaultSite, idx: int
    ) -> GoldenRun | GoldenOptions | None:
        """The example's golden run, when the trial may resume from it
        (:meth:`_golden_eligible`; for a multiple-choice trial its
        golden option pass, :meth:`_reach_limited`).  The baseline sweep
        built it, unless a server decoded the baseline: then the first
        trial to ask builds every example's."""
        if not (self._reach_limited(site) or self._golden_eligible(site)):
            return None
        if idx not in self._golden:
            self._build_golden()
        return self._golden[idx]

    def _run_trial_impl(self, trial: int, attempt: int = 0) -> TrialRecord:
        if self.chaos is not None:
            self.chaos.strike(trial, attempt, in_worker=self._in_worker)
        idx = trial % len(self.examples)
        ex = self.examples[idx]
        site = self._trial_site(trial, self._max_fault_iter())
        recorder = _flight()
        if recorder.active:
            recorder.begin_trial(
                trial, self.trial_key(trial), site_to_dict(site), idx
            )
        golden = self._golden_run(site, idx)
        tel = _telemetry()
        if tel.active and not self.is_mc:
            name = "hits" if golden is not None else "misses"
            tel.metrics.counter(f"engine.prefill_cache_{name}").add()
        if self.track_expert_selection:
            self.engine.capture = CaptureState()
        detach_front = None
        fired = True
        try:
            if self.spec_fault_side is not None:
                # Speculation-side study: arm the sampled engine of the
                # draft/verify pair and run the speculative schedule
                # itself, ungated — measuring how it interacts with the
                # fault is the point.  No corruption-front probes: the
                # iteration ↔ forward mapping differs from the serial
                # reference.
                side_engine = (
                    self.draft_model
                    if self.spec_fault_side == "draft"
                    else self.engine
                )
                spec = SpeculativeDecoder(
                    self.engine,
                    self.draft_model,
                    self.generation,
                    speculation_depth=self.speculation_depth,
                )
                prompt = self.tokenizer.encode(ex.prompt)
                with inject(side_engine, site) as injector:
                    text = self.tokenizer.decode(
                        spec.speculate(prompt)
                    )
                fired = getattr(injector, "fired", True)
            elif (
                self._serve_faults
                and self._serve is not None
                and self._serve.running
            ):
                # Live-server blast-radius mode: the fault rides the
                # campaign's own request into the shared batch, pinned
                # to that request's pool slot by the server.
                prompt = self.tokenizer.encode(ex.prompt)
                handle = self._serve.submit(
                    prompt,
                    tenant=self._serve_tenant,
                    max_new_tokens=self.generation.max_new_tokens,
                    kv_fault=site,
                )
                text = self.tokenizer.decode(handle.result())
                fired = bool(handle.kv_fired)
            else:
                with inject(self.engine, site) as injector:
                    if recorder.active:
                        # Probes register after the injector's hook, so
                        # the struck layer's probe observes the
                        # post-injection output; observer + row-scoped
                        # registration keeps the batching/speculation
                        # gates exactly where a recorder-off run has
                        # them.
                        detach_front = recorder.attach_front(
                            self.engine, site.iteration
                        )
                    if golden is not None and self.is_mc:
                        pred_idx = int(np.argmax(
                            self._option_rows(golden, site, injector)
                        ))
                    elif self.is_mc:
                        pred_idx = self._eval_mc(ex)
                    else:
                        text = self._eval_gen(ex, golden, site.iteration)
                fired = getattr(injector, "fired", True)
        finally:
            if detach_front is not None:
                detach_front()
            selections = self._capture_selections()
            self.engine.capture = None

        assert self._baseline_preds is not None
        base_pred = self._baseline_preds[idx]
        if self.is_mc:
            correct = pred_idx == ex.answer_index
            outcome = Outcome.MASKED if correct else Outcome.SDC_SUBTLE
            record = TrialRecord(
                site=site,
                example_index=idx,
                prediction=str(pred_idx),
                outcome=outcome,
                metrics={"accuracy": 100.0 * correct},
                changed=pred_idx != base_pred,
                selection_changed=self._selection_changed(idx, selections),
                fired=fired,
            )
        else:
            record = self._gen_record(site, idx, text, fired, selections)
        if recorder.active:
            reference = (
                self._flight_reference(site, ex)
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

    def _flight_reference(self, site: FaultSite, ex) -> dict | None:
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
          ``k`` steps, capturing the last.

        Beam-search trials return ``None`` (which hypothesis a replay
        follows is not well-defined); so do strikes the faulty decode
        never reached (baseline hit EOS first — the injector never
        fired either).  The replay runs strictly *outside* the
        injection context on restored weights: a pure post-hoc read
        that cannot perturb trial results.
        """
        capture_before = self.engine.capture
        self.engine.capture = None
        try:
            if self.is_mc:
                prompt, options = self._encode_mc(ex)
                return self._captured_forward([*prompt, *options[0]])
            if self.generation.num_beams != 1 or self.spec_fault_side is not None:
                return None
            # Memory faults strike the prompt forward; every transient
            # model (computational, KV, accumulator) strikes at its
            # sampled iteration.
            strike = 0 if site.fault_model.is_memory else site.iteration
            prompt = self.tokenizer.encode(ex.prompt)
            if strike == 0:
                return self._captured_forward(prompt)
            session = self.engine.start_session(prompt)
            logits = session.last_logits
            for step in range(strike):
                token = pick(logits)
                if token == self.generation.eos_id:
                    return None  # baseline ended before the strike
                if step == strike - 1:
                    self.engine.capture = CaptureState()
                logits = session.step(token)
            return dict(self.engine.capture.layer_outputs)
        finally:
            self.engine.capture = capture_before

    def _captured_forward(self, ids: list[int]) -> dict:
        """One fault-free full forward with per-layer output capture."""
        self.engine.capture = CaptureState()
        self.engine.forward_full(ids)
        outputs = dict(self.engine.capture.layer_outputs)
        self.engine.capture = None
        return outputs

    # -- supervision -------------------------------------------------------------

    def _post_failure_repair(self) -> None:
        """Clear fault machinery a crashed trial may have left armed.

        Injector context managers restore weights and remove hooks in
        their ``finally`` paths; this is a belt-and-braces sweep for
        exceptions raised between arm and guard (e.g. a timeout signal
        landing inside ``__enter__``).
        """
        if len(self.engine.hooks):
            self.engine.hooks.clear()
        self.engine.capture = None
        # A wave interrupted between acquiring a slot and owning it
        # would leak the slot: start the next round on a fresh pool.
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

    def _wave_capable(self) -> bool:
        """Whether this campaign's trials share forwards — the wave is
        then its only decode loop: greedy generative computational-fault
        trials (a multiple-choice trial has no decode to share), and
        nothing that wants a trial to itself — chaos strikes, a flight
        recorder, expert-selection capture, the speculation-side
        schedule, or machinery on the engine that :func:`decode_plan`
        does not batch under.  Computational injectors are hooks, one
        per row; KV-cache and accumulator faults arm the engine's single
        slot, so they keep the one-trial path."""
        return (
            self.decode_strategy == "auto"
            and not self.is_mc
            and self.fault_model.is_computational
            and self.generation.num_beams == 1
            and self.chaos is None
            and not self.track_expert_selection
            and self.spec_fault_side is None
            and not _flight().active
            and decode_plan(self.engine)[0] == "batched"
        )

    def _run_wave(self, trials: list[int]) -> dict[int, TrialRecord]:
        """Decode ``trials`` as rows of one :class:`DecodeRound`.  Only
        a trial that needs golden state its example has none of (one off
        its served baseline) is left out of the returned records, for
        the one-trial path.

        A row is one trial in one pool slot, with its own budget and its
        own injector pinned to the row's id.  A trial struck at
        iteration ``k >= 1`` starts from a copy of its example's golden
        state ``S_(k-1)`` (two trials of one example may be in flight,
        so neither may own the golden run's session) with the budget the
        golden prefix left.  A trial struck at iteration 0 needs no
        golden state: the round prefills its prompt into a slot with the
        injector already armed, and it decodes beside its siblings from
        there.  That prompt forward carries the row's id
        (:meth:`DecodeRound.admit`): on the 1-D entry ``batch_row`` is
        ``None``, which every row-pinned injector answers to, so one
        that missed its own prefill (an MoE expert no prompt token was
        routed to) would strike the next sibling's.  A retiring row
        disarms its injector and frees its slot for the next pending
        trial.  The engine's batched forward is row-exact and every
        injector is row-scoped, so each row computes exactly what the
        trial computes decoded alone.
        """
        tel = _telemetry()
        traced = tel.active
        n = len(self.examples)
        max_iter = self._max_fault_iter()
        pending = deque(
            (trial, site)
            for trial in trials
            if (site := self._trial_site(trial, max_iter)).iteration == 0
            or self._golden_run(site, trial % n) is not None
        )
        records: dict[int, TrialRecord] = {}
        if not pending:
            return records
        # row key (trial) -> (site, golden prefix, the slot this method
        # acquired (None: the round's own), armed injector, t0)
        live: dict[int, tuple] = {}

        def arm(site, prefix, slot, t0, row) -> None:
            injector = ComputationalFaultInjector(
                self.engine, site, batch_row=row.id
            )
            live[row.key] = (site, prefix, slot, injector.__enter__(), t0)

        def retire(row) -> None:
            site, prefix, slot, injector, t0 = live.pop(row.key)
            injector.__exit__(None, None, None)
            if slot is not None:
                pool.release(slot)
            record = self._gen_record(
                site,
                row.key % n,
                self.tokenizer.decode(prefix + row.out),
                injector.fired,
            )
            records[row.key] = record
            if traced:
                # An iteration-0 row resumed nothing.
                name = "hits" if site.iteration else "misses"
                tel.metrics.counter(f"engine.prefill_cache_{name}").add()
                self._tally(record, t0)

        with tel.span("campaign.wave", task=self.task_name, trials=len(pending)):
            count_plan("batched", "row_scoped_hooks")
            pool = self._kv_slots()
            rnd = DecodeRound(self.engine, pool, self.generation.eos_id)
            try:
                while pending or rnd.rows:
                    while pending and pool.n_free:
                        trial, site = pending.popleft()
                        t0 = time.perf_counter()
                        if site.iteration == 0:
                            row, _, reason = rnd.admit(
                                trial,
                                self._token_ids[trial % n],
                                self.generation.max_new_tokens,
                                before_prefill=partial(arm, site, [], None, t0),
                            )
                        else:
                            golden = self._golden[trial % n]
                            slot = pool.acquire()
                            session, prefix, config = golden.resume(
                                self.engine, site.iteration, pool.caches(slot)
                            )
                            row, _, reason = rnd.admit(
                                trial, golden.prompt, config.max_new_tokens, session
                            )
                            arm(site, prefix, slot, t0, row)
                        if reason is not None:
                            # A first token that ends the row; resumed,
                            # an unreached strike: the golden run again.
                            retire(row)
                    if traced and rnd.rows:
                        tel.metrics.histogram("campaign.wave.width").observe(
                            len(rnd.rows)
                        )
                    for row, _, reason in rnd.step():
                        if reason is not None:
                            retire(row)
            finally:
                # Empty unless something raised: rows that prefilled
                # hold slots of the round's, the others ones of ours.
                for row in list(rnd.rows):
                    rnd.drop(row)
                for _, _, slot, injector, _ in live.values():
                    injector.__exit__(None, None, None)
                    if slot is not None:
                        pool.release(slot)
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
        wave at a time (:meth:`_run_wave`).  ``n_workers=0`` runs the
        batches in this process; otherwise a pre-forked persistent pool
        runs them, the same way.  Workers share one memory-mapped copy
        of the weights (per-worker incremental memory is KV caches +
        Python overhead, not the model), are dealt the next pending
        batch as they free up, and survive across ``run()``/``resume()``
        calls on this campaign.  Results are identical either way
        because every trial derives its RNG from its stable
        :meth:`trial_key`.  Telemetry, when enabled, is likewise
        schedule-invariant: worker snapshots merge in trial order.

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
        respawned against the existing shared arena, and what it still
        held re-queued, up to ``max_pool_rebuilds`` times, after which
        execution degrades to this process.
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
        """Tear down the persistent pool and arena (idempotent).

        Called automatically at garbage collection; call explicitly to
        release the worker processes early (e.g. between campaigns in a
        long-lived driver).
        """
        self._executor.close()

    def _attached(self, arena_root: Path) -> "FICampaign":
        """This campaign as a pool worker runs it: a copy over engines
        attached zero-copy to the arena under ``arena_root``.

        Called in the forked child, so everything else is the parent's
        state as the fork found it: the baseline and the golden passes
        it was read off, which a worker reads copy-on-write and never
        builds again (a pass holds no engine; a rewind is handed this
        copy's).  The KV slots stay: all free between rounds, and a
        forked worker writing its copy-on-write pages costs less than
        allocating a second pool beside them.  Serving is a
        parent-process concern: a server handle never crosses the fork.
        """
        worker = copy.copy(self)
        worker.engine = InferenceEngine.open_shared(arena_root / "target")
        draft_dir = arena_root / "draft"
        worker.draft_model = (
            InferenceEngine.open_shared(draft_dir) if draft_dir.exists() else None
        )
        worker.detach_server()
        worker._in_worker = True
        return worker
