"""Waves: injected trials that share forwards, sixteen to a round.

Under ``decode_strategy="auto"`` greedy trials of every fault model
decode as rows of one ``DecodeRound`` — each in its own pool
slot, with its own budget and its own fault keyed to the row, resumed
from its example's golden run or, struck at iteration 0, prefilled into
the slot under that fault.  The engine's batched forward is row-exact, so
every record must equal the one-trial-at-a-time reference bit for bit
(:mod:`repro.fi.differential`); the tests below also pin *that* waves
ran and that no trial ran beside them, from the counters, and what
happens at their edges: a journal cut mid-wave, a trial that raises
inside one, an admission that raises, a wave that times out, and
everything that must keep a trial to itself.  Pool workers run the same
batches the in-process leg does, so they form waves too — and a worker
lost mid-wave loses nothing.  A wave runs a forward only where a trial
can differ from its golden run; planted sites pin which rows may retire
early, back on golden, and which never may.
"""

import dataclasses
import json
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fi import (
    CampaignChaos,
    FaultModel,
    FaultSite,
    FICampaign,
    Outcome,
    assert_records_equal,
    assert_results_equal,
    inject,
    load_checkpoint,
)
from repro.fi import wave as fi_wave
from repro.fi.wave import _DECODE_BATCH
from repro.fi.injector import ComputationalFaultInjector, KVFaultInjector
from repro.generation import GenerationConfig, greedy_decode
from repro.generation.round import DecodeRound
from repro.inference import InferenceEngine, Recorder
from repro.obs import flight_recorder, telemetry
from repro.tasks import (
    ARCTask,
    GSM8kTask,
    HellaSwagTask,
    MMLUTask,
    SquadTask,
    SummarizationTask,
    TranslationTask,
    standardized_subset,
)

from tests.test_golden import campaign, clean_obs  # noqa: F401 — autouse fixture
from tests.test_golden import MC_TASKS, lone_trials, pin_iteration, pin_sites
from tests.test_scaleout import identity, record_in_workers

TASKS = [GSM8kTask, TranslationTask, SummarizationTask, SquadTask]
COMP = [FaultModel.COMP_1BIT, FaultModel.COMP_2BIT]
KV_ACC = [FaultModel.KV_1BIT, FaultModel.KV_2BIT, FaultModel.ACC_1BIT, FaultModel.ACC_2BIT]
RAISE_POINTS = ["prefill1", "prefill2", "step1", "step3", "restore"]
"""Where a wave may raise: its first or second prompt forward, its first
or third step forward, a resumed row's ``restore`` callback."""
N_TRIALS = 21
"""Not a multiple of the round's width, and seven trials per example on
the helper's three examples: trials of one example share a round."""


def run_traced(camp, n_trials, **kw):
    """``(result, counters, wave spans, width histogram)`` of one run
    under telemetry; ``counters`` also holds the observation count of
    the ``campaign.trial_ms`` histogram under that name."""
    tel = telemetry()
    tel.reset()
    tel.enable()
    try:
        result = camp.run(n_trials, **kw)
        counters = Counter(
            {k: int(v) for k, v in tel.metrics.snapshot()["counters"].items()}
        )
        counters["campaign.trial_ms"] = tel.metrics.histogram("campaign.trial_ms").count
        waves = [r for r in tel.tracer.records if r.name == "campaign.wave"]
        width = tel.metrics.histogram("campaign.wave.width").summary()
    finally:
        tel.disable()
        tel.reset()
    return result, counters, waves, width


class TestWavesMatchTheReference:
    @pytest.mark.parametrize("fault_model", COMP, ids=lambda m: m.value)
    @pytest.mark.parametrize("task_cls", TASKS, ids=lambda t: t.__name__)
    def test_auto_equals_serial(
        self, trained_store, tokenizer, world, task_cls, fault_model
    ):
        task = task_cls(world)
        camp = campaign(trained_store, tokenizer, task, fault_model)
        fast, counters, waves, width = run_traced(camp, N_TRIALS)
        reference = campaign(
            trained_store, tokenizer, task, fault_model, decode_strategy="serial"
        ).run(N_TRIALS)
        assert_results_equal(fast, reference, "waves", "serial")
        # Not vacuous: trials did share forwards ...
        in_waves = sum(span.attrs["trials"] for span in waves)
        assert width["count"] > 0 and width["max"] > 1
        assert counters["campaign.wave.fallbacks"] == 0
        # ... the per-trial tallies kept their totals ...
        assert counters["campaign.trials"] == counters["campaign.trial_ms"] == N_TRIALS
        assert counters["campaign.injections"] == N_TRIALS
        assert sum(
            v for k, v in counters.items() if k.startswith("campaign.outcome.")
        ) == N_TRIALS
        assert (
            counters["engine.prefill_cache_hits"]
            + counters["engine.prefill_cache_misses"]
        ) == N_TRIALS
        # ... every trial was a wave row, resumed or prefilled there,
        # and the plan is counted once per wave ...
        assert in_waves == N_TRIALS and not lone_trials(counters)
        assert counters["engine.prefill_cache_misses"] == sum(
            t.site.iteration == 0 for t in fast.trials
        )
        assert counters["decode.plan.batched.row_scoped_hooks"] == len(waves)
        # ... and a finished run leaves nothing armed and no slot held.
        assert len(camp.engine.hooks) == 0
        assert camp._kv_pool.n_free == camp._kv_pool.n_slots

    def test_telemetry_is_a_pure_observer(self, trained_store, tokenizer, world):
        task = TranslationTask(world)
        traced, *_ = run_traced(
            campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT), N_TRIALS
        )
        plain = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT).run(
            N_TRIALS
        )
        assert_results_equal(traced, plain, "telemetry on", "telemetry off")

    def test_moe_expert_strikes(self, moe_store, tokenizer, world):
        """Expert layers see a ragged subset of each row's tokens, and
        an unrouted expert's injector retires unfired."""
        task = TranslationTask(world)
        fast, _, waves, _ = run_traced(
            campaign(moe_store, tokenizer, task, FaultModel.COMP_2BIT), N_TRIALS
        )
        reference = campaign(
            moe_store, tokenizer, task, FaultModel.COMP_2BIT,
            decode_strategy="serial",
        ).run(N_TRIALS)
        assert_results_equal(fast, reference, "waves", "serial")
        assert waves


class TestFiredInjectorsLeaveTheEngine:
    """A row's injector detaches its hook at the strike, so later steps
    skip that layer's per-row dispatch; the records, their ``fired``
    flags and the plan stay the reference's."""

    @pytest.mark.parametrize("n_workers", [0, 2], ids=["serial", "pool"])
    @pytest.mark.parametrize("fault_model", COMP, ids=lambda m: m.value)
    @pytest.mark.parametrize("store", ["trained_store", "moe_store"])
    def test_auto_equals_serial(
        self, request, tokenizer, world, store, fault_model, n_workers
    ):
        store = request.getfixturevalue(store)
        task = TranslationTask(world)
        camp = campaign(store, tokenizer, task, fault_model)
        try:
            fast, counters, waves, _ = run_traced(camp, N_TRIALS, n_workers=n_workers)
        finally:
            camp.close_pool()
        reference = campaign(
            store, tokenizer, task, fault_model, decode_strategy="serial"
        ).run(N_TRIALS)
        assert_results_equal(fast, reference, "waves", "serial")
        assert any(t.fired for t in fast.trials) and waves
        assert not lone_trials(counters) and len(camp.engine.hooks) == 0

    def test_after_each_step_only_unfired_injectors_hold_hooks(
        self, trained_store, tokenizer, world, monkeypatch
    ):
        """After every step of a wave, the engine's hooks are the ones
        that predate it (a probe on every linear here, as layer timing
        attaches) plus one per armed injector that has not fired."""
        camp = campaign(
            trained_store, tokenizer, TranslationTask(world), FaultModel.COMP_2BIT
        )
        hooks = camp.engine.hooks
        probes = [
            hooks.register(name, lambda out, ctx: None, row_scoped=True, observer=True)
            for name in camp.engine.linear_layer_names()
        ]
        armed = set()

        class Counted(ComputationalFaultInjector):
            def __enter__(self):
                armed.add(self)
                return super().__enter__()

            def __exit__(self, *exc):
                armed.discard(self)
                super().__exit__(*exc)

        seen = []
        step = DecodeRound.step

        def checked(rnd):
            events = step(rnd)
            unfired = sum(not injector.fired for injector in armed)
            seen.append((len(hooks), len(probes) + unfired, len(armed) - unfired))
            return events

        monkeypatch.setitem(
            fi_wave._ROW_KEYED, "activations",
            fi_wave._ROW_KEYED["activations"]._replace(injector=Counted),
        )
        monkeypatch.setattr(DecodeRound, "step", checked)
        try:
            result = camp.run(N_TRIALS)
        finally:
            for remove in probes:
                remove()
        assert seen and all(have == want for have, want, _ in seen)
        assert any(fired for *_, fired in seen)  # not vacuous
        assert not armed and len(hooks) == 0
        assert_results_equal(
            result,
            campaign(
                trained_store, tokenizer, TranslationTask(world), FaultModel.COMP_2BIT,
                decode_strategy="serial",
            ).run(N_TRIALS),
            "waves", "serial",
        )


class TestWhatKeepsATrialToItself:
    """``FICampaign.trial_plan``'s truth table: each row's plan, no wave,
    every trial alone under its reason, and the records — flight records
    too — the ``serial`` route's, in this process and on two workers.  A
    row is ``(multiple choice, fault model, campaign arguments or what to
    arm, "path reason")``."""

    ROWS = {
        "serial": (0, "2bits-comp", dict(decode_strategy="serial"), "reference serial"),
        "expert-tracking": (
            0, "2bits-comp", dict(track_expert_selection=True), "reference expert_tracking"
        ),
        "unscoped-hook": (0, "2bits-comp", "hook", "reference unscoped_hooks"),
        "mc-flight": (1, "1bit-comp", "flight", "reference flight"),
        "mem": (0, "2bits-mem", dict(generation={"num_beams": 2}), "reference beam"),
        "chaos": (0, "2bits-comp", dict(chaos=CampaignChaos()), "reference chaos"),
        "flight": (0, "2bits-comp", "flight", "reference flight"),
        "beams": (0, "2bits-comp", dict(generation={"num_beams": 2}), "reference beam"),
    }

    @pytest.mark.parametrize("row", ROWS)
    def test_one_trial_path(self, trained_store, tokenizer, world, row):
        mc, fault, kw, plan = self.ROWS[row]
        setup, kw = (kw, {}) if isinstance(kw, str) else (None, kw)
        task = (MMLUTask if mc else TranslationTask)(world)

        def build(**route):
            camp = campaign(
                trained_store, tokenizer, task, FaultModel(fault), **{**kw, **route}
            )
            if setup == "hook":
                camp.engine.hooks.register("blocks.0.q_proj", lambda out, ctx: None)
            return camp

        recorder = flight_recorder()
        if setup == "flight":
            recorder.arm()
        reference = build(decode_strategy="serial").run(9)
        forensics = recorder.drain()
        for workers in (0, 2):
            camp = build()
            assert camp.trial_plan() == tuple(plan.split())
            try:
                result, counters, waves, _ = run_traced(camp, 9, n_workers=workers)
            finally:
                camp.close_pool()
            assert_results_equal(result, reference, f"{workers} workers", "serial")
            # Every field but the pid of the process that ran the trial.
            assert [
                {k: v for k, v in record.items() if k != "worker_pid"}
                for record in recorder.drain()
            ] == forensics
            assert not waves and counters["campaign.trials"] == 9
            assert lone_trials(counters) == {plan.split()[1]: 9}

    # What may keep a trial to itself, in the table's order: each is a
    # ``reference`` row, but ``beam`` only for a generative campaign.
    KEEPS = ("serial", "expert_tracking", "unscoped_hooks", "beam", "chaos", "flight")

    @settings(
        max_examples=80, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        mc=st.booleans(),
        fault=st.sampled_from(FaultModel.extended()),
        keeps=st.sets(st.sampled_from(KEEPS)),
    )
    def test_property_a_trial_runs_in_a_wave_or_through_the_reference(
        self, untrained_store, tokenizer, world, mc, fault, keeps
    ):
        """Any campaign's plan, asked before a run: a wave, or the
        reference exactly when a reference row applies — the first."""
        task = (MMLUTask if mc else TranslationTask)(world)
        kw = {}
        if "serial" in keeps:
            kw["decode_strategy"] = "serial"
        if "expert_tracking" in keeps:
            kw["track_expert_selection"] = True
        if "beam" in keeps:
            kw["generation"] = {"num_beams": 2}
        if "chaos" in keeps:
            kw["chaos"] = CampaignChaos()
        camp = campaign(
            untrained_store, tokenizer, task, fault, standardized_subset(task, 2), **kw
        )
        if "unscoped_hooks" in keeps:
            camp.engine.hooks.register("blocks.0.q_proj", lambda out, ctx: None)
        recorder = flight_recorder()
        if "flight" in keeps:
            recorder.arm()
        try:
            plan = camp.trial_plan()
        finally:
            recorder.disarm()
        rows = [row for row in self.KEEPS if row in keeps and not (mc and row == "beam")]
        if rows:
            assert plan == ("reference", rows[0])
        else:
            assert plan == ("wave", fi_wave._ROW_KEYED[fault.surface].reason)


def _experts_only(name):
    return ".experts." in name


class TestKVRowsInOneWave:
    """Stream isolation, wave form: KV-faulted rows decode in one round
    beside fault-free ones, each fault registered under its row's id,
    and every row is its own serial decode — a faulted row under its
    fault armed engine-wide, a fault-free one clean.  That includes the
    row that acquires the slot of a KV row retired in the same round:
    the struck element was put back and nothing of the old row's K/V
    is read."""

    # prompt index -> (budget, iteration of its KV strike or None)
    ROWS = {0: (2, 0), 1: (6, None), 2: (6, 2), 3: (5, None), 4: (4, 1), 5: (3, None)}

    def test_every_row_is_its_own_serial_decode(self, trained_store, tokenizer, world):
        engine = InferenceEngine(trained_store)
        task = TranslationTask(world)
        prompts = [
            tokenizer.encode(ex.prompt) for ex in standardized_subset(task, len(self.ROWS))
        ]
        sites = {
            i: FaultSite(
                FaultModel.KV_1BIT, f"blocks.{i // 2 % 2}.kv", i, 2 * i, bits=(30,),
                iteration=k, row_frac=0.3 * (i % 3), plane="kv"[i // 2 % 2],
            )
            for i, (_, k) in self.ROWS.items() if k is not None
        }
        want, clean = {}, {}
        for i, (budget, _) in self.ROWS.items():
            config = GenerationConfig(max_new_tokens=budget, eos_id=-1)
            clean[i] = greedy_decode(engine, prompts[i], config, strategy="serial")
            if i in sites:
                with inject(engine, sites[i]) as injector:
                    want[i] = greedy_decode(engine, prompts[i], config, strategy="serial")
                assert injector.fired
            else:
                want[i] = clean[i]
        assert any(want[i] != clean[i] for i in sites), "every strike was masked"

        pool = engine.new_pool(3)
        rnd = DecodeRound(engine, pool, -1)
        pending, armed, slots, got = list(self.ROWS), {}, {}, {}

        def arm(i, row):
            armed[i] = KVFaultInjector(engine, sites[i], batch_row=row.id).__enter__()

        def retire(row):
            got[row.key] = row.out
            if row.key in armed:
                armed.pop(row.key).__exit__(None, None, None)

        while pending or rnd.rows:
            while pending and pool.n_free:
                i = pending.pop(0)
                row, _, reason = rnd.admit(
                    i, prompts[i], self.ROWS[i][0],
                    before_prefill=(lambda row, i=i: arm(i, row)) if i in sites else None,
                )
                slots[i] = row.slot
                if reason is not None:
                    retire(row)
            assert len(engine.kv_faults) == len(armed)
            for row, _, reason in rnd.step():
                if reason is not None:
                    retire(row)
        assert got == want
        # Prompt 3 took the slot of KV row 0, retired a round earlier.
        assert slots[3] == slots[0]
        assert engine.kv_faults == {} and pool.n_free == pool.n_slots


class TestIterationZeroRows:
    """A trial struck at iteration 0 resumes nothing: it runs its own
    prompt forward into a wave slot, injector armed, and decodes beside
    its siblings.  ``max_fault_iterations=1`` makes every trial one."""

    @pytest.mark.parametrize("n_workers", [0, 2], ids=["serial", "pool"])
    @pytest.mark.parametrize("fault_model", COMP, ids=lambda m: m.value)
    @pytest.mark.parametrize("store", ["trained_store", "moe_store"])
    def test_auto_equals_serial(
        self, request, tokenizer, world, store, fault_model, n_workers
    ):
        store = request.getfixturevalue(store)
        task = TranslationTask(world)
        camp = campaign(store, tokenizer, task, fault_model, max_fault_iterations=1)
        try:
            fast, counters, waves, width = run_traced(
                camp, N_TRIALS, n_workers=n_workers
            )
        finally:
            camp.close_pool()
        reference = campaign(
            store, tokenizer, task, fault_model,
            max_fault_iterations=1, decode_strategy="serial",
        ).run(N_TRIALS)
        assert_results_equal(fast, reference, "iteration-0 rows", "serial")
        assert not any(t.site.iteration for t in fast.trials)
        assert sum(span.attrs["trials"] for span in waves) == N_TRIALS
        assert width["max"] > 1 and not lone_trials(counters)
        # A row that prefilled resumed nothing, and is tallied so.
        assert counters["engine.prefill_cache_misses"] == N_TRIALS
        assert counters["engine.prefill_cache_hits"] == 0
        assert counters["campaign.golden.replayed_tokens"] == 0

    def test_an_unfired_injector_never_strikes_a_sibling(
        self, moe_store, tokenizer, world
    ):
        """An expert no prompt token is routed to never runs, so its
        injector outlives its own prefill — and must sit out every
        sibling's, which is why those carry their row's id."""
        task = SummarizationTask(world)
        kw = dict(max_fault_iterations=1, layer_filter=_experts_only)
        fast, counters, waves, _ = run_traced(
            campaign(moe_store, tokenizer, task, FaultModel.COMP_2BIT, **kw), 48
        )
        reference = campaign(
            moe_store, tokenizer, task, FaultModel.COMP_2BIT,
            decode_strategy="serial", **kw,
        ).run(48)
        assert_results_equal(fast, reference, "iteration-0 rows", "serial")
        unfired = [t for t in fast.trials if not t.fired]
        assert unfired and not any(t.changed for t in unfired)
        assert sum(span.attrs["trials"] for span in waves) == 48
        assert not lone_trials(counters)

    @pytest.mark.parametrize(
        "fault_model, raise_at",
        [
            (model, point)
            for model in (
                FaultModel.COMP_2BIT, FaultModel.ACC_2BIT,
                FaultModel.KV_2BIT, FaultModel.MEM_2BIT,
            )
            for point in RAISE_POINTS
            # A weight-fault row starts from its prompt: it never restores.
            if not (model.is_memory and point == "restore")
        ],
        ids=lambda p: getattr(p, "value", p),
    )
    def test_an_admission_that_raises_leaves_nothing_behind(
        self, trained_store, tokenizer, world, monkeypatch, fault_model, raise_at,
        no_backoff,
    ):
        """Wherever a wave raises — a prompt forward, a step forward, a
        resumed row's ``restore`` callback after it armed the row's
        fault — the round has released every slot and the wave disarmed
        every fault before ``_post_failure_repair`` runs: the round is
        the one slot owner."""
        task = SummarizationTask(world)  # prompts of two lengths
        kw = dict(max_fault_iterations=1) if raise_at.startswith("prefill") else {}
        camp = campaign(trained_store, tokenizer, task, fault_model, **kw)
        if raise_at == "restore":
            pin_iteration(camp, 2)
        camp.compute_baseline()
        pool = camp._kv_slots()
        engine, calls = camp.engine, []
        target, method, nth = {
            "prefill1": (engine, "forward_chunk_batch", 1),
            # The burst's second prompt forward: one group prefilled,
            # every slot of the burst acquired.
            "prefill2": (engine, "forward_chunk_batch", 2),
            "step1": (engine, "forward_step_batch", 1),
            "step3": (engine, "forward_step_batch", 3),
            "restore": (fi_wave.Wave, "_restore", 1),
        }[raise_at]

        def failing(original):
            def call(*args, **kw):
                result = original(*args, **kw)
                calls.append(args)
                if len(calls) == nth:
                    raise RuntimeError("boom")
                return result

            return call

        monkeypatch.setattr(target, method, failing(getattr(target, method)))
        with pytest.raises(RuntimeError, match="boom"):
            camp._run_wave(list(range(9)))
        assert pool.n_free == pool.n_slots
        assert len(engine.hooks) == 0
        assert engine.row_weights == engine.kv_faults == engine.acc_faults == {}
        camp._post_failure_repair()
        assert camp._kv_slots().n_free == camp._kv_slots().n_slots
        # As a run: the wave falls back, once, and nothing is lost.
        calls.clear()
        result, counters, _, _ = run_traced(camp, 9)
        reference = campaign(
            trained_store, tokenizer, task, fault_model, decode_strategy="serial", **kw
        )
        if raise_at == "restore":
            pin_iteration(reference, 2)
        assert_results_equal(result, reference.run(9), "after the raise", "serial")
        assert counters["campaign.wave.fallbacks"] == 1
        assert lone_trials(counters) == {"wave_fallback": 9}
        assert counters["campaign.retries"] == counters["campaign.quarantined"] == 0
        assert len(engine.hooks) == 0

    def test_resume_from_a_journal_cut_mid_wave(
        self, trained_store, tokenizer, world, tmp_path
    ):
        """Rows of both kinds in the wave the journal was cut in."""
        task = TranslationTask(world)
        kw = dict(max_fault_iterations=2)
        ck = tmp_path / "campaign.jsonl"
        full = campaign(
            trained_store, tokenizer, task, FaultModel.COMP_2BIT, **kw
        ).run(N_TRIALS, checkpoint=ck)
        cut = tmp_path / "cut.jsonl"
        cut.write_text("".join(ck.read_text().splitlines(keepends=True)[:6]))
        resumed, counters, waves, _ = run_traced(
            campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT, **kw),
            N_TRIALS, checkpoint=cut, resume=True,
        )
        assert_results_equal(resumed, full, "resumed", "uninterrupted")
        assert_results_equal(
            resumed,
            campaign(
                trained_store, tokenizer, task, FaultModel.COMP_2BIT,
                decode_strategy="serial", **kw,
            ).run(N_TRIALS),
            "resumed", "serial",
        )
        assert counters["campaign.resume_skipped"] == 5
        assert sum(s.attrs["trials"] for s in waves) == N_TRIALS - 5
        assert counters["engine.prefill_cache_misses"] == sum(
            t.site.iteration == 0 for t in full.trials[5:]
        ) > 0
        assert counters["engine.prefill_cache_hits"] > 0
        assert sorted(load_checkpoint(cut)[1]) == list(range(N_TRIALS))


class TestWaveEdges:
    def test_resume_from_a_journal_cut_mid_wave(
        self, trained_store, tokenizer, world, tmp_path
    ):
        task = TranslationTask(world)
        ck = tmp_path / "campaign.jsonl"
        full = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT).run(
            N_TRIALS, checkpoint=ck
        )
        assert sorted(load_checkpoint(ck)[1]) == list(range(N_TRIALS))
        # Header + five records: inside the first wave, mid-example.
        cut = tmp_path / "cut.jsonl"
        cut.write_text("".join(ck.read_text().splitlines(keepends=True)[:6]))
        assert sorted(load_checkpoint(cut)[1]) == list(range(5))
        resumed, counters, waves, _ = run_traced(
            campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT),
            N_TRIALS, checkpoint=cut, resume=True,
        )
        assert_results_equal(resumed, full, "resumed", "uninterrupted")
        assert counters["campaign.resume_skipped"] == 5
        assert waves and sum(s.attrs["trials"] for s in waves) <= N_TRIALS - 5
        assert sorted(load_checkpoint(cut)[1]) == list(range(N_TRIALS))

    def test_a_raising_trial_is_quarantined_alone(
        self, trained_store, tokenizer, world, no_backoff
    ):
        task = TranslationTask(world)
        reference = campaign(
            trained_store, tokenizer, task, FaultModel.COMP_2BIT,
            decode_strategy="serial",
        ).run(N_TRIALS)
        victim = next(
            i for i, t in enumerate(reference.trials) if t.site.iteration >= 1
        )
        camp = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT)
        score = camp._record

        def failing(site, *args):
            if site == reference.trials[victim].site:
                raise RuntimeError("boom")
            return score(site, *args)

        camp._record = failing
        result, counters, waves, _ = run_traced(camp, N_TRIALS, max_retries=1)
        assert [t.outcome is Outcome.FAILED for t in result.trials] == [
            i == victim for i in range(N_TRIALS)
        ]
        assert "boom" in result.trials[victim].error
        others = [i for i in range(N_TRIALS) if i != victim]
        assert_records_equal(
            [result.trials[i] for i in others],
            [reference.trials[i] for i in others],
            "beside the failure", "serial",
        )
        # The victim's wave fell back, once; the waves after it ran.
        assert counters["campaign.wave.fallbacks"] == 1
        assert lone_trials(counters) == {"wave_fallback": N_TRIALS}
        assert counters["campaign.quarantined"] == 1
        assert counters["campaign.trials"] == N_TRIALS
        assert len(camp.engine.hooks) == 0

    def test_a_wave_that_times_out_is_rerun_trial_by_trial(
        self, trained_store, tokenizer, world
    ):
        task = TranslationTask(world)
        camp = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT)
        run_wave, stalled = camp._run_wave, []

        def stalling(wave):
            if not stalled:
                stalled.append(len(wave))
                time.sleep(30.0)
            return run_wave(wave)

        camp._run_wave = stalling
        result, counters, _, _ = run_traced(camp, 9, trial_timeout=0.5)
        reference = campaign(
            trained_store, tokenizer, task, FaultModel.COMP_2BIT,
            decode_strategy="serial",
        ).run(9)
        assert stalled
        assert_results_equal(result, reference, "after the timeout", "serial")
        assert counters["campaign.wave.fallbacks"] == 1
        assert lone_trials(counters) == {"wave_fallback": 9}


class TestSixteenWideOverReachSizedSlots:
    def test_a_full_width_wave_equals_the_one_trial_path(
        self, trained_store, tokenizer, world
    ):
        """Rows retire while siblings decode on and pending trials take
        their slots: each record is the one the trial leaves when it
        runs alone (``_run_trial``: resumed from the same golden run, or
        prefilled, with the engine to itself)."""
        task = SummarizationTask(world)
        n = 3 * _DECODE_BATCH
        wave_camp = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT)
        wave_camp.compute_baseline()
        pool = wave_camp._kv_slots()
        widths, release = [], pool.release
        freed_at: list[int] = []

        def releasing(slot):
            freed_at.append(len(widths))
            release(slot)

        pool.release = releasing
        step = wave_camp.engine.forward_step_batch

        def stepping(tokens, *args, **kw):
            widths.append(len(tokens))
            return step(tokens, *args, **kw)

        wave_camp.engine.forward_step_batch = stepping
        records = wave_camp._run_wave(list(range(n)))
        assert sorted(records) == list(range(n))
        assert max(widths) == _DECODE_BATCH == pool.n_slots == 16
        # A row retired mid-wave and the step after it ran full again:
        # its slot was back-filled.
        assert any(
            0 < at < len(widths) and widths[at] == _DECODE_BATCH for at in freed_at
        )
        alone = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT)
        alone.compute_baseline()
        assert_records_equal(
            [records[trial] for trial in range(n)],
            [alone._run_trial(trial) for trial in range(n)],
            "wave rows", "one trial at a time",
        )
        assert pool.n_free == pool.n_slots and len(wave_camp.engine.hooks) == 0

    def test_slots_are_as_long_as_the_cell_can_reach(
        self, trained_store, tokenizer, world
    ):
        max_seq = InferenceEngine(trained_store).config.max_seq
        task = TranslationTask(world)
        camp = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT)
        longest = max(len(tokenizer.encode(ex.prompt)) for ex in camp.plan.examples)
        slots = camp._kv_slots()
        reach = longest + task.max_new_tokens + 1
        assert reach < max_seq
        assert slots.n_slots == _DECODE_BATCH
        assert {view.max_seq for view in slots.caches(0)} == {reach}
        # Never longer than the model's own limit.
        roomy = campaign(
            trained_store, tokenizer, task, FaultModel.COMP_2BIT,
            generation=dict(max_new_tokens=4 * max_seq),
        )
        assert roomy._kv_slots().caches(0)[0].max_seq == max_seq
        # A repaired campaign sizes its fresh pool the same way.
        camp._post_failure_repair()
        assert camp._kv_slots() is not slots
        assert camp._kv_slots().caches(0)[0].max_seq == reach

    def test_overflow_raises_what_a_max_seq_slot_raises(
        self, trained_store, tokenizer, world
    ):
        task = TranslationTask(world)
        camp = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT)
        engine = camp.engine
        short, full = camp._kv_slots(), engine.new_pool(1)
        errors = []
        for pool in (short, full):
            slot = pool.acquire()
            caches = pool.caches(slot)
            room = caches[0].max_seq
            engine.forward([1] * room, caches, start_pos=0, iteration=0)
            with pytest.raises(ValueError, match="KV cache overflow") as err:
                engine.forward_step_batch([1], [caches], [room], [1])
            errors.append(type(err.value))
            pool.release(slot)
        assert errors == [ValueError, ValueError]
        assert short.caches(0)[0].max_seq < full.caches(0)[0].max_seq


class TestWavesInWorkers:
    """Where a batch runs changes nothing about it: two workers decode
    their shares as waves and give the serial reference's records."""

    def _serial(self, store, tokenizer, task, fault_model):
        return campaign(
            store, tokenizer, task, fault_model, decode_strategy="serial"
        ).run(N_TRIALS)

    @pytest.mark.parametrize(
        "fault_model", [*COMP, FaultModel.ACC_2BIT, FaultModel.KV_2BIT],
        ids=lambda m: m.value,
    )
    def test_pooled_waves_equal_serial_and_the_in_process_tallies(
        self, trained_store, tokenizer, world, fault_model
    ):
        """Every trial is a wave row, none runs alone, each example's
        golden run is built once — before the fork — and the pooled
        run's per-trial and golden-run counters are the in-process
        ones."""
        task = TranslationTask(world)
        camp = campaign(trained_store, tokenizer, task, fault_model)
        try:
            pooled, counters, waves, width = run_traced(camp, N_TRIALS, n_workers=2)
        finally:
            camp.close_pool()
        assert_results_equal(
            pooled, self._serial(trained_store, tokenizer, task, fault_model),
            "pooled waves", "serial",
        )
        # The waves ran in both workers — the fork and this process —
        # a worker's even share at most each.
        pids = {span.attrs["worker_pid"] for span in waves}
        assert len(pids) == 2 and os.getpid() in pids
        assert width["max"] > 1
        assert max(span.attrs["trials"] for span in waves) <= math.ceil(N_TRIALS / 2)
        _, here, *_ = run_traced(
            campaign(trained_store, tokenizer, task, fault_model), N_TRIALS
        )
        per_trial = [
            name for name in here
            if name.startswith(("campaign.outcome.", "engine.prefill_cache_"))
        ] + [
            "campaign.trials", "campaign.injections", "campaign.trial_ms",
            "campaign.golden.builds", "campaign.golden.shared",
        ]
        assert {k: counters[k] for k in per_trial} == {k: here[k] for k in per_trial}
        assert not lone_trials(counters) and not lone_trials(here)
        # One pass per example, built before the fork; none taken from
        # an earlier campaign (each engine here is fresh).
        assert (counters["campaign.golden.builds"], counters["campaign.golden.shared"]) == (3, 0)
        assert counters["campaign.trials"] == N_TRIALS
        assert counters["campaign.wave.fallbacks"] == counters["campaign.retries"] == 0

    def test_a_worker_dying_inside_its_first_wave_loses_nothing(
        self, trained_store, tokenizer, world, tmp_path, monkeypatch, no_backoff
    ):
        task = TranslationTask(world)
        reference = self._serial(trained_store, tokenizer, task, FaultModel.COMP_2BIT)
        run_wave, marker, parent = FICampaign._run_wave, tmp_path / "died", os.getpid()

        def dying(self, trials):
            """The first wave a fork runs — the fork's share — dies,
            after writing what campaign it ran; this process's share
            never dies."""
            if os.getpid() == parent:
                return run_wave(self, trials)
            try:
                marker.touch(exist_ok=False)  # atomic: one caller ever wins
            except FileExistsError:
                return run_wave(self, trials)
            marker.write_text(json.dumps(identity(self)))
            os._exit(13)

        monkeypatch.setattr(FICampaign, "_run_wave", dying)
        seen = record_in_workers(monkeypatch, tmp_path / "workers", "_run_wave", identity)
        ck = tmp_path / "campaign.jsonl"
        camp = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT)
        try:
            result = camp.run(N_TRIALS, n_workers=2, checkpoint=ck)
        finally:
            camp.close_pool()
        assert_results_equal(result, reference, "after the death", "serial")
        # The fork that died, and any respawn dealt a wave, ran the
        # campaign the parent holds.
        assert json.loads(marker.read_text()) == identity(camp)
        assert all(facts == identity(camp) for facts in seen().values())
        # The dead fork's share was in flight — re-queued one trial a
        # batch, each an attempt older; this process's share never
        # noticed.
        _, completed, attempts = load_checkpoint(ck)
        assert sorted(completed) == list(range(N_TRIALS))
        assert Counter(attempts.values())[2] in (N_TRIALS // 2, math.ceil(N_TRIALS / 2))
        assert set(attempts.values()) == {1, 2}

    def test_resume_from_a_journal_cut_mid_batch(
        self, trained_store, tokenizer, world, tmp_path
    ):
        task = TranslationTask(world)
        ck = tmp_path / "campaign.jsonl"
        camp = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT)
        try:
            full = camp.run(N_TRIALS, n_workers=2, checkpoint=ck)
        finally:
            camp.close_pool()
        # Header + five records: inside the first unit a worker reported.
        cut = tmp_path / "cut.jsonl"
        cut.write_text("".join(ck.read_text().splitlines(keepends=True)[:6]))
        assert len(load_checkpoint(cut)[1]) == 5
        camp = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT)
        try:
            resumed, counters, waves, _ = run_traced(
                camp, N_TRIALS, n_workers=2, checkpoint=cut, resume=True
            )
        finally:
            camp.close_pool()
        assert_results_equal(resumed, full, "resumed", "uninterrupted")
        assert_results_equal(
            resumed,
            self._serial(trained_store, tokenizer, task, FaultModel.COMP_2BIT),
            "resumed", "serial",
        )
        assert counters["campaign.resume_skipped"] == 5
        assert waves and sum(s.attrs["trials"] for s in waves) <= N_TRIALS - 5
        assert sorted(load_checkpoint(cut)[1]) == list(range(N_TRIALS))


class TestMultipleChoiceWeightFaultWaves:
    """A multiple-choice trial under a weight fault reruns every option
    row from the struck block; keyed to the trial's own rows
    (``MemoryFaultInjector(rows=)``), the rows of many trials share a
    forward.  No weight store is ever written — in a pool worker, no
    page it shares with its parent."""

    def _campaign(self, store, tokenizer, task, policy="bf16", **kw):
        return campaign(
            store, tokenizer, task, FaultModel.MEM_2BIT,
            examples=standardized_subset(task, 4),
            engine=InferenceEngine(store, weight_policy=policy), **kw,
        )

    @pytest.mark.parametrize("policy", ["bf16", "int8"])
    @pytest.mark.parametrize("store", ["trained_store", "moe_store"])
    @pytest.mark.parametrize("task_cls", MC_TASKS, ids=lambda t: t.__name__)
    def test_auto_equals_serial(
        self, request, tokenizer, world, task_cls, store, policy
    ):
        store, task = request.getfixturevalue(store), task_cls(world)
        reference = self._campaign(
            store, tokenizer, task, policy, decode_strategy="serial"
        ).run(N_TRIALS)
        for workers in (0, 2):
            camp = self._campaign(store, tokenizer, task, policy)
            try:
                fast, counters, waves, width = run_traced(
                    camp, N_TRIALS, n_workers=workers
                )
            finally:
                camp.close_pool()
            assert_results_equal(fast, reference, f"waves, {workers} workers", "serial")
            assert sum(span.attrs["trials"] for span in waves) == N_TRIALS
            assert width["max"] > 1 and not lone_trials(counters)
            assert counters["decode.plan.option_rows.weight_fault"] == N_TRIALS
            assert counters["campaign.trials"] == N_TRIALS
            assert counters["campaign.trial_ms"] == N_TRIALS
            assert camp.engine.row_weights == {} and camp.engine.weight_fault_depth == 0
            # Option rows keep no K/V: a multiple-choice campaign never
            # builds a KV pool.
            assert camp._kv_pool is None

    def test_a_chaos_campaign_scores_each_trial_alone(
        self, trained_store, tokenizer, world, no_backoff
    ):
        """Chaos keeps every trial to itself: each scores its options
        through the reference, one forward per option, its weight fault
        armed engine-wide."""
        task = MMLUTask(world)
        chaos = CampaignChaos(fail_transient=frozenset({3}))
        result, counters, waves, _ = run_traced(
            self._campaign(trained_store, tokenizer, task, chaos=chaos),
            N_TRIALS,
        )
        reference = self._campaign(
            trained_store, tokenizer, task, decode_strategy="serial"
        ).run(N_TRIALS)
        assert_results_equal(result, reference, "chaos", "serial")
        assert not waves and lone_trials(counters) == {"chaos": N_TRIALS}
        assert counters["campaign.retries"] == 1
        # The baseline's option rows, then one reference pass a trial.
        assert counters["decode.plan.per_option.weight_fault"] == N_TRIALS
        assert "decode.plan.option_rows.weight_fault" not in counters

    def test_a_wave_that_raises_leaves_no_row_registration(
        self, trained_store, tokenizer, world, no_backoff
    ):
        task = MMLUTask(world)
        camp = self._campaign(trained_store, tokenizer, task)
        camp.compute_baseline()
        forward, calls = camp.engine.forward_chunk_batch, []

        def failing(*args, **kw):
            calls.append(dict(camp.engine.row_weights))
            if len(calls) == 2:
                raise RuntimeError("boom")
            return forward(*args, **kw)

        camp.engine.forward_chunk_batch = failing
        with pytest.raises(RuntimeError, match="boom"):
            camp._run_wave(list(range(N_TRIALS)))
        assert all(calls), "the forwards ran with row-keyed faults registered"
        assert camp.engine.row_weights == {} and camp._kv_pool is None
        # As a run: the wave falls back, once, and nothing is lost.
        calls.clear()
        result, counters, _, _ = run_traced(camp, N_TRIALS)
        reference = self._campaign(
            trained_store, tokenizer, task, decode_strategy="serial"
        ).run(N_TRIALS)
        assert_results_equal(result, reference, "after the raise", "serial")
        assert counters["campaign.wave.fallbacks"] == 1
        assert lone_trials(counters) == {"wave_fallback": N_TRIALS}
        assert camp.engine.row_weights == {}

    @pytest.mark.parametrize("policy", ["bf16", "int8"])
    def test_no_weight_store_is_written(
        self, trained_store, tokenizer, world, policy, tmp_path, monkeypatch
    ):
        """Every plane the engine stores is read-only before the pool
        forks, so a trial that wrote one would raise and fail, in this
        process and in the workers, which fork with the planes as they
        are: the records equal the serial ones, and after every wave a
        worker's stores read their own read-only planes again, only if
        none did — waves of multiple-choice and generative trials alike,
        each trial's weight fault keyed to its own rows."""

        def pristine(camp) -> bool:
            stores = [
                camp.engine.weight_store(name)
                for name in camp.engine.linear_layer_names()
            ]
            return camp.engine.row_weights == {} and all(
                store.array is store.planes()["array"]
                and not any(plane.flags.writeable for plane in store.planes().values())
                for store in stores
            )

        seen = record_in_workers(monkeypatch, tmp_path / "workers", "_run_wave", pristine)
        for task, n_trials in ((HellaSwagTask(world), N_TRIALS), (TranslationTask(world), 6)):
            reference = self._campaign(
                trained_store, tokenizer, task, policy, decode_strategy="serial"
            ).run(n_trials)
            camp = self._campaign(trained_store, tokenizer, task, policy)
            for name in camp.engine.linear_layer_names():
                for plane in camp.engine.weight_store(name).planes().values():
                    plane.setflags(write=False)
            try:
                pooled = camp.run(n_trials, n_workers=2)
            finally:
                camp.close_pool()
            here = camp.run(n_trials)
            assert_results_equal(pooled, reference, "pooled", "serial")
            assert_results_equal(here, reference, "in this process", "serial")
            assert seen() and all(seen().values())
            assert pristine(camp)
            for path in (tmp_path / "workers").iterdir():
                path.unlink()


class TestEveryRowKeyableFaultIsAWave:
    """Generative weight-fault trials are wave rows, each prefilled with
    its faulted weight copy keyed to ``row.id``; multiple-choice
    computational-fault trials are option rows, each hook pinned to its
    trial's row and a trial whose hook did not fire scoring its next
    option in a further forward; KV and accumulator trials are both,
    each fault registered under its row's id.  All equal the serial
    reference, in this process and on two workers, no trial runs alone,
    and every wave leaves no fault registered and the engine's hooks
    the ones it found."""

    @pytest.fixture(autouse=True)
    def checked_waves(self, monkeypatch):
        run_wave = FICampaign._run_wave

        def checked(self, trials):
            hooks = dict(self.engine.hooks._hooks)
            records = run_wave(self, trials)
            # In a pool worker a failed check is a wave fallback, which
            # the callers' ``lone_trials`` assertion reports.
            engine = self.engine
            assert engine.row_weights == engine.kv_faults == engine.acc_faults == {}
            assert engine.hooks._hooks == hooks
            return records

        monkeypatch.setattr(FICampaign, "_run_wave", checked)

    @staticmethod
    def _probed(camp):
        """``camp`` with an observer probe on every linear layer, as
        layer timing attaches them."""
        for name in camp.engine.linear_layer_names():
            camp.engine.hooks.register(
                name, lambda out, ctx: None, row_scoped=True, observer=True
            )
        return camp

    def _auto_runs(self, build, reference):
        """``(campaign, counters, wave spans, result)`` of the ``auto``
        run at 0 and at 2 workers, each checked against ``reference``
        and for what every run of waves must leave behind."""
        for workers in (0, 2):
            camp = self._probed(build())
            probes = dict(camp.engine.hooks._hooks)
            try:
                fast, counters, waves, width = run_traced(
                    camp, N_TRIALS, n_workers=workers
                )
            finally:
                camp.close_pool()
            assert_results_equal(fast, reference, f"waves, {workers} workers", "serial")
            assert sum(span.attrs["trials"] for span in waves) == N_TRIALS
            assert width["max"] > 1 and lone_trials(counters) == {}
            assert counters["campaign.trials"] == counters["campaign.trial_ms"] == N_TRIALS
            engine = camp.engine
            assert engine.row_weights == engine.kv_faults == engine.acc_faults == {}
            assert engine.weight_fault_depth == 0 and engine.hooks._hooks == probes
            yield camp, counters, waves, fast

    @pytest.mark.parametrize("policy", ["fp32", "bf16", "int8"])
    @pytest.mark.parametrize("store", ["trained_store", "moe_store"])
    def test_generative_weight_faults(self, request, tokenizer, world, store, policy):
        store, task = request.getfixturevalue(store), TranslationTask(world)

        def build(**kw):
            return campaign(
                store, tokenizer, task, FaultModel.MEM_2BIT,
                engine=InferenceEngine(store, weight_policy=policy), **kw,
            )

        assert build().trial_plan() == ("wave", "row_weight_fault")
        reference = build(decode_strategy="serial").run(N_TRIALS)
        for camp, counters, waves, fast in self._auto_runs(build, reference):
            # Every weight-fault row prefilled under its fault: none
            # resumed a golden run, and each fired.
            assert counters["engine.prefill_cache_misses"] == N_TRIALS
            assert counters["engine.prefill_cache_hits"] == 0
            assert counters["decode.plan.batched.row_weight_fault"] == len(waves)
            assert all(t.fired for t in fast.trials)

    @pytest.mark.parametrize("fault_model", COMP, ids=lambda m: m.value)
    @pytest.mark.parametrize("store", ["trained_store", "moe_store"])
    def test_multiple_choice_computational_faults(
        self, request, tokenizer, world, store, fault_model
    ):
        store, task = request.getfixturevalue(store), HellaSwagTask(world)

        def build(**kw):
            return campaign(
                store, tokenizer, task, fault_model,
                examples=standardized_subset(task, 4), **kw,
            )

        assert build().trial_plan() == ("wave", "row_scoped_hooks")
        reference = build(decode_strategy="serial").run(N_TRIALS)
        for camp, counters, waves, fast in self._auto_runs(build, reference):
            assert counters["decode.plan.option_rows.row_scoped_hooks"] == N_TRIALS
            assert any(t.fired for t in fast.trials)
            # Option rows keep no K/V.
            assert camp._kv_pool is None

    @pytest.mark.parametrize("policy", ["fp32", "bf16", "int8"])
    @pytest.mark.parametrize("store", ["trained_store", "moe_store"])
    @pytest.mark.parametrize("mc", [False, True], ids=["generative", "mc"])
    @pytest.mark.parametrize("fault_model", KV_ACC, ids=lambda m: m.value)
    def test_kv_and_accumulator_faults(
        self, request, tokenizer, world, fault_model, mc, store, policy
    ):
        store = request.getfixturevalue(store)
        task = HellaSwagTask(world) if mc else TranslationTask(world)
        reason = "kv_fault" if fault_model.is_kv else "acc_fault"

        def build(**kw):
            return campaign(
                store, tokenizer, task, fault_model,
                examples=standardized_subset(task, 4) if mc else None,
                engine=InferenceEngine(store, weight_policy=policy), **kw,
            )

        assert build().trial_plan() == ("wave", reason)
        reference = build(decode_strategy="serial").run(N_TRIALS)
        assert any(t.fired for t in reference.trials)
        for camp, counters, waves, fast in self._auto_runs(build, reference):
            if mc:
                assert counters[f"decode.plan.option_rows.{reason}"] == N_TRIALS
                assert camp._kv_pool is None
            else:
                assert counters[f"decode.plan.batched.{reason}"] == len(waves)
                # Struck at iteration 0, a row prefilled under its fault.
                assert counters["engine.prefill_cache_misses"] == sum(
                    t.site.iteration == 0 for t in fast.trials
                )

    def test_an_unfired_option_row_scores_the_next_option(
        self, moe_store, tokenizer, world
    ):
        """Struck in an MoE expert no token of option 0 is routed to, a
        trial's hook misses option 0's row and fires in a later option's,
        in a further forward of the wave; the records are still the
        reference's."""
        task = ARCTask(world)

        def build(**kw):
            return campaign(
                moe_store, tokenizer, task, FaultModel.COMP_2BIT,
                examples=standardized_subset(task, 8), **kw,
            )

        probe = build()
        engine = probe.engine
        later = {}  # example -> an expert layer only a later option runs
        for idx, (prompt, options) in enumerate(probe.plan.token_ids):
            ran = []
            for option in options:
                with Recorder(engine) as recorder:
                    engine.forward_full(prompt + option)
                ran.append({
                    (block, int(e))
                    for (_, block), top in recorder.expert_selections.items()
                    for e in np.unique(top)
                })
            for block, expert in sorted(set().union(*ran[1:]) - ran[0])[:1]:
                later[idx] = f"blocks.{block}.experts.{expert}.down_proj"
        assert len(later) > 1, "too few examples route an expert from a later option only"

        def pinned(camp):
            def site(trial, drawn):
                layer = later.get(trial % len(camp.plan.examples), drawn.layer_name)
                return dataclasses.replace(drawn, layer_name=layer)

            return pin_sites(camp, site)

        reference = pinned(build(decode_strategy="serial")).run(24)
        fast, counters, waves, _ = run_traced(pinned(build()), 24)
        assert_results_equal(fast, reference, "option-row waves", "serial")
        assert sum(span.attrs["trials"] for span in waves) == 24
        assert lone_trials(counters) == {}
        # Four options a trial: one that fired in option 0 reuses three
        # golden scores, one that never fired none.  Fewer than three a
        # fired trial: some fired in a later option's forward.
        fired = sum(t.fired for t in fast.trials)
        assert counters["campaign.mc_golden.rows_reused"] < 3 * fired


def plant(camp, **fields):
    """``camp`` with every sampled site's ``fields`` replaced."""
    return pin_sites(camp, lambda trial, site: dataclasses.replace(site, **fields))


class TestAWaveRunsOnlyWhereATrialCanDiffer:
    """A forward runs only where a trial can differ from its golden run:
    an unreached strike takes no slot, equally long prompts share one
    prompt forward, and a row that a one-shot fault (computational,
    accumulator) left on its golden state — its token and every K/V row
    the struck forward wrote bit-identical to the run's — retires at
    its struck step with the run's tokens after it.  Every record stays
    the serial reference's."""

    @pytest.mark.parametrize("policy", ["fp32", "bf16", "int8"])
    @pytest.mark.parametrize("store", ["trained_store", "moe_store"])
    @pytest.mark.parametrize("fault_model", list(FaultModel), ids=lambda m: m.value)
    def test_auto_equals_serial(
        self, request, tokenizer, world, fault_model, store, policy
    ):
        store, task = request.getfixturevalue(store), TranslationTask(world)

        def build(**kw):
            return campaign(
                store, tokenizer, task, fault_model,
                engine=InferenceEngine(store, weight_policy=policy), **kw,
            )

        reference = build(decode_strategy="serial").run(N_TRIALS)
        one_shot = fault_model.is_computational or fault_model.is_accumulator
        for workers in (0, 2):
            camp = build()
            try:
                fast, counters, waves, _ = run_traced(camp, N_TRIALS, n_workers=workers)
            finally:
                camp.close_pool()
            assert_results_equal(fast, reference, f"waves, {workers} workers", "serial")
            assert sum(span.attrs["trials"] for span in waves) == N_TRIALS
            assert not lone_trials(counters)
            # The prefill tally keeps its meaning: an unreached strike
            # counts as resumed, though it takes no slot.
            assert (
                counters["engine.prefill_cache_hits"]
                + counters["engine.prefill_cache_misses"]
            ) == N_TRIALS
            starts = sum(
                t.site.iteration == 0 or fault_model.is_memory for t in fast.trials
            )
            assert counters["campaign.wave.prompt_rows"] == starts
            assert counters["engine.prefill_cache_misses"] == starts
            assert counters["campaign.wave.prompt_forwards"] <= starts
            # Some one-shot rows leave the round back on golden; no KV or
            # weight-fault row ever does.
            exits = counters["campaign.wave.back_on_golden"]
            assert exits > 0 if one_shot else exits == 0
            assert camp._kv_pool is None or camp._kv_pool.n_free == camp._kv_pool.n_slots

    def _planted(self, store, tokenizer, world, fault_model, **fields):
        """``(result, counters, entries)`` of a wave run with ``fields``
        planted in every site, its records checked against the serial
        reference; ``entries`` maps each wave row's id to the entry block
        of every step forward it took part in (0: whole)."""
        task = TranslationTask(world)
        camp = plant(campaign(store, tokenizer, task, fault_model), **fields)
        camp.compute_baseline()  # the golden sweep's steps are not the wave's
        entries = defaultdict(list)
        step = camp.engine.forward_step_batch

        def spy(*args, enter=None, **kw):
            for i, row in enumerate(args[4]):
                entries[row].append(0 if enter is None or enter[i] is None else enter[i][0])
            return step(*args, enter=enter, **kw)

        camp.engine.forward_step_batch = spy
        fast, counters, waves, _ = run_traced(camp, N_TRIALS)
        assert len(waves) == 1  # row ids name one row each
        reference = plant(
            campaign(store, tokenizer, task, fault_model, decode_strategy="serial"),
            **fields,
        ).run(N_TRIALS)
        assert_results_equal(fast, reference, "waves", "serial")
        assert not lone_trials(counters) and any(t.fired for t in fast.trials)
        assert counters["campaign.wave.replayed_blocks"] == sum(map(sum, entries.values()))
        assert counters["campaign.wave.row_blocks"] == camp.engine.config.n_blocks * sum(
            map(len, entries.values())
        )
        return fast, counters, entries

    def test_a_strike_that_only_reaches_the_logits_exits(
        self, trained_store, tokenizer, world
    ):
        """The last block's ``down_proj`` output reaches no K/V, and its
        lowest mantissa bit moves no token: every fired row exits."""
        last = InferenceEngine(trained_store).config.n_blocks - 1
        fast, counters, _ = self._planted(
            trained_store, tokenizer, world, FaultModel.COMP_1BIT,
            layer_name=f"blocks.{last}.down_proj", bits=(0,),
        )
        assert not any(t.changed for t in fast.trials)
        assert counters["campaign.wave.back_on_golden"] == sum(
            t.fired for t in fast.trials
        )

    def test_a_token_kept_over_other_kv_bits_does_not_exit(
        self, trained_store, tokenizer, world
    ):
        """Struck in block 0's ``down_proj`` output, a low mantissa bit
        keeps every token golden's but moves the K/V later blocks write
        at the struck position in their low bits — within ``allclose``,
        not bit-identical: no row exits."""
        fast, counters, _ = self._planted(
            trained_store, tokenizer, world, FaultModel.COMP_1BIT,
            layer_name="blocks.0.down_proj", bits=(2,),
        )
        assert not any(t.changed for t in fast.trials)
        assert counters["campaign.wave.back_on_golden"] == 0

    def test_a_strike_below_the_last_block_replays_the_blocks_below(
        self, trained_store, tokenizer, world
    ):
        """Struck in the ``q_proj`` output of the block below the last,
        a low mantissa bit leaves that block's K/V golden's — queries
        write none — and every token golden's.  A resumed row's struck
        forward enters at the struck block; every later forward of a row
        not back on golden enters at the last block, for the rest of its
        decode: the blocks below replay the golden run, counted."""
        last = InferenceEngine(trained_store).config.n_blocks - 1
        fast, counters, entries = self._planted(
            trained_store, tokenizer, world, FaultModel.COMP_1BIT,
            layer_name=f"blocks.{last - 1}.q_proj", bits=(0,),
        )
        assert not any(t.changed for t in fast.trials)
        assert counters["campaign.wave.diverged"] == 0
        for steps in entries.values():
            assert steps[0] in (last - 1, last) and set(steps[1:]) <= {last}
        assert any(steps[0] == last - 1 for steps in entries.values())
        assert sum(len(steps) > 1 for steps in entries.values()) > 2
        assert counters["campaign.wave.replayed_blocks"] > 0

    def test_a_strike_that_moves_the_token_diverges_and_runs_whole(
        self, trained_store, tokenizer, world
    ):
        """An exponent bit in the ``down_proj`` output of the block below
        the last moves the struck forward's token: the row fills the
        blocks below its entry from the golden run and runs whole from
        then on — records still the serial reference's."""
        last = InferenceEngine(trained_store).config.n_blocks - 1
        fast, counters, entries = self._planted(
            trained_store, tokenizer, world, FaultModel.COMP_1BIT,
            layer_name=f"blocks.{last - 1}.down_proj", bits=(30,),
        )
        assert any(t.changed for t in fast.trials)
        diverged = 0
        for steps in entries.values():
            whole = [i for i, block in enumerate(steps) if block == 0]
            if whole and any(steps[: whole[0]]):
                diverged += 1
            assert not any(steps[whole[0]:]) if whole else True
        assert counters["campaign.wave.diverged"] == diverged > 0

    @pytest.mark.parametrize(
        "fault_model, fields",
        [
            (FaultModel.KV_1BIT, dict(layer_name="blocks.2.kv", plane="k", row_frac=0.0)),
            (FaultModel.KV_2BIT, dict(layer_name="blocks.2.kv", plane="v", row_frac=0.0)),
            (FaultModel.MEM_2BIT, dict(layer_name="blocks.2.down_proj", row=3, col=5)),
        ],
        ids=["1bit-kv", "2bits-kv", "2bits-mem"],
    )
    def test_kv_and_weight_faults_never_exit(
        self, trained_store, tokenizer, world, fault_model, fields
    ):
        """Low bits in the last block: the struck forward writes golden
        K/V and picks golden's token, but the fault outlives it — a K/V
        position the check does not read, a weight every later forward
        reads — so the row decodes on."""
        bits = (0,) if fault_model.n_bits == 1 else (0, 1)
        fast, counters, entries = self._planted(
            trained_store, tokenizer, world, fault_model, bits=bits, **fields
        )
        assert counters["campaign.wave.back_on_golden"] == 0
        # Nor does one replay a block: its rows carry no entry.
        assert counters["campaign.wave.replayed_blocks"] == 0
        assert counters["campaign.wave.diverged"] == 0
