"""Waves: injected trials that share forwards, sixteen to a round.

Under ``decode_strategy="auto"`` greedy computational-fault trials
decode as rows of one ``DecodeRound`` — each in its own pool slot, with
its own budget and its own row-pinned injector, resumed from its
example's golden run or, struck at iteration 0, prefilled into the slot
under that injector.  The engine's batched forward is row-exact, so
every record must equal the one-trial-at-a-time reference bit for bit
(:mod:`repro.fi.differential`); the tests below also pin *that* waves
ran and that no trial ran beside them, from the counters, and what
happens at their edges: a journal cut mid-wave, a trial that raises
inside one, an admission that raises, a wave that times out, and
everything that must keep a trial to itself.  Pool workers run the same
batches the in-process leg does, so they form waves too — and a worker
lost mid-wave loses nothing.
"""

import math
import os
import time
from collections import Counter

import pytest

from repro.fi import (
    CampaignChaos,
    FaultModel,
    FICampaign,
    Outcome,
    assert_records_equal,
    assert_results_equal,
    load_checkpoint,
)
from repro.fi import campaign as fi_campaign
from repro.fi.campaign import _DECODE_BATCH
from repro.fi.injector import ComputationalFaultInjector
from repro.generation.round import DecodeRound
from repro.inference import InferenceEngine
from repro.obs import flight_recorder, telemetry
from repro.tasks import (
    GSM8kTask,
    HellaSwagTask,
    MMLUTask,
    SquadTask,
    SummarizationTask,
    TranslationTask,
    standardized_subset,
)

from tests.test_golden import campaign, clean_obs  # noqa: F401 — autouse fixture
from tests.test_golden import MC_TASKS, lone_trials

TASKS = [GSM8kTask, TranslationTask, SummarizationTask, SquadTask]
COMP = [FaultModel.COMP_1BIT, FaultModel.COMP_2BIT]
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

        monkeypatch.setattr(fi_campaign, "ComputationalFaultInjector", Counted)
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
    and every trial alone under its reason.  A row is ``(multiple choice,
    fault model, campaign arguments or what to arm, "path reason")``."""

    ROWS = {
        "serial": (0, "2bits-comp", dict(decode_strategy="serial"), "reference serial"),
        "expert-tracking": (
            0, "2bits-comp", dict(track_expert_selection=True), "reference expert_tracking"
        ),
        "unscoped-hook": (0, "2bits-comp", "hook", "reference unscoped_hooks"),
        "mc-flight": (1, "1bit-comp", "flight", "reference flight"),
        "mem": (0, "2bits-mem", {}, "reference weight_fault"),
        "mc-kv": (1, "2bits-kv", {}, "reference kv_fault"),
        "mc-acc": (1, "2bits-acc", {}, "reference acc_fault"),
        "chaos": (0, "2bits-comp", dict(chaos=CampaignChaos()), "golden chaos"),
        "flight": (0, "2bits-comp", "flight", "golden flight"),
        "one-shot": (1, "1bit-comp", {}, "golden one_shot"),
        "beams": (0, "2bits-comp", dict(generation={"num_beams": 2}), "golden beam"),
        "kv": (0, "2bits-kv", {}, "golden kv_fault"),
        "acc": (0, "2bits-acc", {}, "golden acc_fault"),
    }

    @pytest.mark.parametrize("row", ROWS)
    def test_one_trial_path(self, trained_store, tokenizer, world, row):
        mc, fault, kw, plan = self.ROWS[row]
        setup, kw = (kw, {}) if isinstance(kw, str) else (None, kw)
        task = (MMLUTask if mc else TranslationTask)(world)
        camp = campaign(trained_store, tokenizer, task, FaultModel(fault), **kw)
        if setup == "hook":
            camp.engine.hooks.register("blocks.0.q_proj", lambda out, ctx: None)
        elif setup == "flight":
            flight_recorder().arm()
        assert camp.trial_plan() == tuple(plan.split())
        _, counters, waves, _ = run_traced(camp, 9)
        assert not waves and counters["campaign.trials"] == 9
        assert lone_trials(counters) == {plan.split()[1]: 9}


def _experts_only(name):
    return ".experts." in name


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

    def test_an_admission_that_raises_leaves_nothing_behind(
        self, trained_store, tokenizer, world
    ):
        task = TranslationTask(world)
        camp = campaign(
            trained_store, tokenizer, task, FaultModel.COMP_2BIT,
            max_fault_iterations=1,
        )
        camp.compute_baseline()
        pool = camp._kv_slots()
        prefill, calls = camp.engine.forward_chunk_batch, []

        def failing(*args, **kw):
            calls.append(args)
            if len(calls) == 3:  # two rows live, the third's slot acquired
                raise RuntimeError("boom")
            return prefill(*args, **kw)

        camp.engine.forward_chunk_batch = failing
        with pytest.raises(RuntimeError, match="boom"):
            camp._run_wave(list(range(9)))
        assert pool.n_free == pool.n_slots
        assert len(camp.engine.hooks) == 0
        camp._post_failure_repair()
        assert camp._kv_slots().n_free == camp._kv_slots().n_slots
        # As a run: the wave falls back, once, and nothing is lost.
        calls.clear()
        result, counters, _, _ = run_traced(camp, 9, retry_backoff=0.0)
        reference = campaign(
            trained_store, tokenizer, task, FaultModel.COMP_2BIT,
            max_fault_iterations=1, decode_strategy="serial",
        ).run(9)
        assert_results_equal(result, reference, "after the raise", "serial")
        assert counters["campaign.wave.fallbacks"] == 1
        assert lone_trials(counters) == {"wave_fallback": 9}
        assert counters["campaign.retries"] == counters["campaign.quarantined"] == 0
        assert len(camp.engine.hooks) == 0

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
        self, trained_store, tokenizer, world
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
        score = camp._gen_record

        def failing(site, *args):
            if site == reference.trials[victim].site:
                raise RuntimeError("boom")
            return score(site, *args)

        camp._gen_record = failing
        result, counters, waves, _ = run_traced(
            camp, N_TRIALS, max_retries=1, retry_backoff=0.0
        )
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
        longest = max(len(tokenizer.encode(ex.prompt)) for ex in camp.examples)
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
        # Multiple choice scores ``prompt + option`` and decodes nothing.
        mc = campaign(trained_store, tokenizer, MMLUTask(world), FaultModel.MEM_2BIT)
        longest = max(
            len(tokenizer.encode(ex.prompt)) + max(len(tokenizer.encode(o)) for o in ex.options)
            for ex in mc.examples
        )
        assert mc._kv_slots().caches(0)[0].max_seq == longest + 1
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

    @pytest.mark.parametrize("fault_model", COMP, ids=lambda m: m.value)
    def test_pooled_waves_equal_serial_and_the_in_process_tallies(
        self, trained_store, tokenizer, world, fault_model
    ):
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
        # The waves ran in the workers, a worker's even share at most each.
        assert waves and all(span.attrs["worker_pid"] for span in waves)
        assert width["max"] > 1
        assert max(span.attrs["trials"] for span in waves) <= math.ceil(N_TRIALS / 2)
        _, here, *_ = run_traced(
            campaign(trained_store, tokenizer, task, fault_model), N_TRIALS
        )
        per_trial = [
            name for name in here
            if name.startswith(("campaign.outcome.", "engine.prefill_cache_"))
        ] + ["campaign.trials", "campaign.injections", "campaign.trial_ms"]
        assert {k: counters[k] for k in per_trial} == {k: here[k] for k in per_trial}
        assert counters["campaign.trials"] == N_TRIALS
        assert counters["campaign.wave.fallbacks"] == counters["campaign.retries"] == 0

    def test_a_worker_dying_inside_its_first_wave_loses_nothing(
        self, trained_store, tokenizer, world, tmp_path, monkeypatch
    ):
        task = TranslationTask(world)
        reference = self._serial(trained_store, tokenizer, task, FaultModel.COMP_2BIT)
        exports = []
        export_shared = InferenceEngine.export_shared

        def counting_export(self, directory):
            exports.append(directory)
            return export_shared(self, directory)

        monkeypatch.setattr(InferenceEngine, "export_shared", counting_export)
        run_wave, marker = FICampaign._run_wave, tmp_path / "died"

        def dying(self, trials):
            try:
                marker.touch(exist_ok=False)  # atomic: one caller ever wins
            except FileExistsError:
                return run_wave(self, trials)
            os._exit(13)

        monkeypatch.setattr(FICampaign, "_run_wave", dying)
        ck = tmp_path / "campaign.jsonl"
        camp = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT)
        try:
            result = camp.run(N_TRIALS, n_workers=2, checkpoint=ck, retry_backoff=0.0)
        finally:
            camp.close_pool()
        assert marker.exists()
        assert_results_equal(result, reference, "after the death", "serial")
        assert len(exports) == 1  # the respawn attached the arena it found
        # The dead worker's share was in flight — re-queued one trial a
        # batch, each an attempt older; the other share never noticed.
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
    arena page."""

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
            assert camp._kv_pool.n_free == camp._kv_pool.n_slots

    def test_a_chaos_campaign_scores_each_trial_alone(
        self, trained_store, tokenizer, world
    ):
        """Chaos keeps every trial to itself; its weight fault is still
        keyed to its rows — a wave of one."""
        task = MMLUTask(world)
        chaos = CampaignChaos(fail_transient=frozenset({3}))
        result, counters, waves, _ = run_traced(
            self._campaign(trained_store, tokenizer, task, chaos=chaos),
            N_TRIALS, retry_backoff=0.0,
        )
        reference = self._campaign(
            trained_store, tokenizer, task, decode_strategy="serial"
        ).run(N_TRIALS)
        assert_results_equal(result, reference, "chaos", "serial")
        assert not waves and lone_trials(counters) == {"chaos": N_TRIALS}
        assert counters["campaign.retries"] == 1
        assert counters["decode.plan.option_rows.weight_fault"] == N_TRIALS

    def test_a_wave_that_raises_leaves_no_row_registration(
        self, trained_store, tokenizer, world
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
        assert camp.engine.row_weights == {}
        assert camp._kv_pool.n_free == camp._kv_pool.n_slots
        # As a run: the wave falls back, once, and nothing is lost.
        calls.clear()
        result, counters, _, _ = run_traced(camp, N_TRIALS, retry_backoff=0.0)
        reference = self._campaign(
            trained_store, tokenizer, task, decode_strategy="serial"
        ).run(N_TRIALS)
        assert_results_equal(result, reference, "after the raise", "serial")
        assert counters["campaign.wave.fallbacks"] == 1
        assert lone_trials(counters) == {"wave_fallback": N_TRIALS}
        assert camp.engine.row_weights == {}

    @pytest.mark.parametrize("policy", ["bf16", "int8"])
    def test_no_weight_store_is_written(self, trained_store, tokenizer, world, policy):
        """Pool workers attach every store's planes read-only, so a trial
        that wrote one would raise and fail: the records equal the serial
        ones, and the planes are still the arena's, only if none did —
        multiple-choice waves, faults keyed by row, and generative
        trials, faults swapped in engine-wide."""
        for task, n_trials in ((HellaSwagTask(world), N_TRIALS), (TranslationTask(world), 6)):
            reference = self._campaign(
                trained_store, tokenizer, task, policy, decode_strategy="serial"
            ).run(n_trials)
            camp = self._campaign(trained_store, tokenizer, task, policy)
            try:
                pooled = camp.run(n_trials, n_workers=2)
                # A worker's copy, as the pool builds it, runs a whole batch.
                worker = camp._attached(camp._executor.arena.root)
                if camp.is_mc:
                    records = worker._run_wave(list(range(n_trials)))
                else:
                    records = [worker._run_trial(trial) for trial in range(n_trials)]
            finally:
                camp.close_pool()
            assert_results_equal(pooled, reference, "pooled", "serial")
            assert_records_equal(
                [records[trial] for trial in range(n_trials)], reference,
                "a worker's batch", "serial",
            )
            for name in worker.engine.linear_layer_names():
                store = worker.engine.weight_store(name)
                planes, _ = store.export_state()
                assert store.array is planes["array"], name
                assert not any(plane.flags.writeable for plane in planes.values()), name
            assert worker.engine.row_weights == {}
