"""Golden-run fast-forward: an injected trial resumes at its fault iteration.

``decode_strategy="auto"`` decodes each example once fault-free
(:mod:`repro.fi.golden`), reads the baseline off that pass and starts
every eligible trial at the state just before its strike; ``"serial"``
re-prefills and re-decodes in full.
Every test here holds the two to bit-identical records through
:mod:`repro.fi.differential`, then pins *which* path ran by its exact
counters — so a fast path that quietly stopped being taken fails too.

Multiple-choice trials have the spatial twin (``TestReachLimitedOptions``):
one fault-free scoring pass per example, and a trial computes only the
blocks and option rows its fault can reach.  Their records carry the
argmax alone, so there equality is asserted on the option *score
vectors*, under the armed fault, against ``score_options`` — the
per-option reference.
"""

import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.fi import (
    FaultModel,
    FaultSite,
    FICampaign,
    assert_records_equal,
    assert_results_equal,
    load_checkpoint,
)
from repro.fi import options as options_module
from repro.fi.golden import GoldenOptions, GoldenRun
from repro.fi.options import admits_sharing, option_scores
from repro.fi.injector import inject
from repro.generation import (
    GenerationConfig,
    beam_search_decode,
    greedy_decode,
    score_options,
)
from repro.inference import InferenceEngine, Recorder
from repro.mitigation import RangeRestrictor
from repro.obs import flight_recorder, telemetry
from repro.obs.export import read_run
from repro.tasks import (
    ARCTask,
    GSM8kTask,
    HellaSwagTask,
    MMLUTask,
    SquadTask,
    SummarizationTask,
    TranslationTask,
    TruthfulQATask,
    WinoGrandeTask,
    standardized_subset,
)

from tests.test_differential import make_campaign
from tests.test_scaleout import identity, record_in_workers

PARENT_JOURNAL = Path(__file__).parent / "data" / "journal_pr14_wmt16_2bits-comp.jsonl"
"""Four trials of ``make_campaign(untrained_store, …, "gen", COMP_2BIT)``
journalled by the commit before the golden-run cache (its ``git_rev``
header says which)."""
PARENT_MC_JOURNAL = Path(__file__).parent / "data" / "journal_pr17_mmlu_2bits-mem.jsonl"
"""Four trials of ``make_campaign(untrained_store, …, "mc", MEM_2BIT)``
journalled by the commit before reach-limited option scoring."""


@pytest.fixture(autouse=True)
def clean_obs():
    tel, recorder = telemetry(), flight_recorder()
    tel.reset(), tel.disable()
    recorder.reset(), recorder.disarm()
    yield
    tel.reset(), tel.disable()
    recorder.reset(), recorder.disarm()


def campaign(store, tokenizer, task, fault_model, examples=None, **kw):
    generation = dict(
        max_new_tokens=task.max_new_tokens, eos_id=tokenizer.vocab.eos_id
    )
    generation.update(kw.pop("generation", {}))
    return FICampaign(
        engine=kw.pop("engine", None) or InferenceEngine(store),
        tokenizer=tokenizer,
        task_name=task.name,
        metrics=task.metrics,
        examples=examples or standardized_subset(task, 3),
        fault_model=fault_model,
        seed=13,
        generation=GenerationConfig(**generation),
        **kw,
    )


def pin_sites(camp, edit):
    """``camp`` with every trial's sampled site replaced by ``edit(trial,
    site)``: its plan swapped for one whose :meth:`CellPlan.site` does
    that (a plan is frozen; pool workers fork with the swapped one)."""
    plan = camp.plan

    class Pinned(type(plan)):
        def site(self, engine, trial):
            return edit(trial, super().site(engine, trial))

    fields = {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan)}
    camp.plan = Pinned(**fields)
    return camp


def pin_iteration(camp, k):
    """Every trial of ``camp`` strikes at iteration ``k``."""
    return pin_sites(camp, lambda trial, site: dataclasses.replace(site, iteration=k))


def traced_counters(camp, n_trials, **kw):
    """``(result, counters)`` of one run under telemetry: every counter
    by its full name, 0 for one that never counted."""
    tel = telemetry()
    tel.reset()
    tel.enable()
    try:
        result = camp.run(n_trials, **kw)
        counters = tel.metrics.snapshot()["counters"]
    finally:
        tel.disable()
        tel.reset()
    return result, Counter({name: int(v) for name, v in counters.items()})


def run_counted(camp, n_trials, **kw):
    """:func:`traced_counters` with ``campaign.golden.*`` and ``engine.*``
    by their last name, and nothing else."""
    result, counters = traced_counters(camp, n_trials, **kw)
    return result, Counter({
        name.removeprefix("campaign.golden.").removeprefix("engine."): v
        for name, v in counters.items()
        if name.startswith(("campaign.golden.", "engine."))
    })


def lone_trials(counters) -> dict:
    """``{reason: trials}`` that ran alone, off a run's full counters."""
    prefix = "campaign.lone_trials."
    return {
        name.removeprefix(prefix): n
        for name, n in counters.items()
        if name.startswith(prefix) and n
    }


def golden_length(store, tokenizer, task, ex, **generation):
    config = GenerationConfig(
        **{"max_new_tokens": task.max_new_tokens,
           "eos_id": tokenizer.vocab.eos_id, **generation}
    )
    run = GoldenRun.decode_many(
        InferenceEngine(store), [tokenizer.encode(ex.prompt)], config
    )[0]
    return len(run.ids)


TRANSIENT = [
    (FaultModel.COMP_1BIT, GSM8kTask),
    (FaultModel.COMP_2BIT, TranslationTask),
    (FaultModel.KV_1BIT, SummarizationTask),
    (FaultModel.KV_2BIT, SquadTask),
    (FaultModel.ACC_1BIT, TranslationTask),
    (FaultModel.ACC_2BIT, SummarizationTask),
]


class TestFastForwardMatchesReference:
    @pytest.mark.parametrize(
        "fault_model,task_cls", TRANSIENT,
        ids=[f"{m.value}-{t.__name__}" for m, t in TRANSIENT],
    )
    def test_transient_fault_models(
        self, trained_store, tokenizer, world, fault_model, task_cls
    ):
        task = task_cls(world)
        fast, counters = run_counted(
            campaign(trained_store, tokenizer, task, fault_model), 12
        )
        reference = campaign(
            trained_store, tokenizer, task, fault_model,
            decode_strategy="serial",
        ).run(12)
        assert_results_equal(fast, reference, "auto", "serial")
        # The comparison is not vacuous: trials did resume mid-run.
        assert counters["prefill_cache_hits"] + counters["prefill_cache_misses"] == 12
        assert counters["replayed_tokens"] > 0
        assert counters["builds"] <= 3

    @pytest.fixture()
    def one(self, trained_store, tokenizer, world):
        """One wmt16 example whose golden run ends at EOS after ``n``
        tokens, well inside the budget."""
        task = TranslationTask(world)
        ex = standardized_subset(task, 1)[0]
        n = golden_length(trained_store, tokenizer, task, ex)
        assert 1 < n < task.max_new_tokens - 1
        return task, ex, n

    def pinned_pair(self, store, tokenizer, one, k, fault=FaultModel.COMP_2BIT, trials=5):
        task, ex, _ = one
        fast, counters = run_counted(
            pin_iteration(campaign(store, tokenizer, task, fault, [ex]), k),
            trials,
        )
        reference = pin_iteration(
            campaign(store, tokenizer, task, fault, [ex], decode_strategy="serial"),
            k,
        ).run(trials)
        assert_results_equal(fast, reference, "auto", "serial")
        return fast, counters

    def test_strike_at_first_decode_step(self, trained_store, tokenizer, one):
        fast, counters = self.pinned_pair(trained_store, tokenizer, one, k=1)
        assert counters["builds"] == 1
        assert counters["prefill_cache_hits"] == 5
        assert counters["replayed_tokens"] == 0
        assert counters["unreached"] == 0
        assert all(t.fired for t in fast.trials)

    def test_strike_on_the_eos_forward(self, trained_store, tokenizer, one):
        """``k == len(golden)``: the last forward that exists."""
        n = one[2]
        fast, counters = self.pinned_pair(trained_store, tokenizer, one, k=n)
        assert counters["replayed_tokens"] == 5 * (n - 1)
        assert counters["unreached"] == 0
        assert all(t.fired for t in fast.trials)

    @pytest.mark.parametrize(
        "fault", [FaultModel.COMP_2BIT, FaultModel.KV_2BIT, FaultModel.ACC_2BIT],
        ids=lambda m: m.value,
    )
    def test_first_unreached_iteration_runs_no_forward(
        self, trained_store, tokenizer, one, fault
    ):
        """``k == len(golden) + 1``: the trial is the golden run."""
        task, ex, n = one
        camp = pin_iteration(
            campaign(trained_store, tokenizer, task, fault, [ex]), n + 1
        )
        camp.compute_baseline()
        fast, counters = run_counted(camp, 5)
        reference = pin_iteration(
            campaign(trained_store, tokenizer, task, fault, [ex],
                     decode_strategy="serial"),
            n + 1,
        ).run(5)
        assert_results_equal(fast, reference, "auto", "serial")
        assert counters["unreached"] == 5
        assert counters["replayed_tokens"] == 5 * n
        # The baseline sweep decoded the run: the trials ran no forward.
        assert counters["forward_calls"] == 0 and counters["builds"] == 0
        assert not any(t.fired or t.changed for t in fast.trials)

    def test_golden_run_limited_by_the_budget(self, trained_store, tokenizer, one):
        """``len(golden) == max_new``: no EOS, every sampled k reachable."""
        task, ex, n = one
        budget = dict(generation={"max_new_tokens": n - 2})
        assert golden_length(
            trained_store, tokenizer, task, ex, **budget["generation"]
        ) == n - 2
        fast, counters = run_counted(
            campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT,
                     [ex], **budget),
            16,
        )
        reference = campaign(
            trained_store, tokenizer, task, FaultModel.COMP_2BIT, [ex],
            decode_strategy="serial", **budget,
        ).run(16)
        assert_results_equal(fast, reference, "auto", "serial")
        assert counters["unreached"] == 0
        assert {t.site.iteration for t in fast.trials} >= {1, n - 3}
        assert all(t.fired for t in fast.trials)

    def test_ineligible_trials_prefill_fresh(self, trained_store, tokenizer, one):
        """Iteration-0 strikes and memory faults never touch the cache:
        the one run built is the baseline's."""
        _, counters = self.pinned_pair(trained_store, tokenizer, one, k=0)
        assert counters["prefill_cache_misses"] == 5
        assert counters["builds"] == 1 and counters["prefill_cache_hits"] == 0
        _, counters = self.pinned_pair(
            trained_store, tokenizer, one, k=3, fault=FaultModel.MEM_2BIT
        )
        assert counters["prefill_cache_misses"] == 5
        assert counters["builds"] == 1 and counters["replayed_tokens"] == 0

    def test_beam_search_runs_the_reference(
        self, trained_store, tokenizer, world
    ):
        """A beam campaign keeps no golden run: every trial decodes its
        beams from the prompt, its fault armed engine-wide."""
        task = TranslationTask(world)
        beams = dict(generation={"num_beams": 3, "max_new_tokens": 6})
        fast, counters = run_counted(
            campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT, **beams),
            9,
        )
        reference = campaign(
            trained_store, tokenizer, task, FaultModel.COMP_2BIT,
            decode_strategy="serial", **beams,
        ).run(9)
        assert_results_equal(fast, reference, "auto", "serial")
        assert counters["builds"] == counters["shared"] == 0
        assert counters["prefill_cache_misses"] == 9
        assert counters["prefill_cache_hits"] == 0

    def test_a_traced_beam_campaign_counts_alike_on_two_workers(
        self, trained_store, tokenizer, world, tmp_path
    ):
        """A traced beam ``2bits-comp`` campaign, exported and read back,
        in this process and on two workers: the same outcomes, the beam
        loop's batched leg stepping the hypotheses under the armed
        computational fault in both, every trial alone for ``beam`` and
        no golden run built."""
        task = TranslationTask(world)
        runs = []
        for workers in (0, 2):
            camp = campaign(
                trained_store, tokenizer, task, FaultModel.COMP_2BIT,
                engine=InferenceEngine(trained_store, weight_policy="bf16"),
                generation={"num_beams": 3},
            )
            tel = telemetry()
            tel.reset(), tel.enable()
            try:
                camp.run(12, n_workers=workers)
                path = tel.flush(
                    tmp_path / f"beam-{workers}.jsonl", seed=13, command="test"
                )
            finally:
                camp.close_pool()
                tel.disable(), tel.reset()
            runs.append({
                name: int(counter.value)
                for name, counter in read_run(path).metrics.counters.items()
            })
        serial, pooled = (
            {
                name: n for name, n in counters.items()
                if name.startswith("campaign.outcome.")
                or name == "decode.plan.batched.row_scoped_hooks"
            }
            for counters in runs
        )
        assert serial == pooled
        assert serial["decode.plan.batched.row_scoped_hooks"] > 0
        for counters in runs:
            assert lone_trials(counters) == {"beam": 12}
            assert "campaign.golden.builds" not in counters

    def test_workers_inherit_the_parents_runs(
        self, trained_store, tokenizer, world, tmp_path, monkeypatch
    ):
        def runs(camp):
            return {
                str(idx): [id(run.ids), id(run.snaps)]
                for idx, run in camp._golden.items()
            }

        seen = record_in_workers(
            monkeypatch, tmp_path / "workers", "_run_wave",
            lambda camp: [identity(camp), runs(camp)],
        )
        task = TranslationTask(world)
        camp = campaign(trained_store, tokenizer, task, FaultModel.KV_2BIT)
        try:
            pooled, counters = run_counted(camp, 12, n_workers=2)
        finally:
            camp.close_pool()
        reference = campaign(
            trained_store, tokenizer, task, FaultModel.KV_2BIT,
            decode_strategy="serial",
        ).run(12)
        assert_results_equal(pooled, reference, "pooled auto", "serial")
        # One run per example, decoded by the baseline before the fork,
        # and the fork's waves (this process runs the other share)
        # resumed those very runs — the parent's objects, at the
        # parent's addresses — on the parent's engine.
        assert counters["builds"] == len(camp._golden) == len(camp.plan.examples)
        workers = seen()
        assert len(workers) == 1
        assert all(facts == [identity(camp), runs(camp)] for facts in workers.values())
        # A run holds no engine and no session: a wave hands the rewind
        # the engine it runs on.
        for run in camp._golden.values():
            assert not any(
                isinstance(value, InferenceEngine) or hasattr(value, "engine")
                for value in vars(run).values()
            )

    def test_each_distinct_prediction_is_scored_once(
        self, trained_store, tokenizer, world, monkeypatch
    ):
        """Most strikes are masked, so most predictions repeat: equal
        ``(example, prediction)`` pairs share one scoring and one
        classification, and still every record owns its ``metrics``."""
        from repro.fi import campaign as campaign_module

        scored = []
        score = campaign_module.score_generative

        def counting(metrics, predictions, examples):
            scored.append(len(predictions))
            return score(metrics, predictions, examples)

        monkeypatch.setattr(campaign_module, "score_generative", counting)
        task = TranslationTask(world)
        camp = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT)
        result = camp.run(24)
        calls = list(scored)
        reference = campaign(
            trained_store, tokenizer, task, FaultModel.COMP_2BIT,
            decode_strategy="serial",
        ).run(24)
        assert_results_equal(result, reference, "auto", "serial")
        groups: dict = {}
        for t in result.trials:
            groups.setdefault((t.example_index, t.prediction), []).append(t)
        assert any(len(group) > 1 for group in groups.values())
        owned = {id(t.metrics) for t in result.trials}
        assert len(owned) == 24
        for pair, group in groups.items():
            memo = camp._scored[pair][0]
            assert id(memo) not in owned
            assert all(t.metrics == memo for t in group)
            assert all(t.metrics == r.metrics for t, r in zip(group, group[1:]))
        baselines = set(enumerate(camp._baseline_preds))
        # One corpus-level baseline score, then one per distinct pair.
        assert calls == [3] + [1] * len(set(groups) | baselines)
        # A caller who edits a record's metrics edits nothing else.
        result.trials[0].metrics.clear()
        assert all(t.metrics for t in result.trials[1:])
        assert all(metrics for metrics, _ in camp._scored.values())

    def test_beam_baseline_is_the_unstruck_beam_trial(
        self, trained_store, tokenizer, world
    ):
        """The reference beam search: ``serial``'s predictions, for the
        work of decoding each example's beams once — counted in tokens
        forwarded — and no golden run built beside it."""
        task = TranslationTask(world)
        beams = dict(generation={"num_beams": 3, "max_new_tokens": 6})

        def forwards(fn):
            tel = telemetry()
            tel.reset(), tel.enable()
            try:
                fn()
                counters = tel.metrics.snapshot()["counters"]
                assert "campaign.golden.builds" not in counters
                return counters["engine.tokens"]
            finally:
                tel.disable(), tel.reset()

        fast = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT, **beams)
        reference = campaign(
            trained_store, tokenizer, task, FaultModel.COMP_2BIT,
            decode_strategy="serial", **beams,
        )
        n_baseline = forwards(fast.compute_baseline)
        n_once = forwards(lambda: [
            beam_search_decode(
                fast.engine, tokenizer.encode(ex.prompt), fast.plan.generation
            )
            for ex in fast.plan.examples
        ])
        assert n_baseline == n_once
        assert fast.compute_baseline() == reference.compute_baseline()
        assert fast._baseline_preds == reference._baseline_preds
        assert fast._golden == {}

    @pytest.mark.parametrize("guard", ["ranger", "unscoped-hook"])
    def test_a_guarded_engine_keeps_no_pass(
        self, trained_store, tokenizer, world, guard
    ):
        """``decode_plan`` does not batch under an unscoped perturbing
        hook, so no pass is exact there: the reference loop is the
        baseline and every trial decodes in full."""
        task = TranslationTask(world)

        def build(**kw):
            camp = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT, **kw)
            if guard == "ranger":
                ranger = RangeRestrictor()
                ranger.calibrate(
                    camp.engine, [tokenizer.encode(ex.prompt) for ex in camp.plan.examples]
                )
                ranger.install(camp.engine)
            else:
                # Declared perturbing and unscoped; it alters nothing.
                camp.engine.hooks.register("blocks.0.q_proj", lambda out, ctx: None)
            return camp

        camp = build()
        fast, counters = run_counted(camp, 12)
        assert_results_equal(
            fast, build(decode_strategy="serial").run(12), "auto", "serial"
        )
        assert counters["builds"] == 0 and camp._golden == {}
        assert counters["prefill_cache_misses"] == 12


class TestResumeAndForensics:
    def test_resumes_a_journal_written_by_the_parent_commit(
        self, untrained_store, tokenizer, world, tmp_path
    ):
        """``fingerprint()`` / ``campaign_hash`` did not move: a journal
        from before the golden-run cache is adopted and completed."""
        ck = tmp_path / "campaign.jsonl"
        ck.write_bytes(PARENT_JOURNAL.read_bytes())
        header, done, _ = load_checkpoint(ck)
        assert header["git_rev"].startswith("2e1b6e2") and len(done) == 4
        resumed = make_campaign(
            untrained_store, tokenizer, world, "gen", FaultModel.COMP_2BIT
        ).resume(ck, 10)
        full = make_campaign(
            untrained_store, tokenizer, world, "gen", FaultModel.COMP_2BIT,
            decode_strategy="serial",
        ).run(10)
        assert_results_equal(resumed, full, "resumed", "uninterrupted serial")

    def test_flight_recorder_stays_a_pure_observer(
        self, trained_store, tokenizer, world
    ):
        task = TranslationTask(world)
        plain = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT).run(12)
        recorder = flight_recorder().arm()
        armed = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT).run(12)
        assert_results_equal(armed, plain, "recorder on", "recorder off")
        struck_later = 0
        for trial, record in zip(armed.trials, recorder.drain()):
            if trial.site.iteration == 0:
                continue
            struck_later += 1
            if trial.fired:
                # The struck forward was still replayed fault-free and
                # compared layer by layer; the strike shows in the front.
                assert any(e["event"] == "inject.fire" for e in record["events"])
                struck = [
                    e for e in record["front"]
                    if e["layer"] == trial.site.layer_name
                ]
                assert struck and struck[0]["corrupted"] >= 1
            else:
                assert record["front"] is None
        assert struck_later >= 8


class TestGoldenRun:
    def test_decode_stops_where_the_decode_round_stops(
        self, trained_store, tokenizer, world
    ):
        task = TranslationTask(world)
        engine = InferenceEngine(trained_store)
        prompt = tokenizer.encode(standardized_subset(task, 1)[0].prompt)
        eos = tokenizer.vocab.eos_id
        full = GoldenRun.decode_many(
            engine, [prompt], GenerationConfig(max_new_tokens=16, eos_id=eos)
        )[0]
        n = len(full.ids)
        # EOS: not emitted, but the forward that produced it is kept.
        assert len(full.logits) == n + 1
        assert int(np.argmax(full.logits[n])) == eos
        # Full budget: no final forward, so no logits beyond the last pick.
        clipped = GoldenRun.decode_many(
            engine, [prompt], GenerationConfig(max_new_tokens=n - 1, eos_id=eos)
        )[0]
        assert clipped.ids == full.ids[: n - 1]
        assert len(clipped.logits) == n - 1
        assert {snap[2] for snap in clipped.snaps} == {len(prompt) + n - 2}
        for config in (full.config, clipped.config):
            assert GoldenRun.decode_many(engine, [prompt], config)[0].ids == greedy_decode(
                engine, prompt, config, strategy="serial"
            )

    @pytest.mark.parametrize("num_beams", [1, 3])
    def test_a_batched_build_is_every_run_decoded_alone(
        self, trained_store, tokenizer, world, num_beams
    ):
        """Five runs through three slots (so two are back-filled next to
        rows mid-decode): ids, every iteration's logits and the K/V
        snapshots equal ``decode`` of each prompt, which equals a
        ``Session.step`` loop."""
        task = TranslationTask(world)
        engine = InferenceEngine(trained_store)
        prompts = [tokenizer.encode(ex.prompt) for ex in standardized_subset(task, 5)]
        config = GenerationConfig(
            max_new_tokens=9, num_beams=num_beams, eos_id=tokenizer.vocab.eos_id
        )
        pool = engine.new_pool(3)
        together = GoldenRun.decode_many(engine, prompts, config, pool)
        assert pool.n_free == pool.n_slots
        for prompt, run in zip(prompts, together):
            alone = GoldenRun.decode_many(engine, [prompt], config)[0]
            session = engine.start_session(prompt)
            stepped = [session.last_logits]
            for token in alone.ids[: len(alone.logits) - 1]:
                stepped.append(session.step(token))
            assert run.prompt == prompt and run.ids == alone.ids
            if num_beams == 1:
                assert run.ids == greedy_decode(engine, prompt, config, strategy="serial")
            assert len(run.logits) == len(alone.logits) == len(stepped)
            for got, want, ref in zip(run.logits, alone.logits, stepped):
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(got, ref)
            for got, want, cache in zip(run.snaps, alone.snaps, session.caches):
                assert got[2] == want[2] == cache.length
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
                np.testing.assert_array_equal(got[0], cache.keys())
                np.testing.assert_array_equal(got[1], cache.values())


# -- multiple choice: reach-limited option scoring ------------------------------

MC_TASKS = [MMLUTask, ARCTask, TruthfulQATask, WinoGrandeTask, HellaSwagTask]
MC_FAULTS = [
    FaultModel.MEM_2BIT, FaultModel.COMP_1BIT, FaultModel.COMP_2BIT,
    FaultModel.KV_2BIT, FaultModel.ACC_1BIT,
]


def pin_block(camp, block):
    """Every trial of ``camp`` strikes its sampled layer type in
    ``block``."""
    return pin_sites(camp, lambda trial, site: dataclasses.replace(
        site, layer_name=f"blocks.{block}.{site.layer_type}"
    ))


def score_vectors(camp, trial):
    """``(site, scores on the new leg, scores of the per-option
    reference)`` of one trial, each under its own arming of the fault:
    keyed to the trial's rows (a wave of one), armed engine-wide for the
    reference."""
    engine = camp.engine
    idx = trial % len(camp.plan.examples)
    site = camp.plan.site(engine, trial)
    camp.compute_baseline()  # builds the passes, once
    assert camp.trial_plan()[0] == "wave"
    assert isinstance(camp._golden[idx], GoldenOptions)
    prompt, options = camp.plan.token_ids[idx]
    hooks = len(camp.engine.hooks)
    rows, fired = option_scores(
        engine, [(trial, site, camp._golden[idx])], camp._bounds
    )[trial]
    assert engine.row_weights == engine.kv_faults == engine.acc_faults == {}
    assert len(engine.hooks) == hooks
    with inject(camp.engine, site) as reference:
        full = score_options(camp.engine, prompt, options)
    assert fired == reference.fired
    return site, rows, full


class TestReachLimitedOptions:
    N_TRIALS = 12

    @pytest.mark.parametrize("fault_model", MC_FAULTS, ids=lambda m: m.value)
    @pytest.mark.parametrize("task_cls", MC_TASKS, ids=lambda t: t.__name__)
    def test_score_vectors_equal_the_per_option_reference(
        self, trained_store, moe_store, tokenizer, world, task_cls, fault_model
    ):
        """Every trial of a generated plan, dense and MoE, float and
        quantized storage: the option scores are the reference's bit
        for bit — NaNs of a blown-up forward included."""
        task = task_cls(world)
        blocks = set()
        for store in (trained_store, moe_store):
            for policy in ("bf16", "int8"):
                camp = campaign(
                    store, tokenizer, task, fault_model,
                    examples=standardized_subset(task, 4),
                    engine=InferenceEngine(store, weight_policy=policy),
                )
                for trial in range(self.N_TRIALS):
                    site, rows, full = score_vectors(camp, trial)
                    assert np.array_equal(rows, full, equal_nan=True), (
                        f"{policy} trial {trial} at {site.layer_name}:"
                        f" {rows} != {full}"
                    )
                    blocks.add((store is moe_store, site.block))
                assert len(camp._golden) == len(camp.plan.examples)
                if task_cls is TruthfulQATask:
                    # The fourth example's options are 5 and 4 tokens
                    # long: one rows forward each.
                    assert [len(g.groups) for g in camp._golden.values()] == [
                        1, 1, 1, 2,
                    ]
        # The plans struck every block, the first (no resume) and the
        # last included.
        assert blocks == {(False, 0), (False, 1), (False, 2), (True, 0), (True, 1)}

    @pytest.mark.parametrize("fault_model", MC_FAULTS, ids=lambda m: m.value)
    @pytest.mark.parametrize("last", [False, True], ids=["first-block", "last-block"])
    def test_first_and_last_block_pinned(
        self, trained_store, tokenizer, world, fault_model, last
    ):
        """``L = 0`` recomputes every block of what it runs (no resume);
        ``L = n - 1`` runs one block of it."""
        task = MMLUTask(world)
        n_blocks = InferenceEngine(trained_store).config.n_blocks
        block = n_blocks - 1 if last else 0
        camp = pin_block(campaign(trained_store, tokenizer, task, fault_model), block)
        for trial in range(6):
            site, rows, full = score_vectors(camp, trial)
            assert site.block == block
            assert np.array_equal(rows, full, equal_nan=True)
        result, counters = traced_counters(
            pin_block(campaign(trained_store, tokenizer, task, fault_model), block),
            6,
        )
        assert_results_equal(
            result,
            pin_block(
                campaign(
                    trained_store, tokenizer, task, fault_model,
                    decode_strategy="serial",
                ),
                block,
            ).run(6),
            "auto", "serial",
        )
        # Four one-token options a trial, one class; a block pass is one
        # option row through one block.  A transient fault reruns option
        # 0's row from L.  A weight fault the bound admits reruns the
        # leader's row from L and scores the three members off it; one it
        # refuses reruns every row, the members' from the embedding.
        assert counters["campaign.mc_golden.block_passes"] == 6 * 4 * n_blocks
        computed = 6 * (n_blocks - block)
        refused = counters["campaign.mc_golden.share_refused"]
        if fault_model.is_memory:
            assert counters["campaign.mc_golden.rows_shared"] == 3 * (6 - refused)
            assert counters["campaign.mc_golden.rows_reused"] == 0
            computed += refused * 3 * n_blocks
        else:
            assert refused == counters["campaign.mc_golden.rows_shared"] == 0
            assert counters["campaign.mc_golden.rows_reused"] == 6 * 3
        assert counters["campaign.mc_golden.block_passes_skipped"] == (
            6 * 4 * n_blocks - computed
        )

    @pytest.mark.parametrize("fault_model", MC_FAULTS, ids=lambda m: m.value)
    def test_campaign_matches_serial_and_telemetry_only_observes(
        self, trained_store, tokenizer, world, fault_model
    ):
        task = ARCTask(world)
        n = self.N_TRIALS
        reference = campaign(
            trained_store, tokenizer, task, fault_model, decode_strategy="serial"
        ).run(n)
        untraced = campaign(trained_store, tokenizer, task, fault_model).run(n)
        traced, counters = traced_counters(
            campaign(trained_store, tokenizer, task, fault_model), n
        )
        assert_results_equal(untraced, reference, "auto", "serial")
        assert_results_equal(traced, untraced, "traced", "untraced")
        reason = {
            "2bits-mem": "weight_fault", "2bits-kv": "kv_fault", "1bit-acc": "acc_fault",
        }.get(fault_model.value, "row_scoped_hooks")
        plans = {k: v for k, v in counters.items() if k.startswith("decode.plan.")}
        assert plans == {
            "decode.plan.option_rows.observer_hooks": 3,  # the baseline's passes
            f"decode.plan.option_rows.{reason}": n,
        }
        assert counters["campaign.mc_golden.builds"] == 3
        probe = campaign(trained_store, tokenizer, task, fault_model)
        probe.compute_baseline()
        n_blocks = probe.engine.config.n_blocks
        skipped = shared = refused = 0
        for t in traced.trials:
            golden, block = probe._golden[t.example_index], t.site.block
            # One row per class from the struck block when the bound
            # admits a weight fault; every option's row when it refuses
            # (a member's from the embedding); option 0's for a
            # transient fault.
            if not fault_model.is_memory:
                rows = [0]
            elif golden.shared and admits_sharing(probe.engine, probe._bounds, t.site):
                rows = sorted(set(golden.leaders))
                shared += 4 - len(rows)
            else:
                rows = range(4)
                refused += golden.shared
            skipped += 4 * n_blocks - sum(
                n_blocks - golden.entry(block, option) for option in rows
            )
        assert counters["campaign.mc_golden.block_passes_skipped"] == skipped
        assert counters["campaign.mc_golden.rows_shared"] == shared
        assert counters["campaign.mc_golden.share_refused"] == refused
        assert shared > 0 or not fault_model.is_memory

    def test_the_bound_refuses_what_sharing_would_get_wrong(
        self, trained_store, tokenizer, world, monkeypatch
    ):
        """A bf16 exponent-MSB flip in q_proj writes about 1e38: a query
        can then score every key it sees below the mask's ``-1e9``, and
        the masked key takes the weight.  The bound refuses it, so the
        trial runs every option's row and scores the reference; scoring
        the class's members off its leader's row anyway would not."""
        site = FaultSite(FaultModel.MEM_2BIT, "blocks.1.q_proj", 44, 39, (1, 14))
        camp = campaign(
            trained_store, tokenizer, MMLUTask(world), FaultModel.MEM_2BIT,
            engine=InferenceEngine(trained_store, weight_policy="bf16"),
        )
        pin_sites(camp, lambda trial, drawn: site)
        _, rows, full = score_vectors(camp, 2)
        assert camp._golden[2].leaders == [0, 0, 0, 0]
        assert not admits_sharing(camp.engine, camp._bounds, site)
        assert np.array_equal(rows, full)
        monkeypatch.setattr(options_module, "admits_sharing", lambda *args: True)
        _, shared, full = score_vectors(camp, 2)
        assert shared[0] == full[0] and not np.array_equal(shared, full)

    def test_workers_inherit_the_parents_passes(self, trained_store, tokenizer, world):
        task = HellaSwagTask(world)
        n = self.N_TRIALS
        camp = campaign(trained_store, tokenizer, task, FaultModel.MEM_2BIT)
        try:
            pooled, counters = traced_counters(camp, n, n_workers=2)
        finally:
            camp.close_pool()
        reference = campaign(
            trained_store, tokenizer, task, FaultModel.MEM_2BIT,
            decode_strategy="serial",
        ).run(n)
        assert_results_equal(pooled, reference, "pooled auto", "serial")
        assert counters["decode.plan.option_rows.weight_fault"] == n
        # Built once, by the baseline, before the fork.
        assert counters["campaign.mc_golden.builds"] == len(camp._golden) == 3

    @pytest.mark.parametrize("task_cls", MC_TASKS, ids=lambda t: t.__name__)
    def test_the_golden_pass_is_the_serial_baseline(
        self, trained_store, moe_store, tokenizer, world, task_cls
    ):
        """A pass's scores are the per-option reference's bit for bit,
        so the baseline read off them is ``serial``'s by construction."""
        task = task_cls(world)
        for store in (trained_store, moe_store):
            for policy in ("bf16", "int8"):
                engine = InferenceEngine(store, weight_policy=policy)
                fast, reference = (
                    campaign(
                        store, tokenizer, task, FaultModel.MEM_2BIT,
                        examples=standardized_subset(task, 4), engine=engine, **kw,
                    )
                    for kw in ({}, {"decode_strategy": "serial"})
                )
                assert fast.compute_baseline() == reference.compute_baseline()
                assert fast._baseline_preds == reference._baseline_preds
                assert reference._golden == {}
                for ids, golden in zip(fast.plan.token_ids, fast._golden.values()):
                    assert np.array_equal(golden.scores, score_options(engine, *ids))

    def test_resume_from_a_journal_cut_mid_cell(
        self, trained_store, tokenizer, world, tmp_path
    ):
        task = WinoGrandeTask(world)
        n = self.N_TRIALS
        ck = tmp_path / "campaign.jsonl"
        full = campaign(
            trained_store, tokenizer, task, FaultModel.COMP_2BIT,
            decode_strategy="serial",
        ).run(n, checkpoint=ck)
        # Header + five records: mid-example-cycle.
        cut = tmp_path / "cut.jsonl"
        cut.write_text("".join(ck.read_text().splitlines(keepends=True)[:6]))
        resumed, counters = traced_counters(
            campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT),
            n, checkpoint=cut, resume=True,
        )
        assert_results_equal(resumed, full, "resumed auto", "uninterrupted serial")
        assert counters["campaign.resume_skipped"] == 5
        assert counters["decode.plan.option_rows.row_scoped_hooks"] == n - 5
        assert sorted(load_checkpoint(cut)[1]) == list(range(n))

    def test_resumes_a_journal_written_by_the_parent_commit(
        self, untrained_store, tokenizer, world, tmp_path
    ):
        """``fingerprint()`` / ``campaign_hash`` did not move."""
        ck = tmp_path / "campaign.jsonl"
        ck.write_bytes(PARENT_MC_JOURNAL.read_bytes())
        header, done, _ = load_checkpoint(ck)
        assert header["git_rev"].startswith("7f3e5b2") and len(done) == 4
        resumed = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        ).resume(ck, 10)
        full = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            decode_strategy="serial",
        ).run(10)
        assert_results_equal(resumed, full, "resumed", "uninterrupted serial")

    def test_an_expert_only_a_later_option_reaches(
        self, moe_store, tokenizer, world
    ):
        """A one-shot computational fault fires in the first option
        forward that *runs its layer*.  An MoE expert no token of option
        0 is routed to is first run by a later option's forward: rows
        are recomputed in order until the fault has fired, and only the
        rows after that keep their golden scores."""
        task = ARCTask(world)
        engine = InferenceEngine(moe_store)
        camp = campaign(
            moe_store, tokenizer, task, FaultModel.COMP_2BIT,
            examples=standardized_subset(task, 8), engine=engine,
        )

        def experts_run(idx):
            """Per option: the ``(block, expert)`` pairs its forward runs."""
            prompt, options = camp.plan.token_ids[idx]
            ran = []
            for option in options:
                with Recorder(engine) as recorder:
                    engine.forward_full(prompt + option)
                ran.append({
                    (block, int(e))
                    for (_, block), top in recorder.expert_selections.items()
                    for e in np.unique(top)
                })
            return ran

        cases = []
        for idx in range(len(camp.plan.examples)):
            ran = experts_run(idx)
            for block, expert in set().union(*ran[1:]) - ran[0]:
                first = next(i for i, r in enumerate(ran) if (block, expert) in r)
                cases.append((idx, block, expert, first))
        assert cases, "no example routes an expert from a later option only"
        for idx, block, expert, first in cases:
            plan = camp.plan
            pin_sites(camp, lambda trial, site: dataclasses.replace(
                site, layer_name=f"blocks.{block}.experts.{expert}.down_proj",
            ))
            tel = telemetry()
            tel.reset(), tel.enable()
            site, rows, full = score_vectors(camp, idx)
            reused = tel.metrics.counter("campaign.mc_golden.rows_reused").value
            tel.disable(), tel.reset()
            camp.plan = plan
            assert np.array_equal(rows, full, equal_nan=True)
            assert reused == len(rows) - first - 1

    BASELINE = {"decode.plan.option_rows.observer_hooks": 3}  # the passes it is read off
    NEGATIVE = {
        # case: (fault model, campaign arguments, plans of 3 examples + 8 trials)
        "serial": (FaultModel.MEM_2BIT, dict(decode_strategy="serial"), {}),
        "expert-tracking": (
            FaultModel.MEM_2BIT, dict(track_expert_selection=True),
            {
                "decode.plan.per_option.observer_hooks": 3,  # the recorder
                "decode.plan.per_option.weight_fault": 8,
            },
        ),
        "flight-recorder": (
            FaultModel.COMP_1BIT, {},
            {**BASELINE, "decode.plan.per_option.row_scoped_hooks": 8},
        ),
        "unscoped-hook": (
            FaultModel.MEM_2BIT, {},
            {
                "decode.plan.per_option.unscoped_hooks": 3,
                "decode.plan.per_option.weight_fault": 8,
            },
        ),
    }

    @pytest.mark.parametrize("case", NEGATIVE)
    def test_everything_else_keeps_one_forward_per_option(
        self, moe_store, tokenizer, world, case
    ):
        fault_model, kw, plans = self.NEGATIVE[case]
        task = MMLUTask(world)

        def build(**extra):
            camp = campaign(moe_store, tokenizer, task, fault_model, **{**kw, **extra})
            if case == "unscoped-hook":
                # Declared perturbing and unscoped; it alters nothing.
                camp.engine.hooks.register("blocks.0.q_proj", lambda out, ctx: None)
            return camp

        if case == "flight-recorder":
            flight_recorder().arm()
        result, counters = traced_counters(build(), 8)
        flight_recorder().disarm()
        assert_results_equal(
            result, build(decode_strategy="serial").run(8), "auto", "serial"
        )
        assert {
            k: v for k, v in counters.items() if k.startswith("decode.plan.")
        } == plans
        # No trial used a pass; the baseline built them where one is exact.
        assert counters["campaign.mc_golden.block_passes"] == 0
        assert counters["campaign.mc_golden.builds"] == plans.get(
            "decode.plan.option_rows.observer_hooks", 0
        )

    @pytest.mark.parametrize("fault_model", MC_FAULTS[:2], ids=lambda m: m.value)
    def test_a_golden_pass_is_never_built_on_an_armed_engine(
        self, trained_store, tokenizer, world, fault_model
    ):
        """The plan is asked before arming and the build checks again: a
        fault baked into a golden pass would be taken for fault-free by
        every later trial of that example."""
        camp = campaign(trained_store, tokenizer, MMLUTask(world), fault_model)
        site = camp.plan.site(camp.engine, 0)
        prompt, options = camp.plan.token_ids[0]
        with inject(camp.engine, site):
            assert camp.trial_plan()[0] == "reference"
            with pytest.raises(RuntimeError, match="pristine"):
                GoldenOptions.build(camp.engine, prompt, options)
        assert camp._golden == {}
        camp.compute_baseline()  # the one place passes are built
        assert camp.trial_plan()[0] == "wave" and isinstance(camp._golden[0], GoldenOptions)

    def test_a_forward_that_outlasts_the_trial_timeout(
        self, trained_store, tokenizer, world, no_backoff
    ):
        """The alarm lands inside the wave's forward, its rows' faulted
        weights registered: its trials are re-run one at a time with no
        faulted weight left registered; nobody else notices."""
        import time

        task = MMLUTask(world)
        camp = campaign(trained_store, tokenizer, task, FaultModel.MEM_2BIT)
        forward, stalled = camp.engine.forward_chunk_batch, []

        def stalling(*args, **kw):
            # Past the three golden builds: inside the fourth trial.
            if kw.get("enter") is not None and not stalled:
                stalled.append(dict(camp.engine.row_weights))
                time.sleep(30.0)
            return forward(*args, **kw)

        camp.engine.forward_chunk_batch = stalling
        result, counters = traced_counters(
            camp, 9, trial_timeout=0.5, max_retries=1
        )
        reference = campaign(
            trained_store, tokenizer, task, FaultModel.MEM_2BIT,
            decode_strategy="serial",
        ).run(9)
        assert_results_equal(result, reference, "after the timeout", "serial")
        assert counters["campaign.wave.fallbacks"] == 1
        assert lone_trials(counters) == {"wave_fallback": 9}
        assert counters["campaign.retries"] == counters["campaign.quarantined"] == 0
        assert stalled[0] and camp.engine.row_weights == {}
        # Option rows keep no K/V: there are no slots to leak.
        assert camp._kv_pool is None
        # The repair drops no pass: none was rebuilt.
        assert counters["campaign.mc_golden.builds"] == len(camp._golden) == 3


# -- one fault-free pass per engine and example set ----------------------------------


_REFERENCES: dict = {}
"""``(model, fault model) -> (cold auto result, serial result)``, run
once: the ``workers`` legs of the matrix below compare against the same."""


def shared_counters(counters, kind="golden") -> tuple[int, int]:
    return (
        counters[f"campaign.{kind}.builds"], counters[f"campaign.{kind}.shared"]
    )


def alive(refs) -> int:
    return sum(ref() is not None for ref in refs)


class TestSharedPasses:
    """The fault-free passes stay with the engine they were computed on
    (``repro.fi.golden._SHARED``): a later campaign on the same engine,
    weights, examples and decoding config decodes none — whatever its
    fault model — and anything else rebuilds, after the stale entry is
    dropped."""

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("fault_model", FaultModel.extended(), ids=lambda m: m.value)
    @pytest.mark.parametrize("model", ["dense", "moe"])
    def test_a_warm_campaign_equals_a_cold_one_and_the_serial_route(
        self, trained_store, moe_store, tokenizer, world, model, fault_model, workers
    ):
        store = trained_store if model == "dense" else moe_store
        task = TranslationTask(world)
        if (model, fault_model) not in _REFERENCES:
            cold, counters = traced_counters(
                campaign(store, tokenizer, task, fault_model), 12
            )
            assert shared_counters(counters) == (3, 0)
            serial = campaign(
                store, tokenizer, task, fault_model, decode_strategy="serial"
            ).run(12)
            _REFERENCES[model, fault_model] = cold, serial
        cold, serial = _REFERENCES[model, fault_model]
        # Two computational cells first, as a study visits a (model,
        # task) pair: the mechanism is blind to the fault model.
        engine = InferenceEngine(store)
        for earlier in (FaultModel.COMP_1BIT, FaultModel.COMP_2BIT):
            campaign(store, tokenizer, task, earlier, engine=engine).run(3)
        camp = campaign(store, tokenizer, task, fault_model, engine=engine)
        try:
            warm, counters = traced_counters(camp, 12, n_workers=workers)
        finally:
            camp.close_pool()
        assert shared_counters(counters) == (0, 3)
        assert_results_equal(warm, cold, "warm", "cold")
        assert_results_equal(warm, serial, "warm", "serial")
        if workers:
            # One fork per worker but this process, which runs a share.
            assert counters["campaign.worker_boots"] == workers - 1

    @pytest.mark.parametrize(
        "fault_model", [FaultModel.MEM_2BIT, FaultModel.COMP_2BIT], ids=lambda m: m.value
    )
    def test_option_passes_are_shared_too(
        self, trained_store, tokenizer, world, fault_model
    ):
        task = MMLUTask(world)
        engine = InferenceEngine(trained_store)
        first = campaign(trained_store, tokenizer, task, FaultModel.COMP_1BIT, engine=engine)
        first.compute_baseline()
        camp = campaign(trained_store, tokenizer, task, fault_model, engine=engine)
        warm, counters = traced_counters(camp, 12)
        assert shared_counters(counters, "mc_golden") == (0, 3)
        assert all(camp._golden[i] is first._golden[i] for i in range(3))
        assert camp._golden is not first._golden
        cold, counters = traced_counters(
            campaign(trained_store, tokenizer, task, fault_model), 12
        )
        assert shared_counters(counters, "mc_golden") == (3, 0)
        assert_results_equal(warm, cold, "warm", "cold")
        assert_results_equal(
            warm,
            campaign(
                trained_store, tokenizer, task, fault_model, decode_strategy="serial"
            ).run(12),
            "warm", "serial",
        )

    @pytest.mark.parametrize(
        "change",
        ["examples", "max_new_tokens", "num_beams", "engine", "storage", "weights"],
    )
    def test_anything_else_rebuilds_after_the_old_entry_is_dropped(
        self, trained_store, tokenizer, world, change, monkeypatch
    ):
        import weakref

        from repro.fi import golden as golden_module

        task = TranslationTask(world)
        examples = standardized_subset(task, 4)
        engine = InferenceEngine(trained_store)
        first = campaign(
            trained_store, tokenizer, task, FaultModel.COMP_2BIT, examples[:3],
            engine=engine,
        )
        first.compute_baseline()
        old = [weakref.ref(run) for run in first._golden.values()]
        old_arrays = [weakref.ref(run.snaps[0][0]) for run in first._golden.values()]
        del first
        assert alive(old) == 3  # the engine holds them, not the campaign

        kw = dict(engine=engine)
        subset = examples[:3]
        if change == "examples":
            subset = examples[1:]
        elif change == "max_new_tokens":
            kw["generation"] = dict(max_new_tokens=task.max_new_tokens - 1)
        elif change == "num_beams":
            kw["generation"] = dict(num_beams=2, max_new_tokens=6)
        elif change == "engine":
            kw["engine"] = InferenceEngine(trained_store)
        elif change == "storage":
            kw["engine"] = InferenceEngine(trained_store, weight_policy="int8")
        elif change == "weights":
            # For good, and behind every WeightStore method's back — as
            # mitigation/weight_guard.py scrubs.
            engine.weight_store(engine.linear_layer_names()[0]).array[0, 0] += 1.0

        # Evicted before the rebuild: when the first forward of the new
        # sweep runs, nothing of the old example set is alive any more
        # (on another engine object the old entry is not this one's to drop).
        seen = []
        same_engine = kw["engine"] is engine
        build = FICampaign._build_golden

        def building(self):
            seen.append(alive(old) + alive(old_arrays))
            return build(self)

        monkeypatch.setattr(FICampaign, "_build_golden", building)
        second = campaign(
            trained_store, tokenizer, task, FaultModel.COMP_1BIT, subset, **kw
        )
        result, counters = traced_counters(second, 8)
        if change == "num_beams":
            # A beam campaign keeps no pass: it neither takes the entry
            # nor drops or replaces it.
            assert shared_counters(counters) == (0, 0) and seen == []
            assert second._golden == {} and alive(old) == 3
            assert golden_module._SHARED[engine].passes == [r() for r in old]
        else:
            assert shared_counters(counters) == (3, 0)
            assert seen == [0 if same_engine else 6]
            assert golden_module._SHARED[second.engine].passes == list(
                second._golden.values()
            )
        reference = campaign(
            trained_store, tokenizer, task, FaultModel.COMP_1BIT, subset,
            decode_strategy="serial", **{**kw, "engine": None},
        )
        if change == "storage":
            reference.engine = InferenceEngine(trained_store, weight_policy="int8")
        if change == "weights":
            reference.engine.weight_store(
                reference.engine.linear_layer_names()[0]
            ).array[0, 0] += 1.0
        assert_results_equal(result, reference.run(8), "rebuilt", "serial")

    def test_dropping_the_engine_frees_the_entry(
        self, trained_store, tokenizer, world
    ):
        import gc
        import weakref

        from repro.fi import golden as golden_module

        task = TranslationTask(world)
        engine = InferenceEngine(trained_store)
        # A KV-fault campaign's wave rows rewind into slots of the
        # campaign's pool, not a session the run keeps: nothing in an
        # entry may hold the engine it is keyed by.
        camp = campaign(trained_store, tokenizer, task, FaultModel.KV_2BIT, engine=engine)
        camp.run(6)
        runs = [weakref.ref(run) for run in camp._golden.values()]
        assert engine in golden_module._SHARED
        gone = weakref.ref(engine)
        del camp, engine
        gc.collect()
        assert gone() is None and alive(runs) == 0

    def test_forget_makes_the_next_baseline_cold(
        self, trained_store, tokenizer, world
    ):
        from repro.fi.golden import forget

        task = TranslationTask(world)
        engine = InferenceEngine(trained_store)
        campaign(
            trained_store, tokenizer, task, FaultModel.COMP_1BIT, engine=engine
        ).compute_baseline()
        forget(engine)
        forget(engine)  # nothing left: not an error
        _, counters = traced_counters(
            campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT, engine=engine), 3
        )
        assert shared_counters(counters) == (3, 0)

    def test_what_keeps_no_pass_neither_reads_nor_fills(
        self, trained_store, tokenizer, world
    ):
        from repro.fi import golden as golden_module

        task = TranslationTask(world)
        engine = InferenceEngine(trained_store)
        for kw in (dict(decode_strategy="serial"), dict(track_expert_selection=True)):
            campaign(
                trained_store, tokenizer, task, FaultModel.COMP_2BIT, engine=engine, **kw
            ).compute_baseline()
            assert engine not in golden_module._SHARED
        filled = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT, engine=engine)
        filled.compute_baseline()
        entry = golden_module._SHARED[engine]
        # A hooked engine keeps no pass — and leaves the entry alone.
        detach = engine.hooks.register("blocks.0.q_proj", lambda out, ctx: None)
        hooked = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT, engine=engine)
        _, counters = traced_counters(hooked, 3)
        assert hooked._golden == {} and shared_counters(counters) == (0, 0)
        assert golden_module._SHARED[engine] is entry
        detach()

    def test_a_repaired_campaign_still_resumes_shared_passes(
        self, trained_store, tokenizer, world, no_backoff
    ):
        task = TranslationTask(world)
        engine = InferenceEngine(trained_store)
        campaign(
            trained_store, tokenizer, task, FaultModel.COMP_1BIT, engine=engine
        ).compute_baseline()
        camp = campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT, engine=engine)
        run_wave, raised = camp._run_wave, []

        def raising(wave):
            if not raised:
                raised.append(len(wave))
                camp._kv_slots().acquire()  # a slot the wave never gives back
                raise RuntimeError("boom")
            return run_wave(wave)

        camp._run_wave = raising
        result, counters = traced_counters(camp, 12)
        assert raised == [12]
        assert shared_counters(counters) == (0, 3)
        assert counters["campaign.wave.fallbacks"] == 1
        assert counters["campaign.retries"] == counters["campaign.quarantined"] == 0
        assert camp._kv_slots().n_free == camp._kv_slots().n_slots
        reference = campaign(
            trained_store, tokenizer, task, FaultModel.COMP_2BIT,
            decode_strategy="serial",
        ).run(12)
        assert_results_equal(result, reference, "after the repair", "serial")
        # The fallback ran its trials through the reference; the next
        # wave resumes the passes the repaired campaign still holds.
        again, counters = traced_counters(camp, 12)
        assert counters["campaign.wave.fallbacks"] == 0
        assert counters["engine.prefill_cache_hits"] > 0
        assert_results_equal(again, reference, "the wave after the repair", "serial")
        # And the campaign after it starts from the same passes.
        _, counters = traced_counters(
            campaign(trained_store, tokenizer, task, FaultModel.KV_1BIT, engine=engine), 3
        )
        assert shared_counters(counters) == (0, 3)

    def test_the_shared_baseline_is_a_pure_observer_of_telemetry(
        self, trained_store, tokenizer, world
    ):
        """Armed == unarmed: the counters observe the sharing, the
        records do not depend on who is watching."""
        task = TranslationTask(world)
        results = []
        for traced in (True, False):
            engine = InferenceEngine(trained_store)
            campaign(
                trained_store, tokenizer, task, FaultModel.COMP_1BIT, engine=engine
            ).compute_baseline()
            camp = campaign(trained_store, tokenizer, task, FaultModel.ACC_2BIT, engine=engine)
            results.append(traced_counters(camp, 9)[0] if traced else camp.run(9))
        assert_results_equal(*results, "telemetry on", "telemetry off")
