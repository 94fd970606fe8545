"""Golden-run fast-forward: an injected trial resumes at its fault iteration.

``decode_strategy="auto"`` decodes each example once fault-free
(:mod:`repro.fi.golden`) and starts every eligible trial at the state
just before its strike; ``"serial"`` re-prefills and re-decodes in full.
Every test here holds the two to bit-identical records through
:mod:`repro.fi.differential`, then pins *which* path ran by its exact
counters — so a fast path that quietly stopped being taken fails too.
"""

import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.fi import (
    FaultModel,
    FICampaign,
    assert_records_equal,
    assert_results_equal,
    load_checkpoint,
)
from repro.fi.golden import GoldenRun
from repro.generation import GenerationConfig, greedy_decode
from repro.inference import InferenceEngine
from repro.obs import explain_trial, flight_recorder, telemetry
from repro.tasks import (
    GSM8kTask,
    SquadTask,
    SummarizationTask,
    TranslationTask,
    standardized_subset,
)

from tests.test_differential import make_campaign

PARENT_JOURNAL = Path(__file__).parent / "data" / "journal_pr14_wmt16_2bits-comp.jsonl"
"""Four trials of ``make_campaign(untrained_store, …, "gen", COMP_2BIT)``
journalled by the commit before the golden-run cache (its ``git_rev``
header says which)."""


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
        engine=InferenceEngine(store),
        tokenizer=tokenizer,
        task_name=task.name,
        metrics=task.metrics,
        examples=examples or standardized_subset(task, 3),
        fault_model=fault_model,
        seed=13,
        generation=GenerationConfig(**generation),
        **kw,
    )


def pin_iteration(camp, k):
    """Every trial of ``camp`` strikes at iteration ``k``."""
    sample = camp._trial_site
    camp._trial_site = lambda trial, max_iter: dataclasses.replace(
        sample(trial, max_iter), iteration=k
    )
    return camp


def run_counted(camp, n_trials, **kw):
    """``(result, counters)`` of one run under telemetry; ``counters``
    holds ``campaign.golden.*`` and ``engine.*`` by their last name and
    reads 0 for one that never counted."""
    tel = telemetry()
    tel.reset()
    tel.enable()
    try:
        result = camp.run(n_trials, **kw)
        counters = tel.metrics.snapshot()["counters"]
    finally:
        tel.disable()
        tel.reset()
    return result, Counter({
        name.removeprefix("campaign.golden.").removeprefix("engine."): int(v)
        for name, v in counters.items()
        if name.startswith(("campaign.golden.", "engine."))
    })


def golden_length(store, tokenizer, task, ex, **generation):
    config = GenerationConfig(
        **{"max_new_tokens": task.max_new_tokens,
           "eos_id": tokenizer.vocab.eos_id, **generation}
    )
    run = GoldenRun.decode(InferenceEngine(store), tokenizer.encode(ex.prompt), config)
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
        # The golden build (prompt + n steps) is every forward there was.
        assert counters["forward_calls"] == 1 + n
        assert not any(t.fired or t.changed for t in fast.trials)

    def test_budget_limited_golden_run(self, trained_store, tokenizer, one):
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
        """Iteration-0 strikes and memory faults never touch the cache."""
        _, counters = self.pinned_pair(trained_store, tokenizer, one, k=0)
        assert counters["prefill_cache_misses"] == 5
        assert counters["builds"] == 0 and counters["prefill_cache_hits"] == 0
        _, counters = self.pinned_pair(
            trained_store, tokenizer, one, k=3, fault=FaultModel.MEM_2BIT
        )
        assert counters["prefill_cache_misses"] == 5
        assert counters["builds"] == 0

    def test_beam_search_rewinds_to_the_prefill_only(
        self, trained_store, tokenizer, world
    ):
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
        assert counters["prefill_cache_hits"] > 0
        assert counters["replayed_tokens"] == 0
        assert counters["unreached"] == 0

    def test_workers_build_their_own_cache(self, trained_store, tokenizer, world):
        task = TranslationTask(world)
        camp = campaign(trained_store, tokenizer, task, FaultModel.KV_2BIT)
        try:
            pooled = camp.run(12, n_workers=2)
            worker = camp._attached(camp._executor.arena.root)
        finally:
            camp.close_pool()
        reference = campaign(
            trained_store, tokenizer, task, FaultModel.KV_2BIT,
            decode_strategy="serial",
        ).run(12)
        assert_results_equal(pooled, reference, "pooled auto", "serial")
        # Nothing golden crosses the fork: not handed over, not built here.
        assert worker._golden == {} and worker._golden is not camp._golden
        assert camp._golden == {}

    def test_baseline_mismatch_falls_back_to_full_decode(
        self, trained_store, tokenizer, one
    ):
        task, ex, _ = one
        camps = [
            campaign(trained_store, tokenizer, task, FaultModel.COMP_2BIT, [ex], **kw)
            for kw in ({}, {"decode_strategy": "serial"})
        ]
        for camp in camps:
            camp.compute_baseline()
            camp._baseline_preds[0] += " drifted"
        fast, counters = run_counted(camps[0], 6)
        assert_records_equal(fast, camps[1].run(6), "auto", "serial")
        assert counters["builds"] == 1
        assert counters["baseline_mismatch"] == 1
        assert counters["replayed_tokens"] == 0
        assert counters["prefill_cache_misses"] == 6


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
        resumed = 0
        for trial, record in zip(armed.trials, recorder.drain()):
            k = trial.site.iteration
            if k == 0:
                assert "resumed_at" not in record
                continue
            resumed += 1
            assert record["resumed_at"] <= k - 1
            assert f"iteration {record['resumed_at']}" in explain_trial(record)
            if trial.fired:
                # The struck forward was still replayed fault-free and
                # compared layer by layer; the strike shows in the front.
                assert record["resumed_at"] == k - 1
                assert any(e["event"] == "inject.fire" for e in record["events"])
                struck = [
                    e for e in record["front"]
                    if e["layer"] == trial.site.layer_name
                ]
                assert struck and struck[0]["corrupted"] >= 1
            else:
                assert record["front"] is None
        assert resumed >= 8


class TestGoldenRun:
    def test_decode_stops_where_the_decode_round_stops(
        self, trained_store, tokenizer, world
    ):
        task = TranslationTask(world)
        engine = InferenceEngine(trained_store)
        prompt = tokenizer.encode(standardized_subset(task, 1)[0].prompt)
        eos = tokenizer.vocab.eos_id
        full = GoldenRun.decode(
            engine, prompt, GenerationConfig(max_new_tokens=16, eos_id=eos)
        )
        n = len(full.ids)
        # EOS: not emitted, but the forward that produced it is kept.
        assert len(full.logits) == n + 1
        assert int(np.argmax(full.logits[n])) == eos
        # Full budget: no final forward, so no logits beyond the last pick.
        clipped = GoldenRun.decode(
            engine, prompt, GenerationConfig(max_new_tokens=n - 1, eos_id=eos)
        )
        assert clipped.ids == full.ids[: n - 1]
        assert len(clipped.logits) == n - 1
        assert {snap[2] for snap in clipped.snaps} == {len(prompt) + n - 2}
        for config in (full.config, clipped.config):
            assert GoldenRun.decode(engine, prompt, config).ids == greedy_decode(
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
            alone = GoldenRun.decode(engine, prompt, config)
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
