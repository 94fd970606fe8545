"""Resilience of the campaign runner itself: kill, crash, hang, resume.

The paper's campaigns need thousands of trials per cell; this suite
chaos-tests the *execution layer* the way the campaigns chaos-test the
model.  :class:`repro.fi.CampaignChaos` injects runner-level failures
(transient exceptions, deterministic crashes, worker death, hangs) at
chosen trial indices, and every recovery path must reproduce — via the
differential oracle — exactly what an undisturbed run computes:

* kill-and-resume: half a campaign + a checkpoint journal + resume
  must be bit-identical to one uninterrupted run (all fault models,
  serial and pooled), down to the formatted aggregate report;
* transient failures retry (bounded, with backoff) and then succeed;
* deterministic failures quarantine as ``FAILED`` instead of aborting;
* hung trials time out, retry, and at worst quarantine;
* the per-trial RNG derives from the stable (example id, trial, fault
  model) key — pinned by golden values so no refactor can silently
  shift every published seed.
"""

import hashlib
import json

import pytest

from repro.fi import (
    CampaignChaos,
    CheckpointError,
    FaultModel,
    FICampaign,
    Outcome,
    assert_records_equal,
    assert_results_equal,
    by_layer_type,
    load_checkpoint,
)
from repro.harness.results import format_campaign
from repro.obs import telemetry
from repro.tasks.base import GenExample, MCExample

from tests.test_differential import REFERENCE, make_campaign


@pytest.fixture(autouse=True)
def clean_telemetry():
    tel = telemetry()
    tel.reset()
    tel.disable()
    yield tel
    tel.reset()
    tel.disable()


FAST = dict(retry_backoff=0.0)


class TestKillAndResume:
    @pytest.mark.parametrize("fault_model", FaultModel.all())
    def test_serial_resume_bit_identical(
        self, untrained_store, tokenizer, world, tmp_path, fault_model
    ):
        full = make_campaign(
            untrained_store, tokenizer, world, "gen", fault_model
        ).run(8)
        ck = tmp_path / "campaign.jsonl"
        # "Interrupt" after half the trials: the journal now holds 4.
        make_campaign(
            untrained_store, tokenizer, world, "gen", fault_model
        ).run(4, checkpoint=ck)
        resumed = make_campaign(
            untrained_store, tokenizer, world, "gen", fault_model
        ).resume(ck, 8)
        assert_results_equal(resumed, full, "resumed", "uninterrupted")
        # Acceptance bar: the formatted aggregate report (normalized
        # performance + CIs) is byte-identical.
        assert format_campaign(resumed) == format_campaign(full)

    @pytest.mark.parametrize("fault_model", FaultModel.all())
    def test_pooled_resume_bit_identical(
        self, untrained_store, tokenizer, world, tmp_path, fault_model
    ):
        full = make_campaign(
            untrained_store, tokenizer, world, "mc", fault_model
        ).run(6, n_workers=2)
        ck = tmp_path / "campaign.jsonl"
        make_campaign(
            untrained_store, tokenizer, world, "mc", fault_model
        ).run(3, n_workers=2, checkpoint=ck)
        resumed = make_campaign(
            untrained_store, tokenizer, world, "mc", fault_model
        ).resume(ck, 6, n_workers=2)
        assert_results_equal(resumed, full, "resumed", "uninterrupted")
        assert format_campaign(resumed) == format_campaign(full)

    def test_torn_final_record_tolerated(
        self, untrained_store, tokenizer, world, tmp_path
    ):
        """A kill mid-write loses only the in-flight trial."""
        full = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        ).run(6)
        ck = tmp_path / "campaign.jsonl"
        make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        ).run(4, checkpoint=ck)
        data = ck.read_bytes()
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(data[:-17])  # chop into the last record
        resumed = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        ).resume(torn, 6)
        assert_results_equal(resumed, full, "resumed", "uninterrupted")

    def test_resume_across_execution_strategies(
        self, untrained_store, tokenizer, world, tmp_path
    ):
        """Perf knobs are outside the fingerprint: a journal written by
        the reference path resumes under the optimized path."""
        full = make_campaign(
            untrained_store, tokenizer, world, "gen", FaultModel.COMP_2BIT
        ).run(6)
        ck = tmp_path / "campaign.jsonl"
        make_campaign(
            untrained_store, tokenizer, world, "gen", FaultModel.COMP_2BIT,
            **REFERENCE,
        ).run(3, checkpoint=ck)
        resumed = make_campaign(
            untrained_store, tokenizer, world, "gen", FaultModel.COMP_2BIT
        ).resume(ck, 6)
        assert_results_equal(resumed, full, "resumed", "uninterrupted")

    def test_refuses_silent_overwrite(
        self, untrained_store, tokenizer, world, tmp_path
    ):
        ck = tmp_path / "campaign.jsonl"
        make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        ).run(2, checkpoint=ck)
        with pytest.raises(CheckpointError, match="resume"):
            make_campaign(
                untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
            ).run(2, checkpoint=ck)

    def test_rejects_foreign_fingerprint(
        self, untrained_store, tokenizer, world, tmp_path
    ):
        ck = tmp_path / "campaign.jsonl"
        make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        ).run(2, checkpoint=ck)
        other = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.COMP_1BIT
        )
        with pytest.raises(CheckpointError, match="different campaign"):
            other.resume(ck, 4)
        seeded = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        )
        seeded.seed = 123
        with pytest.raises(CheckpointError, match="different campaign"):
            seeded.resume(ck, 4)

    def test_journal_contents_and_counters(
        self, untrained_store, tokenizer, world, tmp_path, clean_telemetry
    ):
        ck = tmp_path / "campaign.jsonl"
        campaign = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        )
        campaign.run(4, checkpoint=ck)
        header, completed, attempts = load_checkpoint(
            ck, campaign.fingerprint()
        )
        assert header["schema_version"] == 1
        assert sorted(completed) == [0, 1, 2, 3]
        assert all(n == 1 for n in attempts.values())
        raw = [json.loads(line) for line in ck.read_text().splitlines()]
        assert raw[0]["kind"] == "campaign-checkpoint"
        assert raw[1]["key"] == list(campaign.trial_key(raw[1]["trial"]))

        clean_telemetry.enable()
        make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        ).resume(ck, 6)
        counters = clean_telemetry.metrics.counters
        assert counters["campaign.resume_skipped"].value == 4
        # Only the 2 missing trials actually ran.
        assert counters["campaign.trials"].value == 2
        spans = [s.name for s in clean_telemetry.tracer.records]
        assert "campaign.checkpoint" in spans


class TestRetry:
    def test_transient_failure_retries_to_identical_result(
        self, untrained_store, tokenizer, world
    ):
        clean = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        ).run(6)
        chaotic = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            chaos=CampaignChaos(fail_transient={1, 4}),
        ).run(6, **FAST)
        assert_results_equal(chaotic, clean, "retried", "clean")

    def test_retry_counter(
        self, untrained_store, tokenizer, world, clean_telemetry
    ):
        clean_telemetry.enable()
        make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            chaos=CampaignChaos(fail_transient={2}),
        ).run(4, **FAST)
        assert clean_telemetry.metrics.counters["campaign.retries"].value == 1

    def test_transient_failure_in_a_worker_is_retried_in_that_worker(
        self, untrained_store, tokenizer, world, tmp_path, clean_telemetry
    ):
        """Retry policy lives where the trial runs: the parent never
        sees the raise, only the record, its attempts and what the
        worker observed of both attempts."""
        clean = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        ).run(6)
        clean_telemetry.enable()
        ck = tmp_path / "campaign.jsonl"
        campaign = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            chaos=CampaignChaos(fail_transient={2}),
        )
        try:
            chaotic = campaign.run(6, n_workers=2, checkpoint=ck, **FAST)
        finally:
            campaign.close_pool()
        assert clean_telemetry.metrics.counters["campaign.retries"].value == 1
        tries = [
            span for span in clean_telemetry.tracer.records
            if span.name == "campaign.trial" and span.attrs["trial"] == 2
        ]
        assert len(tries) == 2
        assert len({span.attrs["worker_pid"] for span in tries}) == 1
        clean_telemetry.disable()
        assert_results_equal(chaotic, clean, "retried in a worker", "clean")
        _, _, attempts = load_checkpoint(ck, campaign.fingerprint())
        assert attempts == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1, 5: 1}

    def test_worker_death_rebuilds_pool(
        self, untrained_store, tokenizer, world
    ):
        """A worker calling ``os._exit`` breaks the pool; the campaign
        rebuilds it and still produces the undisturbed run's records."""
        clean = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        ).run(6)
        chaotic = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            chaos=CampaignChaos(die_in_worker={2}),
        ).run(6, n_workers=2, **FAST)
        assert_results_equal(chaotic, clean, "rebuilt", "clean")

    def test_pool_degrades_to_serial(
        self, untrained_store, tokenizer, world, clean_telemetry
    ):
        """When every rebuild dies too, remaining trials run serially
        in the parent (where ``die_in_worker`` cannot fire)."""
        clean = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        ).run(6)
        clean_telemetry.enable()
        chaotic = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            chaos=CampaignChaos(die_in_worker={0, 1, 2, 3, 4, 5}),
        ).run(6, n_workers=2, max_pool_rebuilds=0, **FAST)
        counters = clean_telemetry.metrics.counters
        assert counters["campaign.pool_degraded"].value >= 1
        clean_telemetry.disable()
        assert_records_equal(chaotic, clean, "degraded", "clean")


    def test_workers_that_cannot_boot_degrade_to_serial(
        self, untrained_store, tokenizer, world, clean_telemetry, monkeypatch
    ):
        """A worker that dies attaching is replaced within the rebuild
        budget like any other; when none ever comes up the campaign runs
        in the parent instead of waiting on an empty pool."""
        clean = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        ).run(4)

        def no_arena(self, arena_root):
            raise OSError("arena gone")

        monkeypatch.setattr(FICampaign, "_attached", no_arena)
        clean_telemetry.enable()
        stranded = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        ).run(4, n_workers=2, max_pool_rebuilds=1, **FAST)
        counters = clean_telemetry.metrics.counters
        assert counters["campaign.pool_degraded"].value == 1
        assert counters["campaign.trials"].value == 4
        clean_telemetry.disable()
        assert_records_equal(stranded, clean, "no pool", "clean")


class TestQuarantine:
    def test_deterministic_failure_quarantined(
        self, untrained_store, tokenizer, world
    ):
        clean = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        ).run(6)
        result = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            chaos=CampaignChaos(fail_always={3}),
        ).run(6, **FAST)
        assert result.n_trials == 6
        assert result.quarantined == 1
        bad = result.trials[3]
        assert bad.outcome is Outcome.FAILED
        assert bad.metrics == {}
        assert "ChaosError" in bad.error
        # Every other trial is untouched by the quarantine machinery.
        keep = [t for i, t in enumerate(result.trials) if i != 3]
        assert_records_equal(
            keep, [t for i, t in enumerate(clean.trials) if i != 3]
        )

    def test_quarantine_excluded_from_aggregates(
        self, untrained_store, tokenizer, world
    ):
        result = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            chaos=CampaignChaos(fail_always={0}),
        ).run(5, **FAST)
        classified = [
            t for t in result.trials if t.outcome is not Outcome.FAILED
        ]
        sdc = sum(t.outcome.is_sdc for t in classified)
        assert result.sdc_rate == sdc / len(classified)
        assert not Outcome.FAILED.is_sdc
        # Vulnerability analysis counts only classified trials.
        groups = by_layer_type(result)
        assert sum(g.trials for g in groups) == len(classified)
        # ... but the per-bit table accounts for every trial.
        table = result.outcomes_by_highest_bit()
        assert sum(sum(row.values()) for row in table.values()) == 5
        assert sum(row["failed"] for row in table.values()) == 1

    def test_quarantine_survives_resume(
        self, untrained_store, tokenizer, world, tmp_path
    ):
        ck = tmp_path / "campaign.jsonl"
        first = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            chaos=CampaignChaos(fail_always={1}),
        ).run(3, checkpoint=ck, **FAST)
        resumed = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            chaos=CampaignChaos(fail_always={1}),
        ).resume(ck, 6, **FAST)
        assert resumed.trials[1].outcome is Outcome.FAILED
        assert resumed.trials[1].error == first.trials[1].error
        assert resumed.quarantined == 1

    def test_quarantine_counters(
        self, untrained_store, tokenizer, world, clean_telemetry
    ):
        clean_telemetry.enable()
        make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            chaos=CampaignChaos(fail_always={0}),
        ).run(3, max_retries=1, **FAST)
        counters = clean_telemetry.metrics.counters
        assert counters["campaign.quarantined"].value == 1
        assert counters["campaign.outcome.failed"].value == 1
        # Quarantined trials still count as trials (smoke asserts this).
        assert counters["campaign.trials"].value == 3
        assert counters["campaign.retries"].value == 1


class TestTimeout:
    def test_serial_hang_times_out_and_retries(
        self, untrained_store, tokenizer, world
    ):
        """A first-attempt hang is cut off by the alarm; the retry (no
        chaos on attempt 1) reproduces the clean record."""
        clean = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        ).run(3)
        hung = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            chaos=CampaignChaos(hang={1}, hang_seconds=30.0),
        ).run(3, trial_timeout=0.5, **FAST)
        assert_results_equal(hung, clean, "timed-out", "clean")

    def test_pooled_hang_quarantines_without_retries(
        self, untrained_store, tokenizer, world
    ):
        """With retries exhausted, a hung worker's trial quarantines and
        the rest of the campaign completes on a fresh pool."""
        clean = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        ).run(4)
        result = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            chaos=CampaignChaos(hang={0}, hang_seconds=60.0),
        ).run(4, n_workers=2, trial_timeout=2.0, max_retries=0, **FAST)
        assert result.trials[0].outcome is Outcome.FAILED
        assert "TrialTimeoutError" in result.trials[0].error
        assert_records_equal(result.trials[1:], clean.trials[1:])


class TestSeedDerivation:
    """Regression pins for the stable per-trial-key RNG derivation.

    These golden values are load-bearing: change the key layout or the
    hash and every published campaign seed silently shifts.  If one of
    these pins fails, you changed the derivation — bump the checkpoint
    schema version and say so loudly in the changelog.
    """

    def test_key_hash_words_pinned(self):
        key = ("ab12cd34ef567890", 7, "2bits-mem")
        digest = hashlib.sha256(json.dumps(key).encode()).digest()
        words = [
            int.from_bytes(digest[i : i + 4], "little")
            for i in range(0, 16, 4)
        ]
        assert words == [2206236586, 518463663, 2665928758, 1480391267]

    def test_example_ids_pinned(self):
        mc = MCExample(
            prompt="q : 2 + 2 =", options=["3", "4", "5", "6"], answer_index=1
        )
        assert FICampaign._stable_example_id(mc) == "94bcb99261cd38b4"
        gen = GenExample(prompt="translate : x =", reference="y", meta={})
        assert FICampaign._stable_example_id(gen) == "a0cfa32e0981d419"

    def test_key_is_content_addressed(
        self, untrained_store, tokenizer, world
    ):
        """Identity comes from example *content*, not list position."""
        campaign = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        )
        n = len(campaign.examples)
        example_id, trial, fault = campaign.trial_key(n + 1)
        assert example_id == campaign._example_ids[1]
        assert (trial, fault) == (n + 1, "2bits-mem")

    def test_fault_model_in_key_decorrelates_sites(
        self, untrained_store, tokenizer, world
    ):
        """Same trial index, different fault model ⇒ independent draws
        (under position-based seeding these were lockstep)."""
        mem = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        )
        comp = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.COMP_2BIT
        )
        mem_cells = [
            (s.layer_name, s.row, s.col)
            for s in (mem._trial_site(t, 1) for t in range(8))
        ]
        comp_cells = [
            (s.layer_name, s.row, s.col)
            for s in (comp._trial_site(t, 1) for t in range(8))
        ]
        assert mem_cells != comp_cells

    def test_rng_independent_of_run_order(
        self, untrained_store, tokenizer, world
    ):
        campaign = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        )
        forward = [campaign._trial_site(t, 1) for t in range(6)]
        backward = [campaign._trial_site(t, 1) for t in reversed(range(6))]
        assert forward == list(reversed(backward))
