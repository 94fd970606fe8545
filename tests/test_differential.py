"""Differential test suite: every execution path, one oracle.

PRs 2–3 grew the campaign runner a family of execution strategies —
shared-prefix option scoring, prefill caching, continuous-batched
decoding, process pools — each duty-bound to reproduce the serial
reference path bit-for-bit.  This module consolidates the equivalence
checks behind :func:`repro.fi.assert_records_equal` and sweeps the
full grid: execution variant × greedy/beam × MC/generative × the
paper's three fault models (all seven under beam search).  Future perf
PRs add one variant entry here instead of scattering ad-hoc comparisons.

The *reference* configuration turns every optimization off
(``decode_strategy="serial"``); the *optimized* configuration is the
default ``auto``.
"""

from pathlib import Path

import pytest

from repro.fi import (
    FaultModel,
    FICampaign,
    Outcome,
    assert_records_equal,
    assert_results_equal,
    assert_sequences_equal,
    load_checkpoint,
    record_signature,
)
from repro.fi.campaign import TrialRecord
from repro.fi.sites import FaultSite
from repro.generation import GenerationConfig
from repro.harness.experiments import _router_only
from repro.inference import InferenceEngine
from repro.obs import telemetry
from repro.tasks import MMLUTask, TranslationTask, standardized_subset

REFERENCE = dict(decode_strategy="serial")

PARENT_BEAM_JOURNALS = Path(__file__).parent / "data"
"""``journal_8a2e640_wmt16_beam_<fault>.jsonl``: six trials of
``make_campaign(untrained_store, …, "gen", fault, num_beams=3,
decode_strategy="serial")`` journalled by the commit whose serial beam
loop forked ``Session`` objects (its ``git_rev`` header says which).
``journal_2cd8c04_moe_tracking_<task>_[router_|beam_]<fault>.jsonl``:
six or eight expert-tracking trials of the MoE campaigns of
:meth:`TestExecutionEquivalence.test_moe_selection_tracking_matches_the_parent_journal`,
journalled by the last commit whose engine recorded selections itself."""


@pytest.fixture(autouse=True)
def clean_telemetry():
    tel = telemetry()
    tel.reset()
    tel.disable()
    yield tel
    tel.reset()
    tel.disable()


def make_campaign(
    store, tokenizer, world, kind, fault_model, num_beams=1,
    weight_policy="fp32", **kw
):
    """One campaign over the standardized subset; ``kind`` picks the task."""
    engine = InferenceEngine(store, weight_policy=weight_policy)
    if kind == "mc":
        task = MMLUTask(world)
        generation = None
    else:
        task = TranslationTask(world)
        generation = GenerationConfig(
            max_new_tokens=6 if num_beams > 1 else task.max_new_tokens,
            num_beams=num_beams,
            eos_id=tokenizer.vocab.eos_id,
        )
    return FICampaign(
        engine=engine,
        tokenizer=tokenizer,
        task_name=task.name,
        metrics=task.metrics,
        examples=standardized_subset(task, 3),
        fault_model=fault_model,
        seed=9,
        generation=generation,
        **kw,
    )


MODES = [
    ("mc", 1),
    ("gen", 1),
    ("gen", 3),
]

# Beam search covers every fault model: ``decode_plan`` sends KV and
# accumulator faults to the batched leg of the one beam loop, too.
EQUIVALENCE_CASES = [
    pytest.param(kind, num_beams, fault_model, id=f"{mode}-{fault_model.value}")
    for (kind, num_beams), mode in zip(
        MODES, ["mc-greedy", "gen-greedy", "gen-beam"]
    )
    for fault_model in (
        FaultModel.extended() if num_beams > 1 else FaultModel.all()
    )
]


class TestExecutionEquivalence:
    """auto-optimized campaigns replay the reference path bit-for-bit."""

    @pytest.mark.parametrize("kind,num_beams,fault_model", EQUIVALENCE_CASES)
    def test_optimized_matches_reference(
        self, untrained_store, tokenizer, world, kind, num_beams, fault_model
    ):
        optimized = make_campaign(
            untrained_store, tokenizer, world, kind, fault_model,
            num_beams=num_beams,
        ).run(8)
        reference = make_campaign(
            untrained_store, tokenizer, world, kind, fault_model,
            num_beams=num_beams, **REFERENCE,
        ).run(8)
        assert_results_equal(optimized, reference, "optimized", "reference")

    @pytest.mark.parametrize("strategy", ["serial", "auto"])
    @pytest.mark.parametrize(
        "fault_model",
        [
            FaultModel.COMP_2BIT, FaultModel.MEM_2BIT,
            FaultModel.KV_2BIT, FaultModel.ACC_2BIT,
        ],
        ids=lambda fault_model: fault_model.value,
    )
    def test_beam_records_match_the_parent_journal(
        self, untrained_store, tokenizer, world, fault_model, strategy
    ):
        """Both legs of the one beam loop replay the parent's serial
        records — ``auto == serial`` alone cannot catch a change both
        legs share."""
        camp = make_campaign(
            untrained_store, tokenizer, world, "gen", fault_model,
            num_beams=3, decode_strategy=strategy,
        )
        journal = PARENT_BEAM_JOURNALS / (
            f"journal_8a2e640_wmt16_beam_{fault_model.value}.jsonl"
        )
        header, done, _ = load_checkpoint(journal, camp.fingerprint())
        assert header["git_rev"].startswith("8a2e640")
        assert sorted(done) == list(range(6))
        assert_records_equal(
            camp.run(6), [done[i] for i in range(6)], strategy, "parent serial"
        )

    @pytest.mark.parametrize(
        "kind,num_beams", MODES, ids=["mc-greedy", "gen-greedy", "gen-beam"]
    )
    def test_pool_matches_serial(
        self, untrained_store, tokenizer, world, kind, num_beams
    ):
        pooled = make_campaign(
            untrained_store, tokenizer, world, kind, FaultModel.COMP_2BIT,
            num_beams=num_beams,
        ).run(6, n_workers=2)
        serial = make_campaign(
            untrained_store, tokenizer, world, kind, FaultModel.COMP_2BIT,
            num_beams=num_beams, **REFERENCE,
        ).run(6, n_workers=0)
        assert_results_equal(pooled, serial, "pooled", "serial")

    @pytest.mark.parametrize("n_workers", [0, 2])
    @pytest.mark.parametrize(
        "model,policy",
        [("dense", p) for p in ("fp32", "bf16", "fp16", "int8", "int4")]
        + [("moe", "bf16")],
    )
    def test_mc_weight_faults_share_rows_and_match_reference(
        self, untrained_store, moe_store, tokenizer, world, model, policy,
        n_workers, clean_telemetry,
    ):
        """MC ``2bits-mem`` under every storage policy, in this process
        and on two workers: one row per option class where the mask
        bound admits the struck element, and the reference's records.
        An MoE engine shares no row."""
        store = moe_store if model == "moe" else untrained_store
        clean_telemetry.enable()
        optimized = make_campaign(
            store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            weight_policy=policy,
        ).run(12, n_workers=n_workers)
        counters = clean_telemetry.metrics.snapshot()["counters"]
        clean_telemetry.disable()
        reference = make_campaign(
            store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            weight_policy=policy, **REFERENCE,
        ).run(12, n_workers=n_workers)
        assert_results_equal(optimized, reference, "optimized", "reference")
        shared = counters.get("campaign.mc_golden.rows_shared", 0)
        assert (shared > 0) == (model == "dense")
        if model == "moe":
            assert counters.get("campaign.mc_golden.share_refused", 0) == 0

    @pytest.mark.parametrize("strategy", ["serial", "auto"])
    @pytest.mark.parametrize("n_workers", [0, 2])
    @pytest.mark.parametrize(
        "kind,num_beams,fault_model,router_only,n_trials",
        [
            ("gen", 1, FaultModel.MEM_2BIT, True, 6),
            ("gen", 1, FaultModel.COMP_2BIT, False, 6),
            ("gen", 1, FaultModel.COMP_2BIT, True, 6),
            ("gen", 3, FaultModel.COMP_2BIT, False, 6),
            ("mc", 1, FaultModel.MEM_2BIT, False, 6),
            ("mc", 1, FaultModel.MEM_2BIT, True, 8),
        ],
        ids=[
            "gen-router-mem", "gen-comp", "gen-router-comp", "gen-beam-comp",
            "mc-mem", "mc-router-mem",
        ],
    )
    def test_moe_selection_tracking_matches_the_parent_journal(
        self, moe_store, tokenizer, world, kind, num_beams, fault_model,
        router_only, n_trials, n_workers, strategy,
    ):
        """Expert-tracking trials replay the records, ``selection_changed``
        included, that the engine's own capture channel journalled before
        every read became an observer hook — ``auto == serial`` alone
        cannot catch a break both legs share, so both legs replay them.
        A computational fault on
        a router changes the choice the record holds only if the
        recorder reads the router after the injector's hook; trial 7 of
        the multiple-choice router faults changes the routing of a later
        option's forward only, which a record kept from the first forward
        misses.  Beam search records through its batched leg on ``auto``
        (a recorder is an observer), whose last row is the serial leg's
        last hypothesis."""
        kw = dict(track_expert_selection=True, decode_strategy=strategy)
        if router_only:
            kw["layer_filter"] = _router_only  # Fig. 15's gate-layer faults
        camp = make_campaign(
            moe_store, tokenizer, world, kind, fault_model, num_beams=num_beams, **kw
        )
        task = "mmlu" if kind == "mc" else "wmt16"
        case = ("router_" if router_only else "") + ("beam_" if num_beams > 1 else "")
        journal = PARENT_BEAM_JOURNALS / (
            f"journal_2cd8c04_moe_tracking_{task}_{case}{fault_model.value}.jsonl"
        )
        header, done, _ = load_checkpoint(journal, camp.fingerprint())
        assert header["git_rev"].startswith("2cd8c04")
        assert sorted(done) == list(range(n_trials))
        assert_records_equal(
            camp.run(n_trials, n_workers=n_workers),
            [done[i] for i in range(n_trials)],
            f"{strategy} on {n_workers} workers", "parent capture",
        )

    def test_moe_selection_tracking_matches_reference(
        self, moe_store, tokenizer, world
    ):
        kw = dict(track_expert_selection=True)
        fast = make_campaign(
            moe_store, tokenizer, world, "mc", FaultModel.MEM_2BIT, **kw
        ).run(6)
        slow = make_campaign(
            moe_store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            **kw, **REFERENCE,
        ).run(6)
        assert_results_equal(fast, slow, "auto", "reference")


class TestOracle:
    """The oracle itself: failure messages must localize divergence."""

    def _record(self, **kw):
        defaults = dict(
            site=FaultSite(
                FaultModel.COMP_2BIT, "blocks.0.up_proj", 0, 3, bits=(5, 20)
            ),
            example_index=0,
            prediction="hello",
            outcome=Outcome.MASKED,
            metrics={"bleu": 1.0},
            changed=False,
            selection_changed=None,
        )
        defaults.update(kw)
        return TrialRecord(**defaults)

    def test_accepts_identical(self):
        a, b = self._record(), self._record()
        assert_records_equal([a], [b])

    def test_pinpoints_field_divergence(self):
        a = self._record()
        b = self._record(prediction="world", outcome=Outcome.SDC_SUBTLE)
        with pytest.raises(AssertionError, match="trial 1 diverges"):
            assert_records_equal([a, a], [a, b], "fast", "slow")
        with pytest.raises(AssertionError, match="prediction, outcome"):
            assert_records_equal([b], [a])

    def test_catches_metrics_divergence(self):
        """Dataclass ``==`` ignores metrics (compare=False); the oracle
        must not."""
        a = self._record(metrics={"bleu": 1.0})
        b = self._record(metrics={"bleu": 2.0})
        assert a == b  # the trap the oracle exists to close
        assert record_signature(a) != record_signature(b)
        with pytest.raises(AssertionError, match="metrics"):
            assert_records_equal([a], [b])

    def test_catches_error_divergence(self):
        a = self._record(outcome=Outcome.FAILED, error="ChaosError: x")
        b = self._record(outcome=Outcome.FAILED, error="ChaosError: y")
        with pytest.raises(AssertionError, match="error"):
            assert_records_equal([a], [b])

    def test_length_mismatch(self):
        a = self._record()
        with pytest.raises(AssertionError, match="trial counts differ"):
            assert_records_equal([a], [a, a], "half", "full")

    def test_sequence_oracle(self):
        assert_sequences_equal([1, 2, 3], [1, 2, 3])
        with pytest.raises(AssertionError, match="element 1 diverges"):
            assert_sequences_equal([1, 2, 3], [1, 9, 3])
        with pytest.raises(AssertionError, match="lengths differ"):
            assert_sequences_equal([1], [1, 2])
