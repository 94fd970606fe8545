"""Differential test suite: every execution path, one oracle.

PRs 2–3 grew the campaign runner a family of execution strategies —
shared-prefix option scoring, prefill caching, continuous-batched
decoding, process pools — each duty-bound to reproduce the serial
reference path bit-for-bit.  This module consolidates the equivalence
checks behind :func:`repro.fi.assert_records_equal` and sweeps the
full grid: execution variant × greedy/beam × MC/generative × all
three fault models.  Future perf PRs add one variant entry here
instead of scattering ad-hoc comparisons.

The *reference* configuration turns every optimization off
(``decode_strategy="serial"``); the *optimized* configuration is the
default ``auto``.
"""

import pytest

from repro.fi import (
    FaultModel,
    FICampaign,
    Outcome,
    assert_records_equal,
    assert_results_equal,
    assert_sequences_equal,
    record_signature,
)
from repro.fi.campaign import TrialRecord
from repro.fi.sites import FaultSite
from repro.generation import GenerationConfig
from repro.inference import InferenceEngine
from repro.obs import telemetry
from repro.tasks import MMLUTask, TranslationTask, standardized_subset

REFERENCE = dict(decode_strategy="serial")


@pytest.fixture(autouse=True)
def clean_telemetry():
    tel = telemetry()
    tel.reset()
    tel.disable()
    yield tel
    tel.reset()
    tel.disable()


def make_campaign(
    store, tokenizer, world, kind, fault_model, num_beams=1, **kw
):
    """One campaign over the standardized subset; ``kind`` picks the task."""
    engine = InferenceEngine(store)
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


class TestExecutionEquivalence:
    """auto-optimized campaigns replay the reference path bit-for-bit."""

    @pytest.mark.parametrize("fault_model", FaultModel.all())
    @pytest.mark.parametrize(
        "kind,num_beams", MODES, ids=["mc-greedy", "gen-greedy", "gen-beam"]
    )
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
