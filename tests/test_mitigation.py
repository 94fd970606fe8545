"""Tests for the fault-tolerance mechanisms (repro.mitigation)."""

import numpy as np
import pytest

from repro.fi import FaultModel, FaultSite, FICampaign, MemoryFaultInjector, inject
from repro.generation import GenerationConfig
from repro.mitigation import (
    LogitAnomalyDetector,
    RangeRestrictor,
    SelectiveProtection,
    WeightGuard,
    output_structure_flags,
    router_layers,
)
from repro.tasks import TranslationTask, standardized_subset

PROMPT = [3, 17, 8, 25, 4, 11, 30, 2]


def _big_mem_site(layer="blocks.0.up_proj"):
    # Flip the two top exponent bits of an fp32 weight: guaranteed blowup.
    return FaultSite(FaultModel.MEM_2BIT, layer, 4, 6, bits=(30, 29))


class TestRangeRestrictor:
    def _calibrated(self, engine):
        guard = RangeRestrictor(margin=0.1)
        guard.calibrate(engine, [PROMPT, PROMPT[:5]])
        return guard

    def test_requires_calibration(self, untrained_engine):
        with pytest.raises(RuntimeError):
            RangeRestrictor().install(untrained_engine)
        with pytest.raises(ValueError):
            RangeRestrictor().calibrate(untrained_engine, [])

    def test_no_clipping_on_clean_inputs(self, untrained_engine):
        guard = self._calibrated(untrained_engine)
        guard.install(untrained_engine)
        try:
            untrained_engine.forward_full(PROMPT)
        finally:
            guard.uninstall()
        assert guard.clip_events == 0

    def test_contains_memory_fault_blowup(self, untrained_engine):
        baseline = untrained_engine.forward_full(PROMPT)
        site = _big_mem_site()
        with MemoryFaultInjector(untrained_engine, site):
            unprotected = untrained_engine.forward_full(PROMPT)
        guard = self._calibrated(untrained_engine)
        guard.install(untrained_engine)
        try:
            with MemoryFaultInjector(untrained_engine, site):
                protected = untrained_engine.forward_full(PROMPT)
        finally:
            guard.uninstall()
        assert guard.clip_events > 0
        err_unprotected = np.abs(np.nan_to_num(unprotected) - baseline).max()
        err_protected = np.abs(np.nan_to_num(protected) - baseline).max()
        assert err_protected < err_unprotected

    def test_uninstall_removes_hooks(self, untrained_engine):
        guard = self._calibrated(untrained_engine)
        guard.install(untrained_engine)
        assert guard.installed
        guard.uninstall()
        assert not guard.installed
        assert len(untrained_engine.hooks) == 0

    def test_double_install_rejected(self, untrained_engine):
        guard = self._calibrated(untrained_engine)
        guard.install(untrained_engine)
        try:
            with pytest.raises(RuntimeError):
                guard.install(untrained_engine)
        finally:
            guard.uninstall()


class TestWeightGuard:
    def test_clean_model_scans_clean(self, untrained_engine):
        guard = WeightGuard()
        guard.profile(untrained_engine)
        assert guard.scan(untrained_engine) == []

    def test_detects_and_scrubs_blowup(self, untrained_engine):
        guard = WeightGuard(headroom=4.0)
        guard.profile(untrained_engine)
        site = _big_mem_site()
        store = untrained_engine.weight_store(site.layer_name)
        with inject(untrained_engine, site):
            found = guard.scan(untrained_engine)
            assert len(found) == 1
            anomaly = found[0]
            assert (anomaly.layer_name, anomaly.row, anomaly.col) == (
                site.layer_name, site.row, site.col,
            )
            repaired = guard.scrub(untrained_engine)
            assert len(repaired) == 1
            assert store.array[site.row, site.col] == 0.0
            assert guard.scan(untrained_engine) == []

    def test_small_flip_not_flagged(self, untrained_engine):
        """Mantissa flips stay in-envelope — detection targets blowups."""
        guard = WeightGuard()
        guard.profile(untrained_engine)
        site = FaultSite(
            FaultModel.MEM_2BIT, "blocks.0.up_proj", 4, 6, bits=(0, 1)
        )
        with inject(untrained_engine, site):
            assert guard.scan(untrained_engine) == []

    def test_scan_requires_profile(self, untrained_engine):
        with pytest.raises(RuntimeError):
            WeightGuard().scan(untrained_engine)


class TestSelectiveProtection:
    def test_router_layer_discovery(self, moe_engine, untrained_engine):
        assert len(router_layers(moe_engine)) == moe_engine.config.n_blocks
        assert router_layers(untrained_engine) == []

    def test_restores_corrupted_router(self, moe_engine):
        protection = SelectiveProtection(moe_engine, router_layers(moe_engine))
        layer = router_layers(moe_engine)[0]
        store = moe_engine.weight_store(layer)
        pristine = store.array.copy()
        store.flip_element_bits(0, 1, [30])
        fixed = protection.verify_and_restore()
        assert fixed == 1
        np.testing.assert_array_equal(store.array, pristine)
        # Second pass: nothing left to fix.
        assert protection.verify_and_restore() == 0
        assert protection.corrections == 1

    def test_overhead_accounting(self, moe_engine):
        protection = SelectiveProtection(moe_engine, router_layers(moe_engine))
        expected = sum(
            moe_engine.weight_store(n).array.nbytes
            for n in router_layers(moe_engine)
        )
        assert protection.overhead_bytes == expected

    def test_guarded_callable(self, moe_engine):
        protection = SelectiveProtection(moe_engine, router_layers(moe_engine))
        assert protection.guarded(lambda: 42) == 42

    def test_requires_layers(self, untrained_engine):
        with pytest.raises(ValueError):
            SelectiveProtection(untrained_engine, [])

    def test_protected_router_campaign(self, moe_engine, tokenizer, world):
        """The mitigation study's wiring: verify-and-restore before every
        decode of a router-only memory-fault campaign.  The wrapper has
        to pass on whatever the campaign calls ``_eval_gen`` with — one
        that took the example alone made every trial raise and end up
        quarantined."""
        task = TranslationTask(world)
        campaign = FICampaign(
            engine=moe_engine,
            tokenizer=tokenizer,
            task_name=task.name,
            metrics=task.metrics,
            examples=standardized_subset(task, 3),
            fault_model=FaultModel.MEM_2BIT,
            seed=4,
            generation=GenerationConfig(
                max_new_tokens=task.max_new_tokens, eos_id=tokenizer.vocab.eos_id
            ),
            layer_filter=lambda name: name.endswith("router"),
        )
        protection = SelectiveProtection(moe_engine, router_layers(moe_engine))
        original = campaign._eval_gen
        campaign._eval_gen = lambda *args: protection.guarded(lambda: original(*args))
        result = campaign.run(8, retry_backoff=0.0)
        assert result.quarantined == 0
        assert not any(trial.changed for trial in result.trials)
        assert protection.corrections > 0


class TestDetectors:
    def test_clean_logits_pass(self):
        detector = LogitAnomalyDetector()
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert not detector.check(rng.normal(0, 3, size=100).astype(np.float32))
        assert not detector.triggered

    def test_nan_flagged(self):
        detector = LogitAnomalyDetector()
        logits = np.zeros(50, np.float32)
        logits[3] = np.nan
        assert detector.check(logits)
        assert detector.reasons == ["non-finite"]

    def test_uniform_entropy_flagged(self):
        detector = LogitAnomalyDetector()
        assert detector.check(np.zeros(1000, np.float32))  # exactly uniform
        assert detector.reasons == ["entropy"]

    def test_reset(self):
        detector = LogitAnomalyDetector()
        detector.check(np.full(10, np.inf, np.float32))
        detector.reset()
        assert not detector.triggered and detector.total_steps == 0

    def test_structure_flags(self):
        assert output_structure_flags("<pad> <pad> <pad> <pad>")
        assert not output_structure_flags("the answer is 7 .")
