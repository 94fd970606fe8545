"""Tests for fault models and uniform site sampling."""

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.fi import FaultModel, FaultSite, sample_site
from repro.fi.plan import CellPlan


class TestFaultModel:
    def test_bit_counts(self):
        assert FaultModel.COMP_1BIT.n_bits == 1
        assert FaultModel.COMP_2BIT.n_bits == 2
        assert FaultModel.MEM_2BIT.n_bits == 2

    def test_classification(self):
        assert FaultModel.MEM_2BIT.is_memory
        assert FaultModel.COMP_1BIT.is_computational
        assert not FaultModel.MEM_2BIT.is_computational

    def test_all(self):
        assert len(FaultModel.all()) == 3

    def test_string_values_match_paper(self):
        assert FaultModel.MEM_2BIT.value == "2bits-mem"
        assert FaultModel.COMP_1BIT.value == "1bit-comp"


class TestFaultSite:
    def test_parsing_helpers(self):
        site = FaultSite(
            FaultModel.MEM_2BIT, "blocks.3.up_proj", 1, 2, bits=(4, 14)
        )
        assert site.block == 3
        assert site.layer_type == "up_proj"
        assert site.highest_bit == 14

    def test_moe_expert_layer_type(self):
        site = FaultSite(
            FaultModel.MEM_2BIT, "blocks.0.experts.2.down_proj", 0, 0, bits=(1,)
        )
        assert site.layer_type == "experts.2.down_proj"


class TestSampling:
    def test_memory_site_in_bounds(self, untrained_engine):
        rng = np.random.default_rng(0)
        for _ in range(200):
            site = sample_site(untrained_engine, FaultModel.MEM_2BIT, rng)
            store = untrained_engine.weight_store(site.layer_name)
            assert 0 <= site.row < store.shape[0]
            assert 0 <= site.col < store.shape[1]
            assert len(site.bits) == 2
            assert len(set(site.bits)) == 2  # distinct bits
            assert max(site.bits) < store.n_storage_bits
            assert site.iteration == 0

    def test_comp_site_iteration_bounded(self, untrained_engine):
        rng = np.random.default_rng(1)
        iterations = {
            sample_site(
                untrained_engine, FaultModel.COMP_2BIT, rng, max_iterations=5
            ).iteration
            for _ in range(100)
        }
        assert iterations <= {0, 1, 2, 3, 4}
        assert len(iterations) > 1  # actually samples the range

    def test_deterministic_given_rng(self, untrained_engine):
        a = sample_site(
            untrained_engine, FaultModel.MEM_2BIT, np.random.default_rng(7)
        )
        b = sample_site(
            untrained_engine, FaultModel.MEM_2BIT, np.random.default_rng(7)
        )
        assert a == b

    def test_covers_blocks_and_layers(self, untrained_engine):
        rng = np.random.default_rng(2)
        sites = [
            sample_site(untrained_engine, FaultModel.MEM_2BIT, rng)
            for _ in range(300)
        ]
        blocks = {s.block for s in sites}
        layer_types = {s.layer_type for s in sites}
        assert blocks == {0, 1}
        assert layer_types == {
            "q_proj", "k_proj", "v_proj", "out_proj",
            "gate_proj", "up_proj", "down_proj",
        }

    def test_layer_filter(self, moe_engine):
        rng = np.random.default_rng(3)
        sites = [
            sample_site(
                moe_engine,
                FaultModel.MEM_2BIT,
                rng,
                layer_filter=lambda n: n.endswith("router"),
            )
            for _ in range(30)
        ]
        assert all(s.layer_type == "router" for s in sites)

    def test_filter_excluding_all_raises(self, untrained_engine):
        with pytest.raises(ValueError):
            sample_site(
                untrained_engine,
                FaultModel.MEM_2BIT,
                np.random.default_rng(0),
                layer_filter=lambda n: False,
            )

    def test_quantized_sites_use_code_width(self, untrained_store):
        from repro.inference import InferenceEngine

        engine = InferenceEngine(untrained_store, weight_policy="int4")
        rng = np.random.default_rng(4)
        for _ in range(100):
            site = sample_site(engine, FaultModel.MEM_2BIT, rng)
            assert max(site.bits) < 4


class TestTrialRng:
    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 7)
    KEYS = (
        ("ex-0", 0, "2bits-mem"), ("ex-3", 17, "1bit-comp"), ("q", 2**40, "1bit-kv")
    )

    def test_trial_streams_are_the_list_seeded_ones(self, untrained_engine):
        """``CellPlan.rng`` seeds from one ``uint32`` array, the
        entropy pool numpy builds from the list ``[seed, *words]``: every
        sampler draws what the list-seeded generator draws."""
        for seed in self.SEEDS:
            for key in self.KEYS:
                stub = SimpleNamespace(seed=seed, key=lambda trial, key=key: key)
                digest = hashlib.sha256(json.dumps(key).encode()).digest()
                words = [
                    int.from_bytes(digest[i : i + 4], "little")
                    for i in range(0, 16, 4)
                ]

                def pair():
                    return (
                        CellPlan.rng(stub, key[1]),
                        np.random.default_rng([seed, *words]),
                    )

                for draw in (
                    lambda rng: rng.integers(0, 2**63, 4),
                    lambda rng: rng.random(4),
                    lambda rng: rng.choice(32, 2, replace=False),
                ):
                    a, b = pair()
                    assert draw(a).tolist() == draw(b).tolist(), (seed, key)
                for model in FaultModel:
                    a, b = pair()
                    assert sample_site(
                        untrained_engine, model, a, max_iterations=8
                    ) == sample_site(untrained_engine, model, b, max_iterations=8), (
                        seed, key, model,
                    )
