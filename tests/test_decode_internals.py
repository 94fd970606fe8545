"""Deeper tests of decoding internals and campaign bookkeeping."""

import dataclasses

import numpy as np
import pytest

from repro.fi import FaultModel, FICampaign
from repro.generation import GenerationConfig, beam_search_decode, greedy_decode
from repro.inference.kvcache import PooledKVCache
from repro.numerics.stats import RatioCI
from repro.tasks import MMLUTask, TranslationTask, standardized_subset

EOS = 2


class _ScriptedEngine:
    """Next-token log-probabilities that depend on the last input token
    only: after token 1, EOS (-0.69) beats token 0 (-0.92); after token
    0, token 0 again is nearly certain (-0.02)."""

    LOGP = {1: [-0.92, -2.3, -0.69], 0: [-0.02, -4.6, -4.6]}

    def new_pool(self, n_slots):
        return PooledKVCache(1, n_slots, 1, 8, 1)

    def forward(self, tokens, caches, start_pos, iteration):
        return np.array([self.LOGP[t] for t in tokens], dtype=np.float32)


def _scripted_beams(length_penalty, max_new_tokens=5):
    config = GenerationConfig(
        max_new_tokens=max_new_tokens, num_beams=2, eos_id=EOS,
        length_penalty=length_penalty,
    )
    return beam_search_decode(_ScriptedEngine(), [1], config, strategy="serial")


class TestBeamInternals:
    def test_length_normalization(self):
        """Unnormalized, the hypothesis EOS finished at once (-0.69)
        beats five 0s (about -1.0 in all); divided by length, the five
        0s (-0.2 a token) win."""
        assert _scripted_beams(length_penalty=0.0) == []
        assert _scripted_beams(length_penalty=1.0) == [0] * 5

    def test_empty_beam_normalization_safe(self):
        """A hypothesis finished with no tokens is normalized by length
        1, not 0, and wins over the longer one it beats per token."""
        assert _scripted_beams(length_penalty=1.0, max_new_tokens=1) == []

    def test_eos_terminates_beam(self, untrained_engine):
        """Forcing EOS as the argmax stops generation immediately."""
        vocab = untrained_engine.config.vocab_size

        def force_eos(out, ctx):
            return out

        cfg = GenerationConfig(max_new_tokens=6, num_beams=2, eos_id=2)
        result = beam_search_decode(untrained_engine, [3, 4], cfg)
        assert len(result) <= 6
        assert 2 not in result  # EOS is never emitted as content

    def test_beam_wider_explores_no_worse_prefix(self, untrained_engine):
        cfg2 = GenerationConfig(max_new_tokens=4, num_beams=2, eos_id=2)
        cfg6 = GenerationConfig(max_new_tokens=4, num_beams=6, eos_id=2)
        out2 = beam_search_decode(untrained_engine, [5, 9], cfg2)
        out6 = beam_search_decode(untrained_engine, [5, 9], cfg6)
        assert isinstance(out2, list) and isinstance(out6, list)

    def test_greedy_emits_no_eos(self, untrained_engine):
        cfg = GenerationConfig(max_new_tokens=10, eos_id=2)
        out = greedy_decode(untrained_engine, [7, 3], cfg)
        assert 2 not in out


class TestCampaignBookkeeping:
    def _mc(self, engine, tokenizer, world, n_examples=3):
        task = MMLUTask(world)
        return FICampaign(
            engine=engine,
            tokenizer=tokenizer,
            task_name=task.name,
            metrics=task.metrics,
            examples=standardized_subset(task, n_examples),
            fault_model=FaultModel.MEM_2BIT,
            seed=2,
        )

    def test_examples_cycle_round_robin(self, untrained_engine, tokenizer, world):
        result = self._mc(untrained_engine, tokenizer, world).run(7)
        indices = [t.example_index for t in result.trials]
        assert indices == [0, 1, 2, 0, 1, 2, 0]

    def test_baseline_cached(self, untrained_engine, tokenizer, world):
        campaign = self._mc(untrained_engine, tokenizer, world)
        first = campaign.compute_baseline()
        assert campaign.compute_baseline() is first

    def test_per_example_baseline_mc(self, untrained_engine, tokenizer, world):
        campaign = self._mc(untrained_engine, tokenizer, world)
        campaign.compute_baseline()
        for idx in range(3):
            value = campaign._per_example_baseline("accuracy", idx)
            assert value in (0.0, 100.0)

    def test_gen_campaign_normalized_uses_per_example_base(
        self, untrained_engine, tokenizer, world
    ):
        task = TranslationTask(world)
        campaign = FICampaign(
            engine=untrained_engine,
            tokenizer=tokenizer,
            task_name=task.name,
            metrics=task.metrics,
            examples=standardized_subset(task, 2),
            fault_model=FaultModel.COMP_1BIT,
            seed=3,
            generation=GenerationConfig(max_new_tokens=6, eos_id=2),
        )
        result = campaign.run(4)
        for ci in result.normalized.values():
            assert isinstance(ci, RatioCI)

    def test_trial_sites_seed_namespaced(self, untrained_engine, tokenizer, world):
        a = self._mc(untrained_engine, tokenizer, world)
        b = self._mc(untrained_engine, tokenizer, world)
        b.plan = dataclasses.replace(b.plan, seed=99)
        a.compute_baseline()
        b.compute_baseline()
        site_a = a.plan.site(a.engine, 0)
        site_b = b.plan.site(b.engine, 0)
        assert site_a != site_b


class TestRatioCI:
    def test_margin(self):
        ci = RatioCI(0.9, 0.8, 1.0)
        assert ci.margin == pytest.approx(0.1)

    def test_contains(self):
        ci = RatioCI(0.9, 0.8, 1.0)
        assert 0.85 in ci
        assert 1.1 not in ci
