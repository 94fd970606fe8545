"""Speculative decoding: correctness, FI-safety gate, zoo pairing.

The speculative decoder's contract is absolute: greedy output is
token-identical to the serial reference loop for any draft and any
depth (the gate forces injected decodes onto the exact serial path;
speculation only ever accelerates fault-free work).
"""

import numpy as np
import pytest

from repro.fi import ComputationalFaultInjector, FaultModel
from repro.fi.sites import FaultSite
from repro.generation import (
    GenerationConfig,
    SpeculativeDecoder,
    decode_plan,
    greedy_decode,
)
from repro.inference import InferenceEngine
from repro.inference.engine import CaptureState
from repro.model import ModelConfig, TransformerLM
from repro.obs import telemetry
from repro.zoo import ZOO, draft_for


@pytest.fixture(autouse=True)
def clean_telemetry():
    tel = telemetry()
    tel.reset()
    tel.disable()
    yield tel
    tel.reset()
    tel.disable()


@pytest.fixture(scope="module")
def draft_store(tokenizer):
    """A draft smaller than ``untrained_store`` with different weights."""
    config = ModelConfig(
        vocab_size=len(tokenizer), d_model=16, n_heads=2, n_blocks=1,
        d_ff=24, max_seq=160,
    )
    return TransformerLM(config, seed=23).to_store()


@pytest.fixture()
def draft_engine(draft_store) -> InferenceEngine:
    return InferenceEngine(draft_store)


def _prompts(n=6, lo=2, hi=12, seed=77, vocab=40):
    rng = np.random.default_rng(seed)
    return [
        [int(t) for t in rng.integers(3, vocab, size=int(rng.integers(lo, hi)))]
        for _ in range(n)
    ]


class TestGreedyBitIdentity:
    """Speculative greedy output == serial greedy output, always."""

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_depths_match_serial(self, untrained_engine, draft_engine, depth):
        config = GenerationConfig(max_new_tokens=24)
        for prompt in _prompts():
            serial = greedy_decode(
                untrained_engine, prompt, config, strategy="serial"
            )
            spec = SpeculativeDecoder(
                untrained_engine, draft_engine, config, speculation_depth=depth
            ).decode_one(prompt)
            assert spec == serial

    def test_self_draft_full_acceptance(self, untrained_engine, untrained_store):
        """Draft == target: every proposal accepted, bonus-token path."""
        config = GenerationConfig(max_new_tokens=16)
        twin = InferenceEngine(untrained_store)
        tel = telemetry()
        tel.enable()
        decoder = SpeculativeDecoder(
            untrained_engine, twin, config, speculation_depth=4
        )
        for prompt in _prompts(n=3):
            serial = greedy_decode(
                untrained_engine, prompt, config, strategy="serial"
            )
            assert decoder.decode_one(prompt) == serial
        rejected = tel.metrics.snapshot()["counters"].get(
            "decode.spec_rejected", 0.0
        )
        assert rejected == 0.0

    @pytest.mark.parametrize("max_new", [1, 2, 3, 5])
    def test_token_budget_edges(self, untrained_engine, draft_engine, max_new):
        config = GenerationConfig(max_new_tokens=max_new)
        decoder = SpeculativeDecoder(
            untrained_engine, draft_engine, config, speculation_depth=4
        )
        for prompt in _prompts(n=4):
            serial = greedy_decode(
                untrained_engine, prompt, config, strategy="serial"
            )
            assert decoder.decode_one(prompt) == serial
            assert len(serial) <= max_new

    def test_eos_handling(self, untrained_engine, draft_engine):
        """EOS anywhere in a verify chunk stops without emitting it."""
        # Sweep eos over the most frequent argmax tokens so some decode
        # actually hits it mid-chunk.
        config0 = GenerationConfig(max_new_tokens=24)
        prompts = _prompts(n=4)
        seen = [
            t
            for p in prompts
            for t in greedy_decode(untrained_engine, p, config0, strategy="serial")
        ]
        assert seen, "untrained decode emitted nothing"
        hit_early_stop = False
        for eos in set(seen):
            config = GenerationConfig(max_new_tokens=24, eos_id=eos)
            decoder = SpeculativeDecoder(
                untrained_engine, draft_engine, config, speculation_depth=3
            )
            for prompt in prompts:
                serial = greedy_decode(
                    untrained_engine, prompt, config, strategy="serial"
                )
                assert decoder.decode_one(prompt) == serial
                hit_early_stop |= len(serial) < 24
        assert hit_early_stop

    def test_consumes_prefilled_session(self, untrained_engine, draft_engine):
        config = GenerationConfig(max_new_tokens=12)
        prompt = _prompts(n=1)[0]
        serial = greedy_decode(untrained_engine, prompt, config, strategy="serial")
        session = untrained_engine.start_session(prompt)
        spec = SpeculativeDecoder(
            untrained_engine, draft_engine, config, speculation_depth=2
        ).decode_one(prompt, session=session)
        assert spec == serial


class TestConstructionAndGate:
    def test_vocab_mismatch_rejected(self, untrained_engine):
        other = InferenceEngine(
            TransformerLM(
                ModelConfig(
                    vocab_size=untrained_engine.config.vocab_size + 3,
                    d_model=16, n_heads=2, n_blocks=1, d_ff=24, max_seq=64,
                ),
                seed=1,
            ).to_store()
        )
        with pytest.raises(ValueError, match="vocabulary mismatch"):
            SpeculativeDecoder(
                untrained_engine, other, GenerationConfig(max_new_tokens=4)
            )

    def test_depth_validated(self, untrained_engine, draft_engine):
        with pytest.raises(ValueError, match="speculation_depth"):
            SpeculativeDecoder(
                untrained_engine, draft_engine,
                GenerationConfig(max_new_tokens=4), speculation_depth=0,
            )

    def test_gate_rejects_armed_machinery(self, untrained_engine, draft_engine):
        """Arm / disarm sequences on a live pair (the static table is
        ``test_decode_round.py::test_gate_matrix``)."""
        assert decode_plan(untrained_engine, draft_engine)[0] == "composed"
        site = FaultSite(
            FaultModel.COMP_2BIT, "blocks.0.up_proj", 0, 1,
            bits=(3, 17), iteration=2,
        )
        with ComputationalFaultInjector(untrained_engine, site):
            # Row-scoped hooks keep *batching* safe but must still
            # stand speculation down: the iteration<->forward mapping
            # changes under draft-and-verify.
            assert decode_plan(untrained_engine, draft_engine) == (
                "batched", "row_scoped_hooks"
            )
        assert decode_plan(untrained_engine, draft_engine)[0] == "composed"
        untrained_engine.capture = CaptureState()
        assert decode_plan(untrained_engine, draft_engine)[0] == "serial"
        untrained_engine.capture = None
        draft_engine.weight_fault_depth = 1
        assert decode_plan(untrained_engine, draft_engine) == (
            "batched", "draft_weight_fault"
        )
        draft_engine.weight_fault_depth = 0

    def test_gate_admits_pure_observer_hooks(
        self, untrained_engine, draft_engine
    ):
        """Layer-timing probes (observer=True) must not kill speculation.

        Campaign.run attaches timing hooks to the target whenever
        telemetry is active; the fault-free baseline sweep runs with
        them armed, so an observer-blind gate would silently fall back
        to serial on every traced run.
        """
        from repro.obs.instrument import attach_layer_timing

        detach = attach_layer_timing(untrained_engine)
        try:
            assert len(untrained_engine.hooks) > 0  # hooks are registered...
            assert untrained_engine.hooks.all_observers()
            assert decode_plan(untrained_engine, draft_engine) == (
                "composed", "observer_hooks"
            )
            # ...but mixing in one perturbing hook closes the gate.
            remove = untrained_engine.hooks.register(
                "blocks.0.up_proj", lambda out, ctx: None, row_scoped=True
            )
            assert decode_plan(untrained_engine, draft_engine)[0] == "batched"
            remove()
            assert decode_plan(untrained_engine, draft_engine)[0] == "composed"
        finally:
            detach()

    def test_decode_one_falls_back_serial_under_faults(self, untrained_engine, draft_engine):
        """With a fault armed, decode_one IS the serial reference path."""
        config = GenerationConfig(max_new_tokens=8)
        prompt = _prompts(n=1)[0]
        site = FaultSite(FaultModel.COMP_2BIT, "blocks.0.up_proj", 0, 1, bits=(3, 17), iteration=1)
        with ComputationalFaultInjector(untrained_engine, site):
            injected_serial = greedy_decode(untrained_engine, prompt, config, strategy="serial")
        spec = SpeculativeDecoder(untrained_engine, draft_engine, config, speculation_depth=4)
        telemetry().enable()
        with ComputationalFaultInjector(untrained_engine, site):
            assert spec.decode_one(prompt) == injected_serial
        counters = telemetry().metrics.snapshot()["counters"]
        assert counters["decode.plan.serial.row_scoped_hooks"] == 1
        assert "decode.spec_rounds" not in counters

    def test_strategy_resolution(self, untrained_engine, draft_engine):
        """``auto`` runs the path ``decode_plan`` names: the plan counter
        says which, the spec-round counter says whether it speculated."""
        tel = telemetry()
        tel.enable()
        config = GenerationConfig(max_new_tokens=6)
        prompt = _prompts(n=1)[0]

        def run(**kw):
            tel.metrics.reset()
            greedy_decode(untrained_engine, prompt, config, **kw)
            counters = tel.metrics.snapshot()["counters"]
            plans = {
                k[len("decode.plan."):]: v for k, v in counters.items()
                if k.startswith("decode.plan.")
            }
            return plans, counters.get("decode.spec_rounds", 0) > 0

        assert decode_plan(untrained_engine, draft_engine)[0] == "composed"
        assert run(draft=draft_engine) == ({"composed.clean": 1}, True)
        assert decode_plan(untrained_engine)[0] == "batched"
        assert run() == ({"serial.clean": 1}, False)
        untrained_engine.weight_fault_depth = 1
        try:
            assert decode_plan(untrained_engine, draft_engine)[0] == "serial"
            assert run(draft=draft_engine) == ({"serial.weight_fault": 1}, False)
        finally:
            untrained_engine.weight_fault_depth = 0

    def test_greedy_decode_routes_draft(self, untrained_engine, draft_engine):
        config = GenerationConfig(max_new_tokens=10)
        prompt = _prompts(n=1)[0]
        serial = greedy_decode(untrained_engine, prompt, config, strategy="serial")
        telemetry().enable()
        spec = greedy_decode(
            untrained_engine, prompt, config, draft=draft_engine, speculation_depth=3
        )
        assert spec == serial
        assert telemetry().metrics.snapshot()["counters"]["decode.spec_rounds"] > 0


class TestTelemetry:
    def test_accept_metrics_emitted(self, untrained_engine, draft_engine):
        tel = telemetry()
        tel.enable()
        config = GenerationConfig(max_new_tokens=20)
        decoder = SpeculativeDecoder(
            untrained_engine, draft_engine, config, speculation_depth=4
        )
        for prompt in _prompts(n=3):
            decoder.decode_one(prompt)
        snap = tel.metrics.snapshot()
        assert snap["counters"]["decode.spec_rounds"] >= 3
        accept_lens = snap["histograms"]["decode.spec_accept_len"]
        assert len(accept_lens) == snap["counters"]["decode.spec_rounds"]
        assert all(0 <= a <= 4 for a in accept_lens)
        assert "decode.spec_rejected" in snap["counters"]
        spans = [s.name for s in tel.tracer.records]
        assert "decode.speculate" in spans


class TestZooPairing:
    def test_draft_of_metadata(self):
        assert ZOO["qwenlike-tiny"].draft_of == "qwenlike-base"
        spec = draft_for("qwenlike-base")
        assert spec is not None and spec.name == "qwenlike-tiny"
        assert draft_for("llamalike-base") is None
        with pytest.raises(KeyError):
            draft_for("no-such-model")

    def test_draft_of_excluded_from_cache_hash(self):
        """Pairing metadata must not invalidate cached weights."""
        import dataclasses

        from repro.zoo.build import _spec_hash

        spec = ZOO["qwenlike-tiny"]
        unpaired = dataclasses.replace(spec, draft_of=None)
        assert _spec_hash(spec, 364) == _spec_hash(unpaired, 364)
