"""Composed batched-speculative decoding.

:class:`BatchedSpeculativeDecoder` composes draft-and-verify with
continuous batching; this suite holds it to the contracts the
composition rests on:

* every (depth, batch width) combination is token-identical to the
  serial ``greedy_decode`` reference, including EOS landing mid-round
  and token budgets that end a stream inside a verify chunk;
* batch width 1 reduces exactly to :class:`SpeculativeDecoder`;
* the FI gate matrix routes correctly — observer hooks keep the
  composed path, row-scoped computational hooks and kv faults drop to
  plain batching, weight faults force the exact serial loop;
* pooled slots (target and draft side) are all free again after every
  call, and a decoder instance is reusable;
* telemetry carries the composed round metrics (spec_rounds,
  spec_accept_len, batch occupancy, span timing).
"""

import pytest

from repro.fi import FaultModel, FaultSite, KVFaultInjector
from repro.generation import (
    BatchedSpeculativeDecoder,
    GenerationConfig,
    SpeculativeDecoder,
    greedy_decode,
)
from repro.inference import InferenceEngine
from repro.model import ModelConfig, TransformerLM
from repro.obs import telemetry
from repro.obs.flight import FlightRecorder
from repro.obs.instrument import attach_layer_timing

PROMPTS = [
    [3, 5, 7], [11, 13, 17, 19, 4], [23, 29], [8, 15, 16, 42], [6], [31, 37],
]


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
    config = ModelConfig(
        vocab_size=len(tokenizer), d_model=16, n_heads=2, n_blocks=1,
        d_ff=24, max_seq=160,
    )
    return TransformerLM(config, seed=23).to_store()


@pytest.fixture()
def draft_engine(draft_store) -> InferenceEngine:
    return InferenceEngine(draft_store)


def _config(**kw):
    kw.setdefault("max_new_tokens", 10)
    kw.setdefault("eos_id", -1)
    return GenerationConfig(**kw)


def _serial(engine, prompts, config):
    return [greedy_decode(engine, p, config, strategy="serial") for p in prompts]


class TestComposedEquivalence:
    @pytest.mark.parametrize("depth", (1, 2, 4))
    @pytest.mark.parametrize("width", (1, 2, 3, 8))
    def test_depths_and_widths_match_serial(
        self, untrained_engine, draft_engine, depth, width
    ):
        config = _config()
        decoder = BatchedSpeculativeDecoder(
            untrained_engine, draft_engine, config,
            speculation_depth=depth, max_batch=width,
        )
        assert decoder.decode_many(PROMPTS) == _serial(
            untrained_engine, PROMPTS, config
        )

    def test_eos_mid_stream(self, untrained_engine, draft_engine):
        free = _serial(untrained_engine, PROMPTS, _config(max_new_tokens=12))
        eos = free[1][3]  # lands mid-round for at least one stream
        config = _config(max_new_tokens=12, eos_id=eos)
        decoder = BatchedSpeculativeDecoder(
            untrained_engine, draft_engine, config,
            speculation_depth=4, max_batch=3,
        )
        assert decoder.decode_many(PROMPTS) == _serial(
            untrained_engine, PROMPTS, config
        )

    @pytest.mark.parametrize("max_new", (1, 2, 3, 5))
    def test_token_budget_edges(
        self, untrained_engine, draft_engine, max_new
    ):
        config = _config(max_new_tokens=max_new)
        decoder = BatchedSpeculativeDecoder(
            untrained_engine, draft_engine, config,
            speculation_depth=4, max_batch=3,
        )
        assert decoder.decode_many(PROMPTS) == _serial(
            untrained_engine, PROMPTS, config
        )

    def test_width_one_reduces_to_speculative(
        self, untrained_engine, draft_engine
    ):
        config = _config()
        spec = SpeculativeDecoder(
            untrained_engine, draft_engine, config, speculation_depth=3
        )
        composed = BatchedSpeculativeDecoder(
            untrained_engine, draft_engine, config,
            speculation_depth=3, max_batch=1,
        )
        for prompt in PROMPTS[:3]:
            assert composed.decode_many([prompt]) == [spec.decode_one(prompt)]

    def test_empty_prompt_list(self, untrained_engine, draft_engine):
        decoder = BatchedSpeculativeDecoder(
            untrained_engine, draft_engine, _config()
        )
        assert decoder.decode_many([]) == []

    def test_slot_hygiene_and_reuse(self, untrained_engine, draft_engine):
        config = _config()
        decoder = BatchedSpeculativeDecoder(
            untrained_engine, draft_engine, config,
            speculation_depth=4, max_batch=3,
        )
        first = decoder.decode_many(PROMPTS)
        for pool in (decoder._pool, decoder._draft_pool):
            assert pool.n_free == pool.n_slots
        # Same instance, same pools: the second pass must be identical.
        assert decoder.decode_many(PROMPTS) == first
        for pool in (decoder._pool, decoder._draft_pool):
            assert pool.n_free == pool.n_slots


class TestValidation:
    def test_depth_validated(self, untrained_engine, draft_engine):
        with pytest.raises(ValueError, match="speculation_depth"):
            BatchedSpeculativeDecoder(
                untrained_engine, draft_engine, _config(), speculation_depth=0
            )

    def test_max_batch_validated(self, untrained_engine, draft_engine):
        with pytest.raises(ValueError, match="max_batch"):
            BatchedSpeculativeDecoder(
                untrained_engine, draft_engine, _config(), max_batch=0
            )

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
            BatchedSpeculativeDecoder(untrained_engine, other, _config())


class TestGateMatrix:
    """decode_many runs the leg ``decode_plan`` names (the table itself
    is ``test_decode_round.py::test_gate_matrix``): the plan counter
    says which leg was chosen, the round counters which one ran."""

    def _decode(self, untrained_engine, draft_engine, tel):
        tel.reset()
        tel.enable()
        config = _config(max_new_tokens=8)
        decoder = BatchedSpeculativeDecoder(
            untrained_engine, draft_engine, config,
            speculation_depth=4, max_batch=3,
        )
        out = decoder.decode_many(PROMPTS[:3])
        snap = tel.metrics.snapshot()
        tel.reset()
        tel.disable()
        return out, snap

    def test_observer_hooks_keep_composed(
        self, untrained_engine, draft_engine, clean_telemetry
    ):
        detach = attach_layer_timing(untrained_engine)
        try:
            out, snap = self._decode(
                untrained_engine, draft_engine, clean_telemetry
            )
        finally:
            detach()
        assert out == _serial(
            untrained_engine, PROMPTS[:3], _config(max_new_tokens=8)
        )
        assert snap["counters"].get("decode.spec_rounds", 0) > 0
        assert snap["counters"]["decode.plan.composed.observer_hooks"] == 1

    def test_front_probe_on_moe_keeps_composed(
        self, moe_engine, draft_engine, clean_telemetry
    ):
        """The flight recorder's probe compares ``ctx.iteration`` to an
        int: on a MoE target the verify chunks must hand router/expert
        hooks per-row scalars, not the batch's iteration array."""
        recorder = FlightRecorder()
        detach = recorder.attach_front(moe_engine, iteration=3)
        try:
            out, snap = self._decode(moe_engine, draft_engine, clean_telemetry)
        finally:
            detach()
        assert out == _serial(moe_engine, PROMPTS[:3], _config(max_new_tokens=8))
        assert snap["counters"]["decode.plan.composed.observer_hooks"] == 1
        assert recorder.has_front

    def test_row_scoped_hook_routes_batched(
        self, untrained_engine, draft_engine, clean_telemetry
    ):
        remove = untrained_engine.hooks.register(
            "blocks.0.up_proj", lambda out, ctx: None, row_scoped=True
        )
        try:
            out, snap = self._decode(
                untrained_engine, draft_engine, clean_telemetry
            )
        finally:
            remove()
        assert out == _serial(
            untrained_engine, PROMPTS[:3], _config(max_new_tokens=8)
        )
        # Batched leg: occupancy is observed, speculation never runs.
        assert snap["counters"].get("decode.spec_rounds", 0) == 0
        assert "decode.batch_occupancy" in snap["histograms"]
        assert snap["counters"]["decode.plan.batched.row_scoped_hooks"] == 1

    def test_kv_fault_routes_batched(
        self, untrained_engine, draft_engine, clean_telemetry
    ):
        site = FaultSite(
            fault_model=FaultModel.KV_1BIT,
            layer_name="blocks.0.kv",
            row=1, col=2, bits=(30,), iteration=2, row_frac=0.5, plane="v",
        )
        with KVFaultInjector(untrained_engine, site):
            _, snap = self._decode(
                untrained_engine, draft_engine, clean_telemetry
            )
        assert snap["counters"].get("decode.spec_rounds", 0) == 0
        assert "decode.batch_occupancy" in snap["histograms"]
        assert snap["counters"]["decode.plan.batched.kv_fault"] == 1

    def test_weight_fault_forces_serial(
        self, untrained_engine, draft_engine, clean_telemetry
    ):
        untrained_engine.weight_fault_depth = 1
        try:
            out, snap = self._decode(
                untrained_engine, draft_engine, clean_telemetry
            )
        finally:
            untrained_engine.weight_fault_depth = 0
        assert out == _serial(
            untrained_engine, PROMPTS[:3], _config(max_new_tokens=8)
        )
        assert snap["counters"].get("decode.spec_rounds", 0) == 0
        assert "decode.batch_occupancy" not in snap["histograms"]
        # One counter per decode entry — the serial loop it falls back
        # to does not count again.
        plans = {k: v for k, v in snap["counters"].items()
                 if k.startswith("decode.plan.")}
        assert plans == {"decode.plan.serial.weight_fault": 1}


class TestComposedTelemetry:
    def test_round_metrics_emitted(
        self, untrained_engine, draft_engine, clean_telemetry
    ):
        tel = clean_telemetry
        tel.enable()
        decoder = BatchedSpeculativeDecoder(
            untrained_engine, draft_engine, _config(),
            speculation_depth=4, max_batch=3,
        )
        decoder.decode_many(PROMPTS)
        snap = tel.metrics.snapshot()
        assert snap["counters"]["decode.spec_rounds"] > 0
        accept = tel.metrics.histogram("decode.spec_accept_len").summary()
        assert accept["count"] == snap["counters"]["decode.spec_rounds"]
        occupancy = tel.metrics.histogram("decode.batch_occupancy").summary()
        assert occupancy["count"] > 0 and occupancy["max"] <= 3
        assert tel.metrics.histogram("decode.spec_batch_ms").summary()["count"] == 1
        assert tel.metrics.gauge("decode.free_slots").value == 3
