"""Continuous-batched decoding: pool mechanics and equivalence.

The batched decode path must be indistinguishable from the serial
reference loop:

* ``PooledKVCache`` slot bookkeeping (acquire/release/copy-on-fork)
  never corrupts neighbouring sequences;
* ``forward_step_batch`` at ``B == 1`` is bit-identical to
  ``Session.step`` and agrees at the argmax level for ragged ``B > 1``;
* greedy and beam decoding produce token-for-token serial outputs,
  including when slots retire and refill mid-run;
* under an armed row-scoped injector the batched path stays
  bit-identical to serial (the ``decode_plan`` gate table itself lives
  in ``test_decode_round.py``).

Campaign-level ``decode_strategy`` bit-identity sweeps are consolidated
in ``test_differential.py`` behind ``repro.fi.assert_records_equal``.
"""

import numpy as np
import pytest

from repro.fi import (
    ComputationalFaultInjector,
    FaultModel,
    FaultSite,
)
from repro.generation import (
    BatchedDecoder,
    GenerationConfig,
    beam_search_decode,
    generate_ids,
    greedy_decode,
)
from repro.inference.engine import CaptureState
from repro.obs import telemetry

PROMPT = [3, 5, 7, 2, 9]
PROMPTS = [[3, 5, 7], [11, 13, 17, 19, 4], [23, 29], [8, 15, 16, 42], [6], [31, 37]]


@pytest.fixture(autouse=True)
def clean_telemetry():
    tel = telemetry()
    tel.reset()
    tel.disable()
    yield tel
    tel.reset()
    tel.disable()


def _config(**kw):
    kw.setdefault("max_new_tokens", 8)
    kw.setdefault("eos_id", -1)
    return GenerationConfig(**kw)


class TestPooledKVCache:
    def _pool(self, untrained_engine, n_slots=3):
        return untrained_engine.new_pool(n_slots)

    def test_acquire_release_cycle(self, untrained_engine):
        pool = self._pool(untrained_engine)
        slots = [pool.acquire() for _ in range(3)]
        assert slots == [0, 1, 2]
        assert pool.n_free == 0
        pool.release(1)
        assert pool.n_free == 1
        assert pool.acquire() == 1

    def test_exhaustion_raises(self, untrained_engine):
        pool = self._pool(untrained_engine, n_slots=1)
        pool.acquire()
        with pytest.raises(ValueError, match="exhausted"):
            pool.acquire()

    def test_double_free_raises(self, untrained_engine):
        pool = self._pool(untrained_engine)
        slot = pool.acquire()
        pool.release(slot)
        with pytest.raises(ValueError, match="already free"):
            pool.release(slot)

    def test_release_out_of_range_raises(self, untrained_engine):
        pool = self._pool(untrained_engine)
        with pytest.raises(ValueError, match="out of range"):
            pool.release(7)

    def test_views_are_arena_backed(self, untrained_engine):
        pool = self._pool(untrained_engine)
        slot = pool.acquire()
        caches = pool.caches(slot)
        assert np.shares_memory(caches[0].k, pool._k[0])

    def test_acquire_resets_stale_lengths(self, untrained_engine):
        pool = self._pool(untrained_engine)
        slot = pool.acquire()
        cache = pool.caches(slot)[0]
        cache.append(np.ones((4, 2, 8), np.float32), np.ones((4, 2, 8), np.float32))
        pool.release(slot)
        again = pool.acquire()
        assert again == slot
        assert all(c.length == 0 for c in pool.caches(again))

    def test_copy_slot_copies_prefix(self, untrained_engine):
        pool = self._pool(untrained_engine)
        src, dst = pool.acquire(), pool.acquire()
        rng = np.random.default_rng(0)
        for cache in pool.caches(src):
            cache.append(
                rng.normal(size=(4, 3, 8)).astype(np.float32),
                rng.normal(size=(4, 3, 8)).astype(np.float32),
            )
        pool.copy_slot(src, dst)
        for a, b in zip(pool.caches(src), pool.caches(dst)):
            assert b.length == a.length == 3
            np.testing.assert_array_equal(a.keys(), b.keys())
            np.testing.assert_array_equal(a.values(), b.values())
        # The copy is independent: appending to dst leaves src alone.
        pool.caches(dst)[0].append(
            np.ones((4, 1, 8), np.float32), np.ones((4, 1, 8), np.float32)
        )
        assert pool.caches(src)[0].length == 3

    def test_load_adopts_external_caches(self, untrained_engine):
        session = untrained_engine.start_session(PROMPT)
        pool = self._pool(untrained_engine)
        slot = pool.acquire()
        pool.load(slot, session.caches)
        for view, cache in zip(pool.caches(slot), session.caches):
            assert view.length == cache.length
            np.testing.assert_array_equal(view.keys(), cache.keys())


class TestForwardStepBatch:
    def test_b1_bitwise_matches_session_step(self, untrained_engine):
        session = untrained_engine.start_session(PROMPT)
        pool = untrained_engine.new_pool(1)
        slot = pool.acquire()
        pool.load(slot, session.caches)
        position, iteration = session.position, session.iteration
        for token in (4, 8, 15):
            serial = session.step(token)
            batched = untrained_engine.forward_step_batch(
                [token], [pool.caches(slot)], [position], [iteration + 1]
            )
            position += 1
            iteration += 1
            np.testing.assert_array_equal(batched[0], serial)

    def test_ragged_batch_matches_serial_argmax(self, untrained_engine):
        sessions = [untrained_engine.start_session(p) for p in PROMPTS[:3]]
        pool = untrained_engine.new_pool(3)
        slots = [pool.acquire() for _ in sessions]
        for slot, s in zip(slots, sessions):
            pool.load(slot, s.caches)
        tokens = [4, 8, 15]
        serial = [s.step(t) for s, t in zip(sessions, tokens)]
        batched = untrained_engine.forward_step_batch(
            tokens,
            [pool.caches(s) for s in slots],
            [s.position - 1 for s in sessions],
            [s.iteration for s in sessions],
        )
        # Row-exact batching: every bit of every row, caches included.
        for row, (ref, session) in enumerate(zip(serial, sessions)):
            np.testing.assert_array_equal(batched[row], ref)
            for cache, want in zip(pool.caches(slots[row]), session.caches):
                np.testing.assert_array_equal(cache.keys(), want.keys())
                np.testing.assert_array_equal(cache.values(), want.values())

    def test_rejects_capture(self, untrained_engine):
        pool = untrained_engine.new_pool(1)
        slot = pool.acquire()
        untrained_engine.forward(PROMPT, pool.caches(slot), 0, 0)
        untrained_engine.capture = CaptureState()
        try:
            with pytest.raises(RuntimeError, match="capture"):
                untrained_engine.forward_step_batch(
                    [4], [pool.caches(slot)], [len(PROMPT)], [1]
                )
        finally:
            untrained_engine.capture = None

    def test_rejects_shape_mismatch(self, untrained_engine):
        pool = untrained_engine.new_pool(1)
        slot = pool.acquire()
        with pytest.raises(ValueError):
            untrained_engine.forward_step_batch(
                np.zeros((2, 2), np.int64), [pool.caches(slot)], [0], [0]
            )
        with pytest.raises(ValueError):
            untrained_engine.forward_step_batch(
                [4, 5], [pool.caches(slot)], [0, 0], [0, 0]
            )


class TestDecodeEquivalence:
    def test_decode_one_bitwise_matches_serial(self, untrained_engine):
        config = _config()
        serial = greedy_decode(untrained_engine, PROMPT, config, strategy="serial")
        batched = BatchedDecoder(untrained_engine, config, max_batch=1).decode_one(
            PROMPT
        )
        assert batched == serial

    def test_decode_many_with_refill_matches_serial(self, untrained_engine):
        config = _config()
        serial = [
            greedy_decode(untrained_engine, p, config, strategy="serial")
            for p in PROMPTS
        ]
        # max_batch < n_prompts forces retirements to back-fill slots.
        decoder = BatchedDecoder(untrained_engine, config, max_batch=3)
        assert decoder.decode_many(PROMPTS) == serial

    def test_decode_many_moe(self, moe_engine):
        config = _config(max_new_tokens=6)
        serial = [
            greedy_decode(moe_engine, p, config, strategy="serial")
            for p in PROMPTS[:4]
        ]
        decoder = BatchedDecoder(moe_engine, config, max_batch=2)
        assert decoder.decode_many(PROMPTS[:4]) == serial

    def test_eos_retires_and_output_matches(self, trained_engine, tokenizer):
        prompts = [
            tokenizer.encode("translate : de kato visas un hundo ="),
            tokenizer.encode("translate : de hundo dormas ="),
            tokenizer.encode("translate : de kato ="),
        ]
        config = GenerationConfig(
            max_new_tokens=12, eos_id=tokenizer.vocab.eos_id
        )
        serial = [
            greedy_decode(trained_engine, p, config, strategy="serial")
            for p in prompts
        ]
        decoder = BatchedDecoder(trained_engine, config, max_batch=2)
        assert decoder.decode_many(prompts) == serial

    def test_beam_matches_serial(self, trained_engine, tokenizer):
        prompt = tokenizer.encode("translate : de kato visas un hundo =")
        config = GenerationConfig(
            max_new_tokens=8, num_beams=3, eos_id=tokenizer.vocab.eos_id
        )
        serial = beam_search_decode(
            trained_engine, prompt, config, strategy="serial"
        )
        batched = BatchedDecoder(trained_engine, config).beam_decode(prompt)
        assert batched == serial
        # ... and the auto-routed entry point picks the batched path too.
        assert generate_ids(trained_engine, prompt, config) == serial

    def test_beam_from_prebuilt_session(self, untrained_engine):
        config = _config(max_new_tokens=6, num_beams=3)
        serial = beam_search_decode(
            untrained_engine, PROMPT, config, strategy="serial"
        )
        base = untrained_engine.start_session(PROMPT)
        batched = BatchedDecoder(untrained_engine, config).beam_decode(
            PROMPT, session=base
        )
        assert batched == serial

    def test_generate_many_mixed_sessions(self, untrained_engine):
        config = _config()
        serial = [
            greedy_decode(untrained_engine, p, config, strategy="serial")
            for p in PROMPTS[:3]
        ]
        sessions = [None, untrained_engine.start_session(PROMPTS[1]), None]
        decoder = BatchedDecoder(untrained_engine, config, max_batch=3)
        assert decoder.generate_many(PROMPTS[:3], sessions=sessions) == serial

    def test_strategy_knob(self, untrained_engine):
        config = _config()
        assert greedy_decode(
            untrained_engine, PROMPT, config, strategy="auto"
        ) == greedy_decode(untrained_engine, PROMPT, config, strategy="serial")
        with pytest.raises(ValueError, match="strategy"):
            greedy_decode(untrained_engine, PROMPT, config, strategy="turbo")
        with pytest.raises(ValueError, match="strategy"):
            generate_ids(untrained_engine, PROMPT, config, strategy="turbo")

    def test_pool_reuse_across_calls(self, untrained_engine):
        config = _config(max_new_tokens=4)
        decoder = BatchedDecoder(untrained_engine, config, max_batch=3)
        first = decoder.decode_many(PROMPTS[:3])
        pool = decoder._pool
        second = decoder.decode_many(PROMPTS[:3])
        assert decoder._pool is pool
        assert first == second
        assert pool.n_free == pool.n_slots


class TestBatchingSafety:
    def test_injected_decode_bitwise_matches_serial(self, untrained_engine):
        """B=1 batched decode under an armed one-shot == serial decode."""
        config = _config()
        site = FaultSite(
            FaultModel.COMP_2BIT, "blocks.1.down_proj", 0, 5, bits=(30, 21),
            iteration=2, row_frac=0.5,
        )
        with ComputationalFaultInjector(untrained_engine, site):
            serial = greedy_decode(
                untrained_engine, PROMPT, config, strategy="serial"
            )
        with ComputationalFaultInjector(untrained_engine, site):
            batched = BatchedDecoder(
                untrained_engine, config, max_batch=1
            ).decode_one(PROMPT)
        clean = greedy_decode(untrained_engine, PROMPT, config, strategy="serial")
        assert batched == serial
        assert serial != clean  # the fault actually landed

    def test_batch_row_filter_pins_the_strike(self, untrained_engine):
        """A row-pinned injector corrupts only its batch row."""
        config = _config()
        clean = greedy_decode(untrained_engine, PROMPT, config, strategy="serial")
        site = FaultSite(
            FaultModel.COMP_2BIT, "blocks.0.up_proj", 0, 3, bits=(30, 22),
            iteration=1, row_frac=0.0,
        )
        injector = ComputationalFaultInjector(
            untrained_engine, site, batch_row=1
        )
        with injector:
            outs = BatchedDecoder(
                untrained_engine, config, max_batch=2
            ).decode_many([PROMPT, list(PROMPT)])
        assert injector.fired
        assert outs[0] == clean  # row 0 untouched

    def test_hooks_see_batch_rows(self, untrained_engine):
        seen = []

        def probe(out, ctx):
            seen.append(ctx.batch_row)
            return None

        remove = untrained_engine.hooks.register(
            "blocks.0.up_proj", probe, row_scoped=True
        )
        try:
            BatchedDecoder(untrained_engine, _config(max_new_tokens=2),
                           max_batch=2).decode_many(PROMPTS[:2])
        finally:
            remove()
        assert {0, 1} <= set(seen)

    def test_all_row_scoped_bookkeeping(self, untrained_engine):
        hooks = untrained_engine.hooks
        assert hooks.all_row_scoped()
        remove_a = hooks.register("blocks.0.up_proj", lambda o, c: None)
        remove_b = hooks.register(
            "blocks.0.down_proj", lambda o, c: None, row_scoped=True
        )
        assert not hooks.all_row_scoped()
        remove_a()
        assert hooks.all_row_scoped()
        remove_a()  # idempotent
        assert hooks.all_row_scoped()
        remove_b()


class TestDecodeTelemetry:
    def test_occupancy_and_refills_traced(self, untrained_engine, clean_telemetry):
        clean_telemetry.enable()
        config = _config(max_new_tokens=4)
        BatchedDecoder(untrained_engine, config, max_batch=2).decode_many(PROMPTS)
        hist = clean_telemetry.metrics.histograms["decode.batch_occupancy"]
        assert hist.count > 0
        assert max(hist.values) <= 2
        assert clean_telemetry.metrics.counters["decode.slot_refills"].value > 0
        names = [s.name for s in clean_telemetry.tracer.records]
        assert "decode.batch" in names


