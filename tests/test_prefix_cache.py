"""Option scoring and the session/KV machinery the fast paths lean on.

* ``score_options`` is the per-option reference — one
  ``forward_full(prompt + option)`` each, under whatever is armed —
  and the campaign's golden option pass scores it bit for bit;
* session/KV machinery — fork independence after further steps,
  snapshot/restore round-trips;
* ``forward`` runs one sequence: a 2-D batch is refused before any
  cache moves.

Campaign-level bit-identity sweeps (prefill caching, batched decode,
worker pools vs. the serial reference) are consolidated in
``test_differential.py`` behind ``repro.fi.assert_records_equal``.
"""

import numpy as np
import pytest

from repro.fi import (
    ComputationalFaultInjector,
    FaultModel,
    FaultSite,
    MemoryFaultInjector,
)
from repro.fi.golden import GoldenOptions
from repro.generation import (
    choose_option,
    decode_plan,
    score_continuation,
    score_options,
)
from repro.generation.decode import option_logp
from repro.inference import PooledKVCache
from repro.obs import telemetry
from repro.tasks import MMLUTask, standardized_subset

from tests.test_engine import append, kv_cache

PROMPT = [3, 5, 7, 2, 9]
OPTIONS = [[11, 13], [17], [19, 23, 29], [4, 8]]


@pytest.fixture(autouse=True)
def clean_telemetry():
    tel = telemetry()
    tel.reset()
    tel.disable()
    yield tel
    tel.reset()
    tel.disable()


def per_option(engine, prompt, options) -> list[float]:
    """The reference spelled out: one full forward per option."""
    return [score_continuation(engine, prompt, option) for option in options]


class TestOptionScoringEquivalence:
    def test_matches_reference_moe(self, moe_engine):
        assert np.array_equal(
            score_options(moe_engine, PROMPT, OPTIONS),
            per_option(moe_engine, PROMPT, OPTIONS),
        )

    def test_single_token_options_prefill_only(self, untrained_engine):
        """A one-token option is predicted by the prompt's last row:
        its score is the prompt forward's next-token log-probability —
        to float tolerance, since ``prompt + option`` is a longer
        product than the prompt alone."""
        options = [[11], [13], [17]]
        scores = score_options(untrained_engine, PROMPT, options)
        assert np.array_equal(scores, per_option(untrained_engine, PROMPT, options))
        logits = untrained_engine.start_session(PROMPT).last_logits
        expected = [
            option_logp(logits[None, None], [0], [option])[0] for option in options
        ]
        np.testing.assert_allclose(scores, expected, rtol=2e-5, atol=1e-5)

    def test_trained_model_agreement(self, trained_engine, tokenizer, world):
        """The answer the reference picks is the golden option pass's
        argmax, on every example of a trained model."""
        for ex in standardized_subset(MMLUTask(world), 6):
            prompt = tokenizer.encode(ex.prompt)
            options = [tokenizer.encode(o) for o in ex.options]
            golden = GoldenOptions.build(trained_engine, prompt, options)
            assert choose_option(trained_engine, prompt, options) == int(
                np.argmax(golden.scores)
            )

    def test_unknown_strategy_rejected(self, untrained_engine):
        """Scoring has one route: there is no strategy to name."""
        for fn in (score_options, choose_option):
            with pytest.raises(TypeError, match="strategy"):
                fn(untrained_engine, PROMPT, OPTIONS, strategy="auto")

    def test_empty_option_rejected(self, untrained_engine):
        with pytest.raises(ValueError):
            score_options(untrained_engine, PROMPT, [[1], []])
        with pytest.raises(ValueError):
            score_options(untrained_engine, PROMPT, [])


class TestFISafetyGate:
    """Under an armed fault ``score_options`` is the per-option loop
    exactly; whether a trial may score from the golden pass instead is
    the campaign's call alone."""

    def test_hook_forces_exact_fallback(self, untrained_engine):
        site = FaultSite(
            FaultModel.COMP_2BIT, "blocks.0.up_proj", 0, 3, bits=(5, 20)
        )
        with ComputationalFaultInjector(untrained_engine, site):
            injected = score_options(untrained_engine, PROMPT, OPTIONS)
        with ComputationalFaultInjector(untrained_engine, site):
            reference = per_option(untrained_engine, PROMPT, OPTIONS)
        # Bit-identical: both one-shot injections struck only the first
        # option's forward, exactly like the seed path.
        assert injected == reference

    def test_memory_fault_forces_exact_fallback(self, untrained_engine):
        site = FaultSite(
            FaultModel.MEM_2BIT, "blocks.0.up_proj", 2, 3, bits=(30, 22)
        )
        with MemoryFaultInjector(untrained_engine, site):
            assert decode_plan(untrained_engine)[1] == "weight_fault"
            injected = score_options(untrained_engine, PROMPT, OPTIONS)
            reference = per_option(untrained_engine, PROMPT, OPTIONS)
        assert decode_plan(untrained_engine)[1] == "clean"
        assert injected == reference
        assert injected != score_options(untrained_engine, PROMPT, OPTIONS)

    def test_observers_do_not_move_the_baseline_off_the_golden_pass(
        self, untrained_store, tokenizer, world, clean_telemetry, monkeypatch
    ):
        """Telemetry around ``FICampaign.run`` attaches layer-timing
        hooks — pure observers — so a traced MC campaign must read its
        fault-free baseline off the golden option passes as an untraced
        one does, and say so in the plan counters; its injected trials
        score as rows of those passes either way."""
        from repro.fi import assert_results_equal
        from repro.generation import decode
        from tests.test_differential import make_campaign

        calls = []
        reference = decode.score_continuation

        def counting(*args):
            calls.append(1)
            return reference(*args)

        monkeypatch.setattr(decode, "score_continuation", counting)

        def run():
            del calls[:]
            result = make_campaign(
                untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
            ).run(2)
            return result, len(calls)

        untraced, n_untraced = run()
        clean_telemetry.enable()
        traced, n_traced = run()
        assert n_traced == n_untraced
        assert_results_equal(traced, untraced, "traced", "untraced")
        counters = clean_telemetry.metrics.snapshot()["counters"]
        plans = {k: v for k, v in counters.items() if k.startswith("decode.plan.")}
        assert plans == {
            "decode.plan.option_rows.observer_hooks": 3,  # one per example
            "decode.plan.option_rows.weight_fault": 2,  # one per trial
        }

    def test_weight_fault_depth_restored(self, untrained_engine):
        site = FaultSite(
            FaultModel.MEM_2BIT, "blocks.1.q_proj", 0, 0, bits=(3, 8)
        )
        assert untrained_engine.weight_fault_depth == 0
        with MemoryFaultInjector(untrained_engine, site):
            assert untrained_engine.weight_fault_depth == 1
        assert untrained_engine.weight_fault_depth == 0


class TestSessionMachinery:
    def test_fork_independent_after_further_steps(self, untrained_engine):
        """A beam-search fork — ``copy_slot`` of a prefilled slot — is
        unaffected by the original's later steps: it decodes exactly
        like a fresh session."""
        engine = untrained_engine
        pool = engine.new_pool(2)
        original, fork = pool.acquire(), pool.acquire()
        engine.forward(PROMPT, pool.caches(original), 0, 0)
        pool.copy_slot(original, fork)
        def step(slot, i, token):
            return engine.forward([token], pool.caches(slot), len(PROMPT) + i, i + 1)

        for i, token in enumerate((4, 8, 15)):
            step(original, i, token)
        fresh = engine.start_session(PROMPT)
        for i, token in enumerate((16, 23)):
            np.testing.assert_array_equal(step(fork, i, token)[-1], fresh.step(token))
        assert pool.caches(fork)[0].length == fresh.position == len(PROMPT) + 2

    def test_kvcache_snapshot_restore_roundtrip(self):
        rng = np.random.default_rng(3)
        cache = kv_cache(2, 8, 4)
        append(cache, rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)))
        snap = cache.snapshot()
        append(cache, rng.normal(size=(2, 2, 4)), rng.normal(size=(2, 2, 4)))
        cache.restore(snap)
        assert cache.length == 3
        np.testing.assert_array_equal(cache.keys(), snap[0])
        np.testing.assert_array_equal(cache.values(), snap[1])

    def test_kvcache_restore_rejects_oversized(self):
        cache = kv_cache(1, 2, 4)
        big = (np.zeros((1, 5, 4)), np.zeros((1, 5, 4)), 5)
        with pytest.raises(ValueError):
            cache.restore(big)

    def test_kvcache_restore_after_truncate_below_snapshot(self):
        """``restore`` rewrites the prefix even after a deeper truncate."""
        rng = np.random.default_rng(4)
        cache = kv_cache(2, 8, 4)
        append(cache, rng.normal(size=(2, 4, 4)), rng.normal(size=(2, 4, 4)))
        snap = cache.snapshot()
        cache.truncate(1)
        # Overwrite the region the snapshot must bring back.
        append(cache, rng.normal(size=(2, 2, 4)), rng.normal(size=(2, 2, 4)))
        cache.restore(snap)
        assert cache.length == 4
        np.testing.assert_array_equal(cache.keys(), snap[0])
        np.testing.assert_array_equal(cache.values(), snap[1])

    def test_kvcache_restore_shrinks_longer_cache(self):
        """Restoring onto a longer cache rolls length back to the snapshot."""
        rng = np.random.default_rng(5)
        cache = kv_cache(2, 8, 4)
        append(cache, rng.normal(size=(2, 2, 4)), rng.normal(size=(2, 2, 4)))
        snap = cache.snapshot()
        append(cache, rng.normal(size=(2, 5, 4)), rng.normal(size=(2, 5, 4)))
        assert cache.length == 7
        cache.restore(snap)
        assert cache.length == 2
        np.testing.assert_array_equal(cache.keys(), snap[0])

    def test_kvcache_partial_restore_equals_restore_then_truncate(self):
        """``restore(snap, length)`` is one bounded prefix write."""
        rng = np.random.default_rng(6)
        cache, twin = kv_cache(2, 8, 4), kv_cache(2, 8, 4)
        k, v = rng.normal(size=(2, 5, 4)), rng.normal(size=(2, 5, 4))
        append(cache, k, v)
        snap = cache.snapshot()
        for length in (5, 3, 0):
            for c in (cache, twin):
                c.truncate(0)
                append(c, rng.normal(size=(2, 7, 4)), rng.normal(size=(2, 7, 4)))
            dirty = cache.k[:, length:].copy()
            cache.restore(snap, length)
            twin.restore(snap)
            twin.truncate(length)
            assert cache.length == twin.length == length
            np.testing.assert_array_equal(cache.keys(), twin.keys())
            np.testing.assert_array_equal(cache.values(), twin.values())
            # Bounded: nothing beyond the restored prefix was written.
            np.testing.assert_array_equal(cache.k[:, length:], dirty)

    def test_kvcache_partial_restore_checks_bounds_and_geometry(self):
        cache = kv_cache(2, 8, 4)
        append(cache, np.ones((2, 3, 4)), np.ones((2, 3, 4)))
        snap = cache.snapshot()
        for bad in (4, -1):
            with pytest.raises(ValueError):
                cache.restore(snap, bad)
        with pytest.raises(ValueError):
            kv_cache(3, 8, 4).restore(snap, 2)
        with pytest.raises(ValueError):
            kv_cache(2, 2, 4).restore(snap, 3)
        assert cache.length == 3

    def test_partial_restore_into_a_pool_slot_stays_in_the_arena(self):
        """A ``_SlotView`` keeps its arena rows: the write lands in the
        pool's storage and no sibling slot is touched."""
        rng = np.random.default_rng(7)
        pool = PooledKVCache(n_layers=1, n_slots=2, n_heads=2, max_seq=8, head_dim=4)
        slots = [pool.acquire(), pool.acquire()]
        view, sibling = (pool.caches(slot)[0] for slot in slots)
        for c in (view, sibling):
            append(c, rng.normal(size=(2, 6, 4)), rng.normal(size=(2, 6, 4)))
        snap = view.snapshot()
        before = sibling.keys().copy()
        view.truncate(1)
        append(view, rng.normal(size=(2, 4, 4)), rng.normal(size=(2, 4, 4)))
        buffers = (view.k, view.v)
        view.restore(snap, 4)
        assert view.k is buffers[0] and view.v is buffers[1]
        assert view.length == 4
        np.testing.assert_array_equal(view.keys(), snap[0][:, :4])
        np.testing.assert_array_equal(pool._k[0][slots[0], :, :4], snap[0][:, :4])
        np.testing.assert_array_equal(sibling.keys(), before)

    def test_kvcache_truncate_bounds(self):
        cache = kv_cache(1, 4, 2)
        append(cache, np.ones((1, 3, 2)), np.ones((1, 3, 2)))
        with pytest.raises(ValueError):
            cache.truncate(4)
        with pytest.raises(ValueError):
            cache.truncate(-1)
        cache.truncate(0)
        assert cache.length == 0

    def test_truncate_then_rescore_is_clean(self, untrained_engine):
        """Append + truncate on a shared prefix leaves no residue: each
        option scores as it would on a fresh prefill, and the prefix
        bytes survive."""
        session = untrained_engine.start_session(PROMPT)
        before = [c.snapshot() for c in session.caches]
        for option in OPTIONS:
            fresh = untrained_engine.start_session(PROMPT)
            expected = untrained_engine.forward(
                option, fresh.caches, start_pos=len(PROMPT), iteration=0
            )
            rescored = untrained_engine.forward(
                option, session.caches, start_pos=len(PROMPT), iteration=0
            )
            np.testing.assert_array_equal(rescored, expected)
            for cache in session.caches:
                cache.truncate(len(PROMPT))
        for snap, cache in zip(before, session.caches):
            assert cache.length == snap[2]
            np.testing.assert_array_equal(cache.keys(), snap[0])
            np.testing.assert_array_equal(cache.values(), snap[1])


class TestBatchedForward:
    def test_batched_leaves_caches_untouched(self, untrained_engine):
        """``forward`` is one sequence's entry: a 2-D batch raises
        before a hook fires or a cache moves — several sequences are
        ``forward_step_batch`` / ``forward_chunk_batch``."""
        session = untrained_engine.start_session(PROMPT)
        before = [c.snapshot() for c in session.caches]
        fired = []
        detach = untrained_engine.hooks.register(
            "blocks.0.q_proj", lambda out, ctx: fired.append(ctx), observer=True
        )
        try:
            with pytest.raises(ValueError, match="1-D"):
                untrained_engine.forward(
                    np.array([[4], [8], [15]]),
                    session.caches,
                    start_pos=len(PROMPT),
                    iteration=0,
                )
        finally:
            detach()
        assert fired == []
        for snap, cache in zip(before, session.caches):
            assert cache.length == snap[2]
            np.testing.assert_array_equal(cache.keys(), snap[0])
            np.testing.assert_array_equal(cache.values(), snap[1])

    def test_forward_rejects_higher_rank(self, untrained_engine):
        with pytest.raises(ValueError):
            untrained_engine.forward(
                np.zeros((2, 2, 2), dtype=np.int64),
                untrained_engine.new_caches(),
                start_pos=0,
                iteration=0,
            )


class TestCampaignTelemetry:
    """Counters the optimization layers emit (equivalence sweeps live in
    ``test_differential.py`` behind the shared oracle)."""

    def test_prefill_cache_counters_traced(
        self, untrained_store, tokenizer, world, clean_telemetry
    ):
        from tests.test_differential import make_campaign

        clean_telemetry.enable()
        make_campaign(
            untrained_store, tokenizer, world, "gen", FaultModel.COMP_2BIT
        ).run(6)
        counters = clean_telemetry.metrics.counters
        assert "engine.prefill_cache_hits" in counters
        assert "engine.prefill_cache_misses" in counters
        hits = counters["engine.prefill_cache_hits"].value
        misses = counters["engine.prefill_cache_misses"].value
        assert hits + misses == 6
        assert hits > 0  # iteration>=1 faults dominate a 12-token window
