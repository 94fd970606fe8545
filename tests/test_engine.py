"""Tests for the fast inference engine: parity, caching, hooks, storage."""

import numpy as np
import pytest

from repro.inference import (
    CaptureState,
    FloatWeightStore,
    InferenceEngine,
    KVCache,
    QuantizedWeightStore,
    make_weight_store,
)
from repro.model import ModelConfig, TransformerLM

TOKENS = [1, 5, 7, 2, 9, 11, 3]


class TestParity:
    def test_matches_training_forward(self, untrained_store):
        engine = InferenceEngine(untrained_store)
        model = TransformerLM.from_store(untrained_store)
        expected, _ = model.forward(np.asarray([TOKENS]))
        actual = engine.forward_full(TOKENS)
        np.testing.assert_allclose(actual, expected.data[0], atol=1e-4)

    def test_incremental_matches_full(self, untrained_engine):
        session = untrained_engine.start_session(TOKENS[:3])
        incremental = [session.last_logits.copy()]
        for token in TOKENS[3:]:
            incremental.append(session.step(token).copy())
        full = untrained_engine.forward_full(TOKENS)
        for i, logits in enumerate(incremental):
            np.testing.assert_allclose(logits, full[2 + i], atol=1e-4)

    def test_moe_incremental_matches_full(self, moe_engine):
        session = moe_engine.start_session(TOKENS[:4])
        stepped = session.step(TOKENS[4])
        full = moe_engine.forward_full(TOKENS[:5])
        np.testing.assert_allclose(stepped, full[4], atol=1e-4)

    def test_moe_matches_training_forward(self, moe_store):
        engine = InferenceEngine(moe_store)
        model = TransformerLM.from_store(moe_store)
        expected, _ = model.forward(np.asarray([TOKENS]))
        np.testing.assert_allclose(
            engine.forward_full(TOKENS), expected.data[0], atol=1e-4
        )

    def test_session_fork_independent(self, untrained_engine):
        session = untrained_engine.start_session(TOKENS[:3])
        fork = session.fork()
        a = session.step(4)
        b = fork.step(8)
        assert not np.allclose(a, b)
        # Fork positions advanced independently.
        assert session.position == fork.position == 4


class TestKVCache:
    def test_append_and_views(self):
        cache = KVCache(2, 8, 4)
        cache.append(np.ones((2, 3, 4)), np.ones((2, 3, 4)))
        assert cache.length == 3
        assert cache.keys().shape == (2, 3, 4)

    def test_overflow_raises(self):
        cache = KVCache(1, 2, 4)
        with pytest.raises(ValueError):
            cache.append(np.ones((1, 3, 4)), np.ones((1, 3, 4)))

    def test_truncate_and_clone(self):
        cache = KVCache(1, 8, 2)
        cache.append(np.ones((1, 4, 2)), np.ones((1, 4, 2)))
        clone = cache.clone()
        cache.truncate(2)
        assert cache.length == 2 and clone.length == 4
        with pytest.raises(ValueError):
            cache.truncate(5)


    def test_stale_kv_beyond_length_is_never_read(self, untrained_engine):
        """The buffers are allocated uninitialised: poison everything
        beyond ``length`` with NaN, in single caches and in pool slots,
        and no forward output moves."""
        engine = untrained_engine

        def run(poison):
            session = engine.start_session(TOKENS[:4])
            pool = engine.new_pool(2)
            rows = [pool.caches(pool.acquire()) for _ in range(2)]
            prompts = (TOKENS[:3], TOKENS[:5])
            for caches, prompt in zip(rows, prompts):
                engine.forward(prompt, caches, start_pos=0, iteration=0)
            if poison:
                for cache in [*session.caches, *rows[0], *rows[1]]:
                    cache.k[:, cache.length :] = np.nan
                    cache.v[:, cache.length :] = np.nan
            return (
                session.step(TOKENS[4]).copy(),
                engine.forward(TOKENS[5:], session.caches, session.position, 2),
                engine.forward_step_batch(
                    [TOKENS[3], TOKENS[5]], rows, [3, 5], [1, 1]
                ),
            )

        for got, want in zip(run(poison=True), run(poison=False)):
            assert not np.isnan(want).any()
            np.testing.assert_array_equal(got, want)


class TestHooks:
    def test_hook_fires_and_modifies(self, untrained_engine):
        calls = []

        def hook(out, ctx):
            calls.append((ctx.block, ctx.layer, ctx.iteration))
            out[...] = 0.0
            return out

        remove = untrained_engine.hooks.register("blocks.0.up_proj", hook)
        baseline = untrained_engine.forward_full(TOKENS)
        remove()
        clean = untrained_engine.forward_full(TOKENS)
        assert calls == [(0, "up_proj", 0)]
        assert not np.allclose(baseline, clean)

    def test_hook_iteration_counter(self, untrained_engine):
        seen = []
        untrained_engine.hooks.register(
            "blocks.0.q_proj", lambda out, ctx: seen.append(ctx.iteration)
        )
        session = untrained_engine.start_session(TOKENS[:3])
        session.step(1)
        session.step(2)
        untrained_engine.hooks.clear()
        assert seen == [0, 1, 2]

    def test_capture_layers(self, untrained_engine):
        untrained_engine.capture = CaptureState()
        untrained_engine.forward_full(TOKENS)
        outputs = untrained_engine.capture.layer_outputs
        untrained_engine.capture = None
        assert "blocks.0.q_proj" in outputs
        assert "blocks.1.down_proj" in outputs
        assert outputs["blocks.0.q_proj"].shape == (len(TOKENS), 32)

    def test_moe_expert_selection_capture(self, moe_engine):
        moe_engine.capture = CaptureState()
        moe_engine.forward_full(TOKENS)
        selections = moe_engine.capture.expert_selections
        moe_engine.capture = None
        assert (0, 0) in selections
        top = selections[(0, 0)]
        assert top.shape == (len(TOKENS), 2)  # top-2 of 4 experts
        assert top.max() < 4


def feed(engine, entry, chunk, caches, start, iteration):
    """One sequence's ``chunk`` through a public entry at batch width 1;
    logits come back ``(len(chunk), vocab)`` whichever entry ran."""
    if entry == "forward":
        return engine.forward(chunk, caches, start, iteration)
    if entry == "step":
        return engine.forward_step_batch(chunk, [caches], [start], [iteration])
    return engine.forward_chunk_batch([chunk], [caches], [start], [iteration])[0]


def run_chunks(engine, entry, chunks):
    """Feed ``chunks`` in order into fresh caches with a recording hook
    on every linear layer: ``(logits per chunk, caches, hook trace)``."""
    trace = []

    def record(out, ctx):
        trace.append(
            (ctx.full_name, ctx.iteration, ctx.batch_row, out.shape, out.copy())
        )

    removes = [
        engine.hooks.register(name, record) for name in engine.linear_layer_names()
    ]
    caches, logits, start = engine.new_caches(), [], 0
    try:
        for iteration, chunk in enumerate(chunks):
            logits.append(feed(engine, entry, chunk, caches, start, iteration))
            start += len(chunk)
    finally:
        for remove in removes:
            remove()
    return logits, caches, trace


def assert_caches_equal(caches, reference):
    for cache, ref in zip(caches, reference):
        assert cache.length == ref.length
        np.testing.assert_array_equal(cache.keys(), ref.keys())
        np.testing.assert_array_equal(cache.values(), ref.values())


class TestOneForward:
    """The three public entries are adapters over one rows kernel."""

    @pytest.mark.parametrize("engine_fixture", ["untrained_engine", "moe_engine"])
    @pytest.mark.parametrize(
        "entry,t",
        [("step", 1), ("chunk", 1), ("chunk", 3), ("chunk", len(TOKENS))],
    )
    def test_width_one_is_the_serial_forward(
        self, request, engine_fixture, entry, t
    ):
        engine = request.getfixturevalue(engine_fixture)
        chunks = [TOKENS[i : i + t] for i in range(0, len(TOKENS), t)]
        ref_logits, ref_caches, ref_trace = run_chunks(engine, "forward", chunks)
        logits, caches, trace = run_chunks(engine, entry, chunks)
        for got, want in zip(logits, ref_logits):
            np.testing.assert_array_equal(got, want)
        assert_caches_equal(caches, ref_caches)
        # Same hooks, in the same order, on the same (t, features)
        # tensors; only batch_row tells the entries apart.
        assert len(trace) == len(ref_trace)
        for (name, it, row, shape, out), ref in zip(trace, ref_trace):
            assert (name, it, shape) == (ref[0], ref[1], ref[3])
            assert row == 0 and ref[2] is None
            np.testing.assert_array_equal(out, ref[4])

    @pytest.mark.parametrize("entry,t", [("step", 1), ("chunk", 1), ("chunk", 3)])
    def test_ragged_batch_matches_serial(self, untrained_engine, entry, t):
        engine = untrained_engine
        sessions = [
            engine.start_session(p)
            for p in ([3, 5, 7], [11, 13, 17, 19, 4], [23, 29])
        ]
        rows = [s.fork() for s in sessions]
        chunks = [c[:t] for c in ([4, 8, 15], [16, 23, 42], [9, 2, 6])]
        positions = [s.position for s in sessions]
        serial = [
            engine.forward(c, s.caches, s.position, 1)
            for s, c in zip(sessions, chunks)
        ]
        row_caches = [r.caches for r in rows]
        if entry == "step":
            batched = engine.forward_step_batch(
                [c[0] for c in chunks], row_caches, positions, [1, 1, 1]
            )[:, None]
        else:
            batched = engine.forward_chunk_batch(
                chunks, row_caches, positions, [1, 1, 1]
            )
        # Row-exact: one product per sequence, so width changes no bit.
        for row, ref in enumerate(serial):
            np.testing.assert_array_equal(batched[row], ref)
            assert_caches_equal(row_caches[row], sessions[row].caches)

    def test_row_ids_tag_hooks_and_must_be_distinct(self, untrained_engine):
        engine = untrained_engine
        seen = []
        engine.hooks.register(
            "blocks.0.up_proj",
            lambda out, ctx: seen.append(ctx.batch_row),
            row_scoped=True,
            observer=True,
        )

        def run(entry, **kw):
            rows = [engine.start_session(p) for p in ([3, 5, 7], [11, 13])]
            caches, positions = [r.caches for r in rows], [r.position for r in rows]
            if entry == "step":
                return engine.forward_step_batch([4, 8], caches, positions, [1, 1], **kw)
            return engine.forward_chunk_batch(
                [[4, 8], [15, 16]], caches, positions, [1, 1], **kw
            )

        for entry in ("step", "chunk"):
            seen.clear()
            default = run(entry)
            tagged = run(entry, row_ids=[7, 3])
            assert seen == [None, None, 0, 1, None, None, 7, 3]  # None: prefills
            np.testing.assert_array_equal(tagged, default)
            for bad in ([5, 5], [1], [[0, 1]]):
                with pytest.raises(ValueError, match="distinct"):
                    run(entry, row_ids=bad)

    def test_moe_chunk_hooks_are_per_sequence(self, moe_engine):
        """Router and expert hooks on a MoE chunk batch get an int
        iteration, the row's batch_row and only that row's tokens (an
        ``attach_front``-style probe compares ``ctx.iteration``)."""
        seen = []

        def probe(out, ctx):
            if ctx.iteration == 2:
                seen.append((ctx.full_name, ctx.batch_row, out.copy()))

        for name in moe_engine.linear_layer_names():
            moe_engine.hooks.register(name, probe, row_scoped=True, observer=True)
        prompts, chunks = ([3, 5, 7], [11, 13]), ([4, 8], [15, 16])
        rows = [moe_engine.start_session(p) for p in prompts]
        moe_engine.forward_chunk_batch(
            chunks, [r.caches for r in rows], [r.position for r in rows], [1, 2]
        )
        batched, seen[:] = list(seen), []
        serial = moe_engine.start_session(prompts[1])
        moe_engine.forward(chunks[1], serial.caches, serial.position, 2)
        assert [(n, r) for n, r, _ in batched] == [(n, 1) for n, _, _ in seen]
        for (_, _, got), (_, _, want) in zip(batched, seen):
            np.testing.assert_allclose(got, want, rtol=2e-5, atol=1e-5)

    def test_replacing_hook_reaches_one_row(self, untrained_engine):
        """A hook that returns a new tensor (rather than mutating its
        view) replaces exactly its own sequence's slice of the batch."""
        engine = untrained_engine
        chunks, positions = [[4, 8], [15, 16]], [3, 5]

        def run():
            rows = [engine.start_session(p) for p in ([3, 5, 7], [11, 13, 17, 19, 4])]
            return engine.forward_chunk_batch(
                chunks, [r.caches for r in rows], positions, [1, 1]
            )

        clean = run()
        remove = engine.hooks.register(
            "blocks.0.up_proj",
            lambda out, ctx: np.zeros_like(out) if ctx.batch_row == 1 else None,
            row_scoped=True,
        )
        struck = run()
        remove()
        np.testing.assert_array_equal(struck[0], clean[0])
        assert not np.allclose(struck[1], clean[1])

    def test_chunk_entry_rejections(self, untrained_engine):
        from repro.fi import AccumulatorFaultInjector, FaultModel, FaultSite

        engine = untrained_engine
        caches = engine.new_caches()
        with pytest.raises(ValueError, match="rectangular"):
            engine.forward_chunk_batch([4, 5], [caches], [0], [0])
        with pytest.raises(ValueError, match="cache rows"):
            engine.forward_chunk_batch([[4, 5], [6, 7]], [caches], [0, 0], [0, 0])
        engine.capture = CaptureState()
        try:
            with pytest.raises(RuntimeError, match="capture"):
                engine.forward_chunk_batch([[4, 5]], [caches], [0], [0])
        finally:
            engine.capture = None
        site = FaultSite(
            fault_model=FaultModel.ACC_1BIT,
            layer_name="blocks.0.up_proj",
            row=0, col=1, bits=(30,), iteration=0, row_frac=0.0,
        )
        with AccumulatorFaultInjector(engine, site):
            with pytest.raises(RuntimeError, match="accumulator"):
                engine.forward_chunk_batch([[4, 5]], [caches], [0], [0])
        assert [c.length for c in caches] == [0, 0]

    @pytest.mark.parametrize("engine_fixture", ["untrained_engine", "moe_engine"])
    def test_resume_from_a_block_input_is_the_whole_forward(
        self, request, engine_fixture
    ):
        """``block_inputs`` hands out the state entering every block;
        resuming from any of them — the first (only the embedding is
        skipped) and the last pinned here — gives the whole forward's
        logits and its K/V in every block that ran, and leaves the
        skipped blocks' caches alone."""
        engine = request.getfixturevalue(engine_fixture)
        n = engine.config.n_blocks
        chunks = [TOKENS[:5], TOKENS[2:]]

        def forward(**kw):
            rows = [engine.new_caches() for _ in chunks]
            return engine.forward_chunk_batch(chunks, rows, [0, 0], [0, 0], **kw), rows

        inputs = []
        whole, whole_rows = forward(block_inputs=inputs)
        assert [x.shape for x in inputs] == [(10, engine.config.d_model)] * n
        np.testing.assert_array_equal(whole, forward()[0])
        for first in (0, n - 1):
            seen = []
            got, rows = forward(resume=(first, inputs[first]), block_inputs=seen)
            np.testing.assert_array_equal(got, whole)
            assert len(seen) == n - first and seen[0] is inputs[first]
            for caches, ref in zip(rows, whole_rows):
                assert [c.length for c in caches[:first]] == [0] * first
                assert_caches_equal(caches[first:], ref[first:])

    def test_malformed_resume_raises_before_any_cache_is_touched(
        self, untrained_engine
    ):
        engine = untrained_engine
        cfg = engine.config
        caches = engine.new_caches()
        good = np.zeros((2, cfg.d_model), dtype=np.float32)

        def resumed(first, hidden):
            return engine.forward_chunk_batch(
                [[4, 5]], [caches], [0], [0], resume=(first, hidden)
            )

        for first in (-1, cfg.n_blocks):
            with pytest.raises(ValueError, match="out of range"):
                resumed(first, good)
        for hidden in (
            good[:1],  # a row short
            np.zeros((2, cfg.d_model + 1), dtype=np.float32),
            good.reshape(1, 2, -1),  # not flat
            good.astype(np.float64),
            good.tolist(),
        ):
            with pytest.raises(ValueError, match="hidden state"):
                resumed(1, hidden)
        engine.capture = CaptureState()
        try:
            with pytest.raises(RuntimeError, match="capture"):
                resumed(1, good)
        finally:
            engine.capture = None
        assert [c.length for c in caches] == [0] * cfg.n_blocks


class TestStoragePolicies:
    def test_weight_store_lookup(self, untrained_engine):
        store = untrained_engine.weight_store("blocks.0.q_proj")
        assert store.shape == (32, 32)
        with pytest.raises(KeyError):
            untrained_engine.weight_store("embed")

    @pytest.mark.parametrize("policy", ["fp32", "fp16", "bf16", "int8", "int4"])
    def test_policies_build_and_run(self, untrained_store, policy):
        engine = InferenceEngine(untrained_store, weight_policy=policy)
        logits = engine.forward_full(TOKENS)
        assert np.isfinite(logits).all()

    def test_quantized_close_to_fp32(self, untrained_store):
        base = InferenceEngine(untrained_store).forward_full(TOKENS)
        q8 = InferenceEngine(untrained_store, weight_policy="int8").forward_full(
            TOKENS
        )
        q4 = InferenceEngine(untrained_store, weight_policy="int4").forward_full(
            TOKENS
        )
        err8 = np.abs(q8 - base).mean()
        err4 = np.abs(q4 - base).mean()
        assert err8 < err4  # 8-bit is a tighter approximation

    def test_float_store_flip_restore(self):
        w = np.random.default_rng(0).normal(size=(8, 4)).astype(np.float32)
        store = FloatWeightStore(w, "bf16")
        before = store.array.copy()
        token = store.flip_element_bits(2, 1, [14])
        assert store.array[2, 1] != before[2, 1]
        assert (store.array != before).sum() == 1  # exactly one element
        store.restore(token)
        np.testing.assert_array_equal(store.array, before)

    def test_quantized_store_flip_restore(self):
        w = np.random.default_rng(1).normal(size=(64, 4)).astype(np.float32)
        store = QuantizedWeightStore(w, nbits=4)
        before = store.array.copy()
        token = store.flip_element_bits(5, 2, [3])
        assert store.array[5, 2] != before[5, 2]
        store.restore(token)
        np.testing.assert_array_equal(store.array, before)

    def test_make_weight_store_rejects_unknown(self):
        with pytest.raises(KeyError):
            make_weight_store(np.zeros((2, 2), np.float32), "fp8")

    def test_activation_format_defaults(self, untrained_store):
        assert InferenceEngine(untrained_store, "bf16").activation_format == "bf16"
        assert InferenceEngine(untrained_store, "int4").activation_format == "fp32"
