"""Tests for the fast inference engine: parity, caching, hooks, storage."""

import contextlib
import copy
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.inference import (
    FloatWeightStore,
    InferenceEngine,
    PooledKVCache,
    QuantizedWeightStore,
    Recorder,
    make_weight_store,
)
from repro.inference import engine as engine_module
from repro.inference.engine import select_experts
from repro.inference.kvcache import KVWrite
from repro.model import ModelConfig, TransformerLM

TOKENS = [1, 5, 7, 2, 9, 11, 3]
ROOT = Path(__file__).resolve().parents[1]


def kv_cache(n_heads: int, max_seq: int, head_dim: int):
    """One block's cache: the slot of a one-slot, one-block pool."""
    return PooledKVCache(1, 1, n_heads, max_seq, head_dim).caches(0)[0]


def append(cache, k, v) -> None:
    """Write ``(n_heads, t, head_dim)`` K/V after ``cache``'s filled
    prefix: the engine's own write, at one row."""
    k, v = np.asarray(k), np.asarray(v)
    KVWrite([cache], k.shape[1])([cache], k[None], v[None])


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


class TestKVCache:
    def test_append_and_views(self, untrained_engine):
        """A forward writes its K/V into the slot views it was given,
        after what they hold, and into no other slot of their pool."""
        cfg = untrained_engine.config
        pool = untrained_engine.new_pool(3)
        first, second = pool.acquire(), pool.acquire()
        untrained_engine.forward(TOKENS[:3], pool.caches(second), 0, 0)
        untrained_engine.forward(TOKENS[3:5], pool.caches(second), 3, 1)
        cache = pool.caches(second)[0]
        assert cache.length == 5
        assert cache.keys().shape == (cfg.n_heads, 5, cfg.head_dim)
        assert np.shares_memory(cache.k, pool._k[0])
        assert all(c.length == 0 for c in pool.caches(first))
        whole = untrained_engine.new_caches()
        untrained_engine.forward(TOKENS[:5], whole, 0, 0)
        assert_caches_equal(pool.caches(second), whole)

    def test_overflow_raises(self, untrained_engine):
        """A forward past a slot's capacity raises before it writes."""
        cfg = untrained_engine.config
        pool = PooledKVCache(cfg.n_blocks, 1, cfg.n_heads, 2, cfg.head_dim)
        caches = pool.caches(pool.acquire())
        with pytest.raises(ValueError, match="overflow"):
            untrained_engine.forward(TOKENS[:3], caches, 0, 0)
        assert all(c.length == 0 for c in caches)

    def test_a_view_refuses_copy(self):
        """A view is one slot of a shared arena, and a deep copy would
        copy ``arena`` and ``k``/``v`` apart (its writes landing where
        its ``keys()`` never reads): ``copy.copy`` and ``copy.deepcopy``
        raise ``TypeError``, a list of views too, naming the way to copy
        a cache — which leaves an equal one."""
        cache = kv_cache(2, 8, 4)
        append(cache, np.ones((2, 3, 4)), np.full((2, 3, 4), 2.0))
        for copy_of, target in (
            (copy.copy, cache), (copy.deepcopy, cache), (copy.deepcopy, [cache])
        ):
            with pytest.raises(TypeError, match=r"snapshot\(\).*restore\(\)"):
                copy_of(target)
        other = kv_cache(2, 8, 4)
        other.restore(cache.snapshot())
        assert_caches_equal([other], [cache])

    def test_truncate(self):
        cache = kv_cache(1, 8, 2)
        append(cache, np.ones((1, 4, 2)), np.ones((1, 4, 2)))
        cache.truncate(2)
        assert cache.length == 2 and cache.keys().shape == (1, 2, 2)
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

    def test_a_hook_detached_during_apply_skips_no_sibling(self, untrained_engine):
        """A hook that detaches itself mid-``apply`` (as a one-shot
        injector does at its strike) leaves the hooks after it on the
        same layer to run once in that call, and in no call again."""
        hooks, calls = untrained_engine.hooks, []

        def once(out, ctx):
            calls.append("once")
            remove_once()

        remove_once = hooks.register("blocks.0.up_proj", once, row_scoped=True)
        remove_probe = hooks.register(
            "blocks.0.up_proj", lambda out, ctx: calls.append("probe"),
            row_scoped=True, observer=True,
        )
        try:
            untrained_engine.forward_full(TOKENS)
            assert calls == ["once", "probe"] and len(hooks) == 1
            untrained_engine.forward_full(TOKENS)
            assert calls == ["once", "probe", "probe"]
        finally:
            remove_probe()
        assert len(hooks) == 0 and hooks.all_observers()

    def test_capture_layers(self, untrained_engine):
        with Recorder(untrained_engine) as recorder:
            untrained_engine.forward_full(TOKENS)
        assert len(untrained_engine.hooks) == 0
        outputs = recorder.layer_outputs
        assert list(outputs) == untrained_engine.linear_layer_names()
        assert "blocks.1.down_proj" in outputs
        assert outputs["blocks.0.q_proj"].shape == (len(TOKENS), 32)

    def test_moe_expert_selection_capture(self, moe_engine):
        with Recorder(moe_engine) as recorder:
            moe_engine.forward_full(TOKENS)
        selections = recorder.expert_selections
        assert sorted(selections) == [(0, 0), (0, 1)]
        top = selections[(0, 0)]
        assert top.shape == (len(TOKENS), 2)  # top-2 of 4 experts
        assert top.max() < 4

    def test_recorded_selection_is_the_routing_the_engine_ran(self, moe_store):
        """Router logits that tie (a zeroed router: every expert scores
        0) leave the choice to the engine's tie-breaking; the record is
        :func:`select_experts` of the router's output, token for token
        in the order it returns, and each expert ran over exactly the
        tokens the record routes to it."""
        store = moe_store.copy()
        for b in range(store.config.n_blocks):
            store[f"blocks.{b}.router.weight"] = np.zeros_like(
                store[f"blocks.{b}.router.weight"]
            )
        engine = InferenceEngine(store)
        ran = {}

        def tokens(output, ctx):
            if ctx.layer.endswith("gate_proj"):
                ran[ctx.block, int(ctx.layer.split(".")[1])] = len(output)

        detach = engine.hooks.observe(engine.linear_layer_names(), tokens)
        with Recorder(engine) as recorder:
            engine.forward_full(TOKENS)
        detach()
        for (_, block), top in recorder.expert_selections.items():
            router = recorder.layer_outputs[f"blocks.{block}.router"]
            assert not router.any()
            np.testing.assert_array_equal(top, select_experts(router, 2))
            for e in range(4):
                assert ran.get((block, e), 0) == int((top == e).sum())


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
        prompts = ([3, 5, 7], [11, 13, 17, 19, 4], [23, 29])
        sessions = [engine.start_session(p) for p in prompts]
        rows = [engine.start_session(p) for p in prompts]
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
        engine = untrained_engine
        caches = engine.new_caches()
        with pytest.raises(ValueError, match="rectangular"):
            engine.forward_chunk_batch([4, 5], [caches], [0], [0])
        with pytest.raises(ValueError, match="cache rows"):
            engine.forward_chunk_batch([[4, 5], [6, 7]], [caches], [0, 0], [0, 0])
        assert [c.length for c in caches] == [0, 0]

    @pytest.mark.parametrize("engine_fixture", ["untrained_engine", "moe_engine"])
    def test_resume_from_a_block_input_is_the_whole_forward(
        self, request, engine_fixture
    ):
        """``block_inputs`` hands out the state entering every block;
        every row entering at any of them — the first (only the
        embedding is skipped) and the last pinned here — gives the whole
        forward's logits and its K/V in every block that ran, and leaves
        the skipped blocks' caches alone."""
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
            states = inputs[first].reshape(len(chunks), -1, engine.config.d_model)
            got, rows = forward(
                enter=[(first, state) for state in states], block_inputs=seen
            )
            np.testing.assert_array_equal(got, whole)
            assert len(seen) == n - first
            np.testing.assert_array_equal(seen[0], inputs[first])
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
                [[4, 5]], [caches], [0], [0], enter=[(first, hidden)]
            )

        for first in (-1, cfg.n_blocks):
            with pytest.raises(ValueError, match="out of range"):
                resumed(first, good)
        for hidden in (
            good[:1],  # a position short
            np.zeros((2, cfg.d_model + 1), dtype=np.float32),
            good.reshape(1, 2, -1),  # not the row's (t, d_model)
            good.astype(np.float64),
            good.tolist(),
        ):
            with pytest.raises(ValueError, match="hidden state"):
                resumed(1, hidden)
        with pytest.raises(ValueError, match="entries"):  # one per row
            engine.forward_chunk_batch(
                [[4, 5]], [caches], [0], [0], enter=[None, (1, good)]
            )
        assert [c.length for c in caches] == [0] * cfg.n_blocks


def rows_seen(engine, run):
    """``run()``'s result and, per linear layer, how many rows its first
    product of the forward computed it over — for q, k and v, the rows
    of the product over their columns of the block's ``qkv``."""
    d = engine.config.d_model
    names: dict[int, list[str]] = {}
    blocks = {id(block.qkv): block for block in engine._table}
    for block in engine._table:
        router = () if block.router is None else (block.router,)
        others = (block.attn[3], *(block.mlp or ()), *router, *sum(block.experts, ()))
        for layer in others:
            names[id(layer.pristine)] = [layer.full]
    seen: dict[str, int] = {}
    product = engine_module._product

    def spy(x, w, rows, t):
        block = blocks.get(id(w if w.base is None else w.base))
        if block is None:
            layers = names.get(id(w), ())
        else:  # a column slice of the block's qkv: which members
            first = (w.ctypes.data - block.qkv.ctypes.data) // w.itemsize // d
            members = block.attn[first : first + w.shape[1] // d]
            layers = [layer.full for layer in members]
        for name in layers:
            seen.setdefault(name, x.shape[0])
        return product(x, w, rows, t)

    with mock.patch.object(engine_module, "_product", spy):
        return run(), seen


class TestReadWindow:
    """``read_from=k``: logits for positions ``>= k`` only, and, when
    nothing observes it, a last block that runs only there."""

    K = 4

    def test_an_unobserved_dense_last_block_runs_on_the_window(
        self, untrained_engine
    ):
        engine, k = untrained_engine, self.K
        last = f"blocks.{engine.config.n_blocks - 1}."
        chunks = [TOKENS, TOKENS[::-1]]
        full = engine.forward_chunk_batch(chunks, None, [0, 0], [0, 0])
        got, seen = rows_seen(
            engine,
            lambda: engine.forward_chunk_batch(chunks, None, [0, 0], [0, 0], read_from=k),
        )
        np.testing.assert_array_equal(got, full[:, k:])
        window = 2 * (len(TOKENS) - k)
        assert seen[last + "k_proj"] == seen[last + "v_proj"] == 2 * len(TOKENS)
        for layer in ("q_proj", "out_proj", "gate_proj", "up_proj", "down_proj"):
            assert seen[last + layer] == window, layer
        assert seen["blocks.0.q_proj"] == 2 * len(TOKENS)

    @pytest.mark.parametrize("observer", ["hook", "moe", "acc_fault"])
    def test_an_observed_last_block_runs_whole_and_still_returns_the_window(
        self, untrained_engine, moe_engine, observer
    ):
        """A hook on a last-block layer (an observer here: layer timing),
        MoE routing and an armed accumulator fault each decline the cut;
        the result is still only the window's positions, the full
        forward's bits."""
        from repro.fi import AccumulatorFaultInjector, FaultModel, FaultSite

        engine = moe_engine if observer == "moe" else untrained_engine
        k, t = self.K, len(TOKENS)
        last = f"blocks.{engine.config.n_blocks - 1}."

        @contextlib.contextmanager
        def armed():
            if observer == "hook":
                remove = engine.hooks.register(
                    last + "down_proj", lambda out, ctx: None, observer=True
                )
                yield
                remove()
            elif observer == "acc_fault":
                site = FaultSite(
                    fault_model=FaultModel.ACC_1BIT, layer_name=last + "up_proj",
                    row=0, col=1, bits=(30,), iteration=0, row_frac=0.9,
                )
                with AccumulatorFaultInjector(engine, site) as injector:
                    yield
                assert injector.fired
            else:
                yield

        with armed():
            full = engine.forward_full(TOKENS)
        with armed():
            got, seen = rows_seen(
                engine,
                lambda: engine.forward_chunk_batch(
                    [TOKENS], [engine.new_caches()], [0], [0], read_from=k
                ),
            )
        np.testing.assert_array_equal(got[0], full[k:])
        assert seen[last + ("router" if observer == "moe" else "q_proj")] == t
        for layer in ("k_proj", "v_proj", "out_proj"):
            assert seen[last + layer] == t, layer

    def test_a_window_of_one_position_raises_before_anything_runs(
        self, untrained_engine
    ):
        engine = untrained_engine
        calls = []
        remove = engine.hooks.register(
            "blocks.0.q_proj", lambda out, ctx: calls.append(ctx), observer=True
        )
        caches = [engine.new_caches(), engine.new_caches()]
        t = len(TOKENS)
        try:
            for read_from in (t - 1, t, t + 3, -1):
                for row_caches in (caches, None):
                    with pytest.raises(ValueError, match="read_from"):
                        engine.forward_chunk_batch(
                            [TOKENS, TOKENS], row_caches, [0, 0], [0, 0],
                            read_from=read_from,
                        )
        finally:
            remove()
        assert calls == []
        assert [c.length for own in caches for c in own] == [0] * (2 * engine.config.n_blocks)
        # Two positions is the shortest window.
        np.testing.assert_array_equal(
            engine.forward_chunk_batch([TOKENS], caches[:1], [0], [0], read_from=t - 2)[0],
            engine.forward_full(TOKENS)[t - 2 :],
        )

    @pytest.mark.parametrize("plane", ["k", "v"])
    def test_a_cacheless_forward_strikes_fresh_kv_and_refuses_a_prefix(
        self, untrained_engine, plane
    ):
        """Without caches, a KV fault keyed to a row strikes that row's
        new K/V before attention reads them: the row is the forward
        whose cache the fault strikes, read window or not, and the row
        beside it is untouched."""
        from repro.fi import FaultModel, FaultSite, KVFaultInjector

        engine = untrained_engine
        site = FaultSite(
            FaultModel.KV_2BIT, "blocks.0.kv", 1, 3, bits=(30, 22),
            iteration=0, row_frac=0.3, plane=plane,
        )
        clean = engine.forward_full(TOKENS)
        with KVFaultInjector(engine, site) as injector:
            struck = engine.forward_full(TOKENS)
        assert injector.fired and not np.array_equal(struck, clean)
        for read_from in (0, 2):
            with KVFaultInjector(engine, site, batch_row=1) as injector:
                got = engine.forward_chunk_batch(
                    [TOKENS, TOKENS], None, [0, 0], [0, 0], read_from=read_from
                )
            assert injector.fired and engine.kv_faults == {}
            np.testing.assert_array_equal(got[0], clean[read_from:])
            np.testing.assert_array_equal(got[1], struck[read_from:])
        with pytest.raises(ValueError, match="position 0"):
            engine.forward_chunk_batch([TOKENS, TOKENS], None, [0, 3], [0, 0])
        # Without caches, the rows are what they are with fresh ones.
        np.testing.assert_array_equal(
            engine.forward_chunk_batch([TOKENS], None, [0], [0])[0],
            engine.forward_full(TOKENS),
        )


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

    @staticmethod
    def _swap_cycle(store, row, col, bit):
        """A faulted copy swapped in and back: it differs in ``(row,
        col)`` alone, and the store's own array is back by identity."""
        own = store.array
        faulted = store.faulted_array(row, col, [bit])
        assert (faulted != own).sum() == 1 and faulted[row, col] != own[row, col]
        assert store.swap(faulted) is own and store.array is faulted
        assert store.swap(own) is faulted and store.array is own

    def test_float_store_flip_restore(self):
        w = np.random.default_rng(0).normal(size=(8, 4)).astype(np.float32)
        self._swap_cycle(FloatWeightStore(w, "bf16"), 2, 1, 14)

    def test_quantized_store_flip_restore(self):
        w = np.random.default_rng(1).normal(size=(64, 4)).astype(np.float32)
        self._swap_cycle(QuantizedWeightStore(w, nbits=4), 5, 2, 3)

    def test_make_weight_store_rejects_unknown(self):
        with pytest.raises(KeyError):
            make_weight_store(np.zeros((2, 2), np.float32), "fp8")

    def test_activation_format_defaults(self, untrained_store):
        assert InferenceEngine(untrained_store, "bf16").activation_format == "bf16"
        assert InferenceEngine(untrained_store, "int4").activation_format == "fp32"


def heap_probe() -> tuple[bool, int]:
    """``(engine._HEAP_KEPT, faults)``: the calling thread's minor page
    faults over five repeats of a warmed cache-less forward of 16 rows x
    32 tokens, whose ``(16, 4, 32, 32)`` score blocks are 256 KiB each
    (an mmapped array under glibc's defaults)."""
    config = ModelConfig(
        vocab_size=40, d_model=32, n_heads=4, n_blocks=2, d_ff=48, max_seq=64
    )
    engine = InferenceEngine(TransformerLM(config, seed=3).to_store())
    chunk = [[1 + (7 * row + i) % 39 for i in range(32)] for row in range(16)]
    engine.forward_chunk_batch(chunk, None, [0] * 16, [0] * 16)
    before = engine_module._minor_faults()
    for _ in range(5):
        engine.forward_chunk_batch(chunk, None, [0] * 16, [0] * 16)
    return engine_module._HEAP_KEPT, engine_module._minor_faults() - before


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(
    not _glibc() or engine_module._RUSAGE_THREAD is None,
    reason="glibc's allocator with per-thread fault counts only",
)
class TestFreedHeapIsKept:
    @pytest.mark.skipif(
        not engine_module._malloc_is_ours(),
        reason="the environment configures glibc's malloc thresholds",
    )
    def test_a_repeated_forward_reuses_its_pages(self):
        """Freed temporaries stay mapped: after one warm-up, forwards
        whose arrays exceed glibc's default 128 KiB mmap threshold fault
        (almost) nothing in.  Left at glibc's defaults the same five
        forwards fault about 1 600 pages."""
        kept, faults = heap_probe()
        assert kept and faults <= 16, faults

    def test_the_environment_s_thresholds_are_left_alone(self):
        """With ``MALLOC_TRIM_THRESHOLD_`` set, importing the engine
        calls no ``mallopt``: the flag reads ``False`` and the fixed
        128 KiB mmap threshold that variable implies maps (and faults)
        the score blocks in every forward."""
        env = dict(os.environ, MALLOC_TRIM_THRESHOLD_="131072")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
        )
        code = "from tests.test_engine import heap_probe; print(*heap_probe())"
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout.split()
        assert out[0] == "False" and int(out[1]) > 5 * 64, out
