"""Cross-module property tests on the inference substrate's invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fi import FaultModel, FaultSite, inject, sample_site
from repro.fi.golden import GoldenRun
from repro.generation import GenerationConfig, greedy_decode
from repro.generation.round import pick
from repro.inference import InferenceEngine, KVCache
from repro.inference.kvcache import PooledKVCache
from repro.model import ModelConfig, TransformerLM
from tests.test_engine import assert_caches_equal, feed

VOCAB = 40


_PROP_ENGINE: InferenceEngine | None = None


def _prop_engine() -> InferenceEngine:
    """Module-cached engine (hypothesis forbids function-scoped fixtures)."""
    global _PROP_ENGINE
    if _PROP_ENGINE is None:
        config = ModelConfig(
            vocab_size=VOCAB, d_model=32, n_heads=4, n_blocks=2, d_ff=48,
            max_seq=64,
        )
        _PROP_ENGINE = InferenceEngine(TransformerLM(config, seed=13).to_store())
    return _PROP_ENGINE


@pytest.fixture()
def prop_engine() -> InferenceEngine:
    return _prop_engine()


_prompts = st.lists(
    st.integers(min_value=5, max_value=VOCAB - 1), min_size=1, max_size=12
)


@settings(max_examples=25, deadline=None)
@given(_prompts, st.data())
def test_property_incremental_equals_full(prompt, data):
    """KV-cached decoding matches the full recompute for any prompt,
    and any split of the sequence fed chunk by chunk through any mix of
    the public entries is bit-identical to the serial entry fed the
    same split."""
    config = ModelConfig(
        vocab_size=VOCAB, d_model=32, n_heads=4, n_blocks=2, d_ff=48, max_seq=64
    )
    engine = InferenceEngine(TransformerLM(config, seed=13).to_store())
    session = engine.start_session(prompt)
    stepped = [session.last_logits.copy()]
    for token in [3, 7]:
        stepped.append(session.step(token).copy())
    tokens = [*prompt, 3, 7]
    full = engine.forward_full(tokens)
    np.testing.assert_allclose(stepped[0], full[len(prompt) - 1], atol=2e-4)
    np.testing.assert_allclose(stepped[2], full[-1], atol=2e-4)

    cuts = data.draw(
        st.lists(st.integers(1, len(tokens) - 1), unique=True, max_size=4)
    )
    bounds = [0, *sorted(cuts), len(tokens)]
    serial, mixed = engine.new_caches(), engine.new_caches()
    for iteration, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        entries = ["forward", "chunk"] + (["step"] if hi - lo == 1 else [])
        entry = data.draw(st.sampled_from(entries))
        want = feed(engine, "forward", tokens[lo:hi], serial, lo, iteration)
        got = feed(engine, entry, tokens[lo:hi], mixed, lo, iteration)
        np.testing.assert_array_equal(got, want)
    assert_caches_equal(mixed, serial)
    np.testing.assert_allclose(want[-1], full[-1], atol=2e-4)


_ROW_EXACT_ENGINES: dict[tuple[bool, int], InferenceEngine] = {}


def _row_exact_engine(moe: bool, n_blocks: int = 2) -> InferenceEngine:
    if (moe, n_blocks) not in _ROW_EXACT_ENGINES:
        extra = dict(d_ff=32, n_experts=4, top_k=2) if moe else dict(d_ff=48)
        config = ModelConfig(
            vocab_size=VOCAB, d_model=32, n_heads=4, n_blocks=n_blocks,
            max_seq=64, **extra,
        )
        _ROW_EXACT_ENGINES[moe, n_blocks] = InferenceEngine(
            TransformerLM(config, seed=17).to_store()
        )
    return _ROW_EXACT_ENGINES[moe, n_blocks]


@settings(max_examples=60, deadline=None)
@given(
    st.booleans(),
    st.lists(_prompts, min_size=1, max_size=8),
    st.sampled_from(["step", "chunk-1", "chunk-3", "prefill"]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_batched_rows_are_bit_identical_to_serial(moe, prompts, shape, seed):
    """Row-exact batching: at any width, over ragged positions and on
    both batched entries — single steps, chunks, whole prompts — every
    row's logits and appended K/V are ``array_equal`` to the serial
    forward of that row alone, dense and MoE."""
    engine = _row_exact_engine(moe)
    rng = np.random.default_rng(seed)
    if shape == "prefill":
        t = min(len(p) for p in prompts)
        chunks = [p[:t] for p in prompts]
        serial = [engine.new_caches() for _ in prompts]
    else:
        t = 3 if shape == "chunk-3" else 1
        chunks = rng.integers(5, VOCAB, size=(len(prompts), t)).tolist()
        serial = [engine.start_session(p).caches for p in prompts]
    batched = [[c.clone() for c in caches] for caches in serial]
    positions = [caches[0].length for caches in serial]
    iterations = rng.integers(0, 9, size=len(prompts)).tolist()
    want = [
        engine.forward(chunk, caches, position, iteration)
        for chunk, caches, position, iteration in zip(
            chunks, serial, positions, iterations
        )
    ]
    if shape == "step":
        got = engine.forward_step_batch(
            [c[0] for c in chunks], batched, positions, iterations
        )[:, None]
    else:
        got = engine.forward_chunk_batch(chunks, batched, positions, iterations)
    for row, ref in enumerate(want):
        np.testing.assert_array_equal(got[row], ref)
        assert_caches_equal(batched[row], serial[row])


@settings(max_examples=40, deadline=None)
@given(
    st.booleans(),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_resumed_forward_is_the_whole_forward(moe, batch, t, seed):
    """An error only travels downstream.  For every block ``b``: with
    nothing armed, and again with a weight of block ``b`` flipped,
    ``forward_chunk_batch`` resumed at ``b`` from the *fault-free*
    forward's ``block_inputs[b]`` is ``array_equal`` to the whole
    forward under that condition — logits, and K/V of every block
    ``>= b`` — dense and MoE, at any width and chunk length."""
    engine = _row_exact_engine(moe, n_blocks=3)
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, VOCAB, size=(batch, t))
    zeros = [0] * batch

    def forward(**kw):
        rows = [engine.new_caches() for _ in range(batch)]
        return engine.forward_chunk_batch(tokens, rows, zeros, zeros, **kw), rows

    def assert_resumes_at(first):
        want, want_rows = forward()
        got, rows = forward(resume=(first, golden[first]))
        np.testing.assert_array_equal(got, want)
        for caches, ref in zip(rows, want_rows):
            assert_caches_equal(caches[first:], ref[first:])

    golden: list[np.ndarray] = []
    forward(block_inputs=golden)
    for first in range(engine.config.n_blocks):
        assert_resumes_at(first)
        site = sample_site(
            engine, FaultModel.MEM_2BIT, rng,
            layer_filter=lambda name: name.startswith(f"blocks.{first}."),
        )
        with inject(engine, site):
            assert_resumes_at(first)


_logit_values = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 1.5, -2.25, 3.0e38]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_logit_values, min_size=1, max_size=12))
def test_property_pick_is_nanargmax(values):
    """``pick`` is ``np.nanargmax`` — first of tied maxima, NaNs skipped,
    infinities ranked — and 0 where that raises (all NaN)."""
    logits = np.asarray(values, dtype=np.float32)
    try:
        expected = int(np.nanargmax(logits))
    except ValueError:
        expected = 0
    assert pick(logits) == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_injection_always_restores(seed):
    """Any sampled fault, any model: post-run state is bit-identical."""
    prop_engine = _prop_engine()
    rng = np.random.default_rng(seed)
    fault_model = (FaultModel.MEM_2BIT, FaultModel.COMP_1BIT)[seed % 2]
    site = sample_site(prop_engine, fault_model, rng, max_iterations=4)
    pristine = {
        name: prop_engine.weight_store(name).array.copy()
        for name in ("blocks.0.q_proj", "blocks.1.down_proj", site.layer_name)
    }
    with inject(prop_engine, site):
        greedy_decode(prop_engine, [4, 9, 2, 17], GenerationConfig(
            max_new_tokens=4, eos_id=2,
        ))
    for name, expected in pristine.items():
        np.testing.assert_array_equal(
            prop_engine.weight_store(name).array, expected
        )
    assert len(prop_engine.hooks) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_site_addresses_valid(seed):
    """Sampled sites always address real storage."""
    prop_engine = _prop_engine()
    rng = np.random.default_rng(seed)
    for fault_model in FaultModel.all():
        site = sample_site(prop_engine, fault_model, rng, max_iterations=8)
        store = prop_engine.weight_store(site.layer_name)
        assert 0 <= site.row < store.shape[0]
        assert 0 <= site.col < store.shape[1]
        assert 0.0 <= site.row_frac < 1.0
        assert all(0 <= b for b in site.bits)


@settings(max_examples=20, deadline=None)
@given(_prompts, st.integers(min_value=1, max_value=3))
def test_property_greedy_prefix_stability(prompt, n_tokens):
    """Greedy decoding of k tokens is a prefix of decoding k+1 tokens."""
    config = ModelConfig(
        vocab_size=VOCAB, d_model=32, n_heads=4, n_blocks=2, d_ff=48, max_seq=64
    )
    engine = InferenceEngine(TransformerLM(config, seed=13).to_store())
    short = greedy_decode(
        engine, prompt, GenerationConfig(max_new_tokens=n_tokens, eos_id=2)
    )
    longer = greedy_decode(
        engine, prompt, GenerationConfig(max_new_tokens=n_tokens + 1, eos_id=2)
    )
    assert longer[: len(short)] == short


@settings(max_examples=25, deadline=None)
@given(_prompts, st.integers(min_value=0, max_value=VOCAB - 1), st.data())
def test_property_golden_rewind_equals_fresh_steps(prompt, eos, data):
    """The state a golden run restores at ``j`` is, byte for byte, the
    state of a fresh session stepped ``j`` times — whatever an earlier
    trial left in the caches it is rewound into."""
    engine = _prop_engine()
    run = GoldenRun.decode(
        engine, prompt, GenerationConfig(max_new_tokens=6, eos_id=eos)
    )
    states = st.integers(min_value=0, max_value=len(run.logits) - 1)
    # An earlier trial: resumed somewhere, decoded something else.
    caches = engine.new_caches()
    dirty = run.rewind(engine, data.draw(states), caches)
    for token in data.draw(st.lists(st.integers(0, VOCAB - 1), max_size=4)):
        dirty.step(token)
    j = data.draw(states)
    restored = run.rewind(engine, j, caches)
    fresh = engine.start_session(prompt)
    for token in run.ids[:j]:
        fresh.step(token)
    for cache, ref in zip(restored.caches, fresh.caches, strict=True):
        assert cache.length == ref.length
        assert cache.keys().tobytes() == ref.keys().tobytes()
        assert cache.values().tobytes() == ref.values().tobytes()
    assert restored.last_logits.tobytes() == fresh.last_logits.tobytes()
    assert (restored.position, restored.iteration) == (len(prompt) + j, j)
    assert (fresh.position, fresh.iteration) == (len(prompt) + j, j)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=1000),
    st.sampled_from(["fp16", "bf16", "int8", "int4"]),
)
def test_property_storage_policies_preserve_argmax_mostly(seed, policy):
    """Lossy storage perturbs logits but keeps them finite and sane."""
    config = ModelConfig(
        vocab_size=VOCAB, d_model=32, n_heads=4, n_blocks=2, d_ff=48, max_seq=64
    )
    store = TransformerLM(config, seed=13).to_store()
    engine = InferenceEngine(store, weight_policy=policy)
    rng = np.random.default_rng(seed)
    prompt = rng.integers(5, VOCAB, size=6).tolist()
    logits = engine.forward_full(prompt)
    assert np.isfinite(logits).all()
    assert logits.shape == (6, VOCAB)


# ----------------------------------------------------------------------------
# KV-cache machinery invariants (the substrate under batching/prefill
# caching — a silent violation here corrupts campaigns undetectably).
# ----------------------------------------------------------------------------

_kv_ops = st.lists(
    st.tuples(
        st.sampled_from(["append", "truncate", "snapshot", "restore"]),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=24,
)


@settings(max_examples=40, deadline=None)
@given(_kv_ops, st.integers(min_value=0, max_value=2**31 - 1))
def test_property_kvcache_tracks_reference_model(ops, seed):
    """Any append/truncate/snapshot/restore interleaving matches a
    trivially correct concatenate-everything reference model."""
    rng = np.random.default_rng(seed)
    cache = KVCache(2, 16, 4)
    ref_k = np.zeros((2, 0, 4), dtype=np.float32)
    ref_v = np.zeros((2, 0, 4), dtype=np.float32)
    snap = snap_ref = None
    for op, arg in ops:
        if op == "append":
            t = arg % 4 + 1
            if cache.length + t > cache.max_seq:
                continue
            k = rng.normal(size=(2, t, 4)).astype(np.float32)
            v = rng.normal(size=(2, t, 4)).astype(np.float32)
            cache.append(k, v)
            ref_k = np.concatenate([ref_k, k], axis=1)
            ref_v = np.concatenate([ref_v, v], axis=1)
        elif op == "truncate":
            length = min(arg, cache.length)
            cache.truncate(length)
            ref_k, ref_v = ref_k[:, :length], ref_v[:, :length]
        elif op == "snapshot":
            snap = cache.snapshot()
            snap_ref = (ref_k.copy(), ref_v.copy())
        elif op == "restore" and snap is not None:
            cache.restore(snap)
            ref_k, ref_v = snap_ref[0].copy(), snap_ref[1].copy()
        assert cache.length == ref_k.shape[1]
        np.testing.assert_array_equal(cache.keys(), ref_k)
        np.testing.assert_array_equal(cache.values(), ref_v)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5),  # chunk size (gamma+1)
            st.integers(min_value=0, max_value=5),  # accepted proposals
        ),
        min_size=1,
        max_size=10,
    ),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_speculative_rollback_roundtrip(rounds, seed):
    """Multi-token append -> truncate -> re-append, the exact sequence
    speculative verification performs each round: the accepted prefix
    is byte-stable across any number of rounds, and rolled-back K/V
    never leak into later reads."""
    rng = np.random.default_rng(seed)
    cache = KVCache(2, 64, 4)
    ref_k = np.zeros((2, 0, 4), dtype=np.float32)
    ref_v = np.zeros((2, 0, 4), dtype=np.float32)
    for chunk_t, accepted in rounds:
        accepted = min(accepted, chunk_t - 1)
        if cache.length + chunk_t > cache.max_seq:
            break
        base = cache.length
        k = rng.normal(size=(2, chunk_t, 4)).astype(np.float32)
        v = rng.normal(size=(2, chunk_t, 4)).astype(np.float32)
        cache.append(k, v)  # verify chunk: pending token + proposals
        cache.truncate(base + 1 + accepted)  # reject the tail
        ref_k = np.concatenate([ref_k, k[:, : 1 + accepted]], axis=1)
        ref_v = np.concatenate([ref_v, v[:, : 1 + accepted]], axis=1)
        assert cache.length == ref_k.shape[1]
        np.testing.assert_array_equal(cache.keys(), ref_k)
        np.testing.assert_array_equal(cache.values(), ref_v)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=99), max_size=30),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_pool_conservation_and_isolation(script, seed):
    """Acquire/release in any order: slot accounting is conserved, a
    fresh slot is always empty, and no held slot's contents are ever
    disturbed by activity in other slots."""
    rng = np.random.default_rng(seed)
    n_slots = 3
    pool = PooledKVCache(
        n_layers=2, n_slots=n_slots, n_heads=2, max_seq=8, head_dim=4
    )
    held: dict[int, np.ndarray] = {}
    for cmd in script:
        if cmd % 2 == 0 and pool.n_free:
            slot = pool.acquire()
            assert slot not in held, "acquired a slot that is still held"
            views = pool.caches(slot)
            assert all(v.length == 0 for v in views)
            marker = rng.normal(size=(2, cmd % 4 + 1, 4)).astype(np.float32)
            for view in views:
                view.append(marker, -marker)
            held[slot] = marker
        elif cmd % 2 == 1 and held:
            slot = sorted(held)[cmd % len(held)]
            pool.release(slot)
            del held[slot]
        assert pool.n_free + len(held) == n_slots
        for slot, marker in held.items():
            for view in pool.caches(slot):
                np.testing.assert_array_equal(view.keys(), marker)
                np.testing.assert_array_equal(view.values(), -marker)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=6),
)
def test_property_pool_copy_slot_is_independent(seed, length):
    """``copy_slot`` duplicates exactly the filled prefix and leaves the
    two slots free of aliasing afterwards."""
    rng = np.random.default_rng(seed)
    pool = PooledKVCache(
        n_layers=2, n_slots=2, n_heads=2, max_seq=8, head_dim=4
    )
    src, dst = pool.acquire(), pool.acquire()
    payload = rng.normal(size=(2, length, 4)).astype(np.float32)
    for view in pool.caches(src):
        view.append(payload, -payload)
    pool.copy_slot(src, dst)
    for a, b in zip(pool.caches(src), pool.caches(dst)):
        assert b.length == a.length == length
        np.testing.assert_array_equal(b.keys(), a.keys())
        assert not np.shares_memory(a.k, b.k)
    # Diverge the copy: the source must not move.
    extra = rng.normal(size=(2, 1, 4)).astype(np.float32)
    for view in pool.caches(dst):
        view.append(extra, extra)
    for view in pool.caches(src):
        assert view.length == length
        np.testing.assert_array_equal(view.keys(), payload)


class TestFaultModelCoverage:
    """Statistical sanity of the uniform site sampler."""

    def test_bits_cover_full_width(self, prop_engine):
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(600):
            site = sample_site(prop_engine, FaultModel.MEM_2BIT, rng)
            seen.update(site.bits)
        assert seen == set(range(32))  # fp32 storage: all 32 positions

    def test_layer_types_roughly_uniform(self, prop_engine):
        from collections import Counter

        rng = np.random.default_rng(1)
        counts = Counter(
            sample_site(prop_engine, FaultModel.MEM_2BIT, rng).layer_type
            for _ in range(1400)
        )
        assert len(counts) == 7
        expected = 1400 / 7
        for layer, count in counts.items():
            assert 0.5 * expected < count < 1.6 * expected, (layer, count)

    def test_iterations_roughly_uniform(self, prop_engine):
        from collections import Counter

        rng = np.random.default_rng(2)
        counts = Counter(
            sample_site(
                prop_engine, FaultModel.COMP_2BIT, rng, max_iterations=4
            ).iteration
            for _ in range(800)
        )
        assert set(counts) == {0, 1, 2, 3}
        for count in counts.values():
            assert 120 < count < 280
