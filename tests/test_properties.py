"""Cross-module property tests on the inference substrate's invariants."""

import contextlib
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autograd.functional import softmax_np
from repro.fi import FaultModel, FaultSite, inject, sample_site
from repro.fi.golden import (
    GoldenOptions,
    GoldenRun,
    mask_bounds,
    score_option_rows,
    shares_row,
    weights_digest,
)
from repro.fi.injector import (
    AccumulatorFaultInjector,
    KVFaultInjector,
    MemoryFaultInjector,
)
from repro.generation import (
    GenerationConfig,
    greedy_decode,
    score_continuation,
    score_options,
)
from repro.generation.round import Admission, DecodeRound, decode_plan, pick
from repro.inference import InferenceEngine, KVCache, Recorder, make_weight_store
from repro.inference.engine import select_experts
from repro.inference.kvcache import PooledKVCache
from repro.model import ModelConfig, TransformerLM
from repro.numerics.formats import flip_value_bits
from repro.zoo.registry import ZOO
from tests.test_engine import append, assert_caches_equal, feed, kv_cache

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


_ROW_EXACT_ENGINES: dict[tuple[bool, int, str], InferenceEngine] = {}


def _row_exact_engine(
    moe: bool, n_blocks: int = 2, policy: str = "fp32"
) -> InferenceEngine:
    if (moe, n_blocks, policy) not in _ROW_EXACT_ENGINES:
        extra = dict(d_ff=32, n_experts=4, top_k=2) if moe else dict(d_ff=48)
        config = ModelConfig(
            vocab_size=VOCAB, d_model=32, n_heads=4, n_blocks=n_blocks,
            max_seq=64, **extra,
        )
        _ROW_EXACT_ENGINES[moe, n_blocks, policy] = InferenceEngine(
            TransformerLM(config, seed=17).to_store(), weight_policy=policy
        )
    return _ROW_EXACT_ENGINES[moe, n_blocks, policy]


def _entries(inputs: list[np.ndarray], blocks, batch: int) -> list:
    """Per-row entries into the forward ``inputs`` came from: row ``i``
    at ``blocks[i]``, from that forward's state entering it."""
    return [
        (int(b), inputs[b].reshape(batch, -1, inputs[b].shape[-1])[i])
        for i, b in enumerate(blocks)
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.booleans(),
    st.lists(_prompts, min_size=1, max_size=8),
    st.sampled_from(["step", "chunk-1", "chunk-3", "prefill"]),
    st.sampled_from(["none", "pinned", "unpinned"]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_batched_rows_are_bit_identical_to_serial(
    moe, prompts, shape, acc, seed
):
    """Row-exact batching: at any width, over ragged positions and on
    both batched entries — single steps, chunks, whole prompts — every
    row's logits and appended K/V are ``array_equal`` to the serial
    forward of that row alone, dense and MoE.  So under an accumulator
    fault in any linear: pinned to a row (``batch_row``), that row is
    its serial forward under the fault and every other row its clean
    one; unpinned, the struck row is the first whose serial forward, in
    row order, reaches the layer at the fault's iteration.  An observer
    that files each output under its ``batch_row`` reads every row's
    layer outputs and expert selections, ``array_equal`` to a
    ``Recorder`` of that row's serial forward."""
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
    batched = [engine.new_caches() for _ in serial]
    for caches, ref in zip(batched, serial):
        for cache, own in zip(caches, ref):
            cache.restore(own.snapshot())
    positions = [caches[0].length for caches in serial]
    iterations = rng.integers(0, 9, size=len(prompts)).tolist()
    site = struck = None
    if acc != "none":
        layers = engine.linear_layer_names()
        site = FaultSite(
            FaultModel.ACC_2BIT, layers[rng.integers(len(layers))], 0,
            int(rng.integers(1 << 16)),
            bits=tuple(int(b) for b in rng.choice(32, 2, replace=False)),
            iteration=int(rng.choice(iterations)),
            row_frac=float(rng.random()), acc_frac=float(rng.random()),
        )
        if acc == "pinned":
            struck = int(rng.integers(len(prompts)))

    def armed(**kw):
        return (
            contextlib.nullcontext() if site is None
            else AccumulatorFaultInjector(engine, site, **kw)
        )

    with armed() if acc == "unpinned" else contextlib.nullcontext() as shared:
        want, fired, read = [], [], []
        for i, (chunk, caches, position, iteration) in enumerate(
            zip(chunks, serial, positions, iterations)
        ):
            with armed() if i == struck else contextlib.nullcontext() as own:
                with Recorder(engine) as recorder:
                    want.append(engine.forward(chunk, caches, position, iteration))
            fired.append(own is not None and own.fired)
            read.append(recorder)
    rows = [types.SimpleNamespace(layer_outputs={}, expert_selections={})
            for _ in prompts]

    def by_row(output, ctx):
        row = rows[ctx.batch_row]
        row.layer_outputs[ctx.full_name] = output.copy()
        if ctx.layer == "router":
            row.expert_selections[ctx.iteration, ctx.block] = select_experts(
                output, engine.config.top_k
            )

    with armed(batch_row=struck) as injector:
        detach = engine.hooks.observe(engine.linear_layer_names(), by_row)
        if shape == "step":
            got = engine.forward_step_batch(
                [c[0] for c in chunks], batched, positions, iterations
            )[:, None]
        else:
            got = engine.forward_chunk_batch(chunks, batched, positions, iterations)
        detach()
    assert engine.acc_faults == {} and not engine.hooks
    if site is not None:
        assert injector.fired == (shared.fired if shared else any(fired))
    for row, ref in enumerate(want):
        np.testing.assert_array_equal(got[row], ref)
        assert_caches_equal(batched[row], serial[row])
        for field in ("layer_outputs", "expert_selections"):
            own, alone = getattr(rows[row], field), getattr(read[row], field)
            assert own.keys() == alone.keys()
            for key, value in own.items():
                np.testing.assert_array_equal(value, alone[key])


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
    ``forward_chunk_batch`` with every row entering at ``b`` from the
    *fault-free* forward's ``block_inputs[b]`` is ``array_equal`` to the
    whole forward under that condition — logits, and K/V of every block
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
        got, rows = forward(enter=_entries(golden, [first] * batch, batch))
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


@settings(max_examples=60, deadline=None)
@given(
    st.booleans(),
    st.sampled_from(["fp32", "bf16", "int8"]),
    st.sampled_from(["step", "chunk"]),
    st.integers(min_value=1, max_value=16),
    st.data(),
)
def test_property_rows_entering_at_their_own_blocks_are_the_full_forward(
    moe, policy, entry, batch, data
):
    """Rows of one forward enter at blocks of their own, from the state
    a full batched forward of the same rows recorded entering those
    blocks (``block_inputs``), over caches of ragged lengths: the logits
    are that forward's, in the caller's row order, and every row's K/V
    in the blocks at or above its entry are that forward's, bit for bit;
    below its entry its caches keep their length.  Dense and MoE,
    ``fp32`` / ``bf16`` / ``int8``, widths 1-16, single steps and
    chunks."""
    engine = _row_exact_engine(moe, n_blocks=3, policy=policy)
    n_blocks = engine.config.n_blocks
    t = 1 if entry == "step" else data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    lengths = data.draw(st.lists(
        st.integers(0, 12), min_size=batch, max_size=batch
    ))
    prefixes = [rng.integers(0, VOCAB, size=n).tolist() for n in lengths]
    tokens = rng.integers(0, VOCAB, size=(batch, t))
    iterations = rng.integers(1, 9, size=batch).tolist()

    def prefilled() -> list[list[KVCache]]:
        rows = [engine.new_caches() for _ in prefixes]
        for caches, prefix in zip(rows, prefixes):
            if prefix:
                engine.forward(prefix, caches, 0, 0)
        return rows

    def forward(rows, **kw):
        if entry == "step":
            return engine.forward_step_batch(
                tokens[:, 0], rows, lengths, iterations, **kw
            )
        return engine.forward_chunk_batch(tokens, rows, lengths, iterations, **kw)

    inputs: list[np.ndarray] = []
    whole_rows = prefilled()
    whole = forward(whole_rows, block_inputs=inputs)
    blocks = data.draw(st.lists(
        st.integers(0, n_blocks - 1), min_size=batch, max_size=batch
    ))
    enter = [
        None if b == 0 and data.draw(st.booleans()) else own
        for b, own in zip(blocks, _entries(inputs, blocks, batch))
    ]
    rows = prefilled()
    np.testing.assert_array_equal(forward(rows, enter=enter), whole)
    for caches, ref, b, n in zip(rows, whole_rows, blocks, lengths):
        assert_caches_equal(caches[b:], ref[b:])
        assert [cache.length for cache in caches[:b]] == [n] * b


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["step", "chunk"]),
    st.integers(min_value=1, max_value=7),
    st.data(),
)
def test_property_one_forward_writes_every_row_into_its_own_slot(
    entry, batch, data
):
    """The K/V write of one forward whose rows live in different arenas:
    a three-slot pool, a two-slot pool of shorter slots (other strides)
    and fresh one-slot ``new_caches()`` pools, at ragged lengths, some
    rows entering above block 0.  Every row's logits and K/V are those
    of its own forward alone, bit for bit, and no other byte of any
    arena moves — not a free slot's, not a sibling's, not a row's own
    positions outside the ones it wrote, nor its blocks below its
    entry — so a write into the wrong arena, slot or offset shows.

    The grouping leg draws every length from two values, so rows of
    one length sit both adjacent and apart, in one pool and across
    arenas (the attention core's groups, ``_Plan._runs``), and may arm
    a KV fault on a row whose caches were empty: its group reads the
    struck cache, not the forward's own keys."""
    engine = _row_exact_engine(False, n_blocks=3)
    cfg = engine.config
    t = 1 if entry == "step" else data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))

    def draw(values):
        return data.draw(st.lists(values, min_size=batch, max_size=batch))

    leg = data.draw(st.sampled_from(["drawn", "grouped", "grouped, kv"]))
    values = st.integers(0, 10)
    if leg != "drawn":
        first = 0 if leg == "grouped, kv" else data.draw(values)
        values = st.sampled_from([first, data.draw(values)])
    lengths = draw(values)
    struck, site = None, None
    if leg == "grouped, kv":
        struck = data.draw(st.integers(0, batch - 1))
        lengths[struck] = 0
        site = FaultSite(
            FaultModel.KV_2BIT,
            f"blocks.{data.draw(st.integers(0, cfg.n_blocks - 1))}.kv",
            data.draw(st.integers(0, cfg.n_heads - 1)),
            data.draw(st.integers(0, cfg.head_dim - 1)),
            bits=(30, 22),
            iteration=0,
            row_frac=data.draw(st.floats(0, 0.99)),
            plane=data.draw(st.sampled_from(["k", "v"])),
        )

    def fault(row):
        """The KV fault keyed to ``row``, armed for one forward."""
        if site is None or row != struck:
            return contextlib.nullcontext()
        return KVFaultInjector(engine, site, batch_row=row)

    homes = draw(st.sampled_from(["wide", "short", "own"]))
    blocks = draw(st.integers(0, cfg.n_blocks - 1))
    prefixes = [rng.integers(0, VOCAB, size=n).tolist() for n in lengths]
    tokens = rng.integers(0, VOCAB, size=(batch, t))
    iterations = rng.integers(1, 9, size=batch).tolist()

    def forward(toks, rows, lens, its, **kw):
        if entry == "step":
            return engine.forward_step_batch(toks[:, 0], rows, lens, its, **kw)
        return engine.forward_chunk_batch(toks, rows, lens, its, **kw)

    def noisy(views):
        for view in views:
            view.k[...] = rng.normal(size=view.k.shape)
            view.v[...] = rng.normal(size=view.v.shape)
        return views

    solo, solo_rows, enter = [], [], []
    for i, prefix in enumerate(prefixes):
        caches = engine.new_caches()
        if prefix:
            engine.forward(prefix, caches, 0, 0)
        inputs: list[np.ndarray] = []
        with fault(i):
            solo.append(forward(
                tokens[i : i + 1], [caches], lengths[i : i + 1],
                iterations[i : i + 1], row_ids=[i], block_inputs=inputs,
            )[0])
        solo_rows.append(caches)
        enter.append(None if blocks[i] == 0 else (blocks[i], inputs[blocks[i]]))

    pools = {
        "wide": engine.new_pool(3),
        "short": PooledKVCache(cfg.n_blocks, 2, cfg.n_heads, 24, cfg.head_dim),
    }
    views = [
        view for pool in pools.values()
        for slot in range(pool.n_slots) for view in noisy(pool.caches(slot))
    ]
    rows = []
    for home, prefix in zip(homes, prefixes):
        pool = pools.get(home)
        if pool is not None and pool.n_free:
            caches = pool.caches(pool.acquire())
        else:
            caches = noisy(engine.new_caches())
            views += caches
        if prefix:
            engine.forward(prefix, caches, 0, 0)
        rows.append(caches)
    before = [(view, view.k.copy(), view.v.copy(), view.length) for view in views]

    with fault(struck):
        got = forward(tokens, rows, lengths, iterations, enter=enter)
    written = {}
    for i, (caches, b, n) in enumerate(zip(rows, blocks, lengths)):
        np.testing.assert_array_equal(got[i], solo[i])
        assert_caches_equal(caches[b:], solo_rows[i][b:])
        assert [cache.length for cache in caches[:b]] == [n] * b
        written.update({id(cache): range(n, n + t) for cache in caches[b:]})
    for view, k, v, length in before:
        keep = np.ones(view.max_seq, dtype=bool)
        keep[written.get(id(view), range(0))] = False
        for now, then in ((view.k, k), (view.v, v)):
            assert np.array_equal(
                now[:, keep].view(np.uint32), then[:, keep].view(np.uint32)
            )
        if id(view) not in written:
            assert view.length == length


_PLAN_STORES: list = []
"""The weights every engine of the plan property is built from."""


def _noisy(views: list[KVCache], rng) -> list[KVCache]:
    """Fill every byte of ``views``' slots with ``rng``'s noise."""
    for view in views:
        view.k[...] = rng.normal(size=view.k.shape)
        view.v[...] = rng.normal(size=view.v.shape)
    return views


@settings(max_examples=30, deadline=None)
@given(st.permutations(["hook", "acc", "row_weight", "recorder"]), st.data())
def test_property_every_forward_plans_afresh(surfaces, data):
    """One engine runs forwards back to back — the 1-D, step and chunk
    entries, widths 1-4, t 1-3, rows in a shared pool, in a pool of
    shorter slots or in their own ``new_caches()`` (or no caches), at
    ragged prefixes, some entering above block 0 — and arms one fault
    surface for every other forward, disarming it after: a hook, an
    accumulator fault, a row-keyed weight copy, a recorder.  Each
    forward's logits, K/V and recorded layer outputs equal a fresh
    engine's one forward under the same armed state, over caches whose
    unwritten bytes hold other noise: nothing one forward planned —
    whether anything is armed, which rows write where — reaches the
    next, and a write at the wrong offset, or into a block below a
    row's entry, shows."""
    cfg = _row_exact_engine(False, n_blocks=3).config
    if not _PLAN_STORES:
        _PLAN_STORES.append(TransformerLM(cfg, seed=17).to_store())
    params = _PLAN_STORES[0]
    noise = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    engine = InferenceEngine(params)
    wide = engine.new_pool(4)
    short = PooledKVCache(cfg.n_blocks, 2, cfg.n_heads, 16, cfg.head_dim)
    for pool in (wide, short):
        for slot in range(pool.n_slots):
            _noisy(pool.caches(slot), noise)

    def draw(values, n):
        return data.draw(st.lists(values, min_size=n, max_size=n))

    def case(surface):
        """One forward's shape and armed state, drawn."""
        entry = data.draw(st.sampled_from(
            ["step", "chunk"] if surface == "row_weight"
            else ["serial", "step", "chunk"]
        ))
        batch = 1 if entry == "serial" else data.draw(st.integers(1, 4))
        t = 1 if entry == "step" else data.draw(st.integers(1, 3))
        cacheless = entry != "step" and data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        lengths = [0] * batch if cacheless else draw(st.integers(0, 8), batch)
        blocks = [0] * batch
        if entry != "serial":
            blocks = draw(st.integers(0, cfg.n_blocks - 1), batch)
        layer = data.draw(st.sampled_from(engine.linear_layer_names()))
        return dict(
            entry=entry, batch=batch, t=t, cacheless=cacheless, lengths=lengths,
            homes=draw(st.sampled_from(["wide", "short", "own"]), batch),
            tokens=rng.integers(0, VOCAB, size=(batch, t)),
            iterations=rng.integers(0, 3, size=batch).tolist(),
            enter=[
                None if b == 0 else
                (b, rng.normal(size=(t, cfg.d_model)).astype(np.float32))
                for b in blocks
            ],
            prefixes=[
                [(rng.normal(size=(cfg.n_heads, n, cfg.head_dim)),
                  rng.normal(size=(cfg.n_heads, n, cfg.head_dim)))
                 for _ in range(cfg.n_blocks)]
                for n in lengths
            ],
            surface=surface, layer=layer,
            col=int(rng.integers(engine.weight_store(layer).shape[1])),
            row=int(rng.integers(engine.weight_store(layer).shape[0])),
            struck=int(rng.integers(batch)),
            iteration=int(rng.integers(0, 3)),
        )

    def armed(eng, c) -> tuple[contextlib.ExitStack, Recorder | None]:
        """Arm ``c``'s surface on ``eng``; closing the stack disarms it.
        The recorder, when that is the surface."""
        stack, surface, recorder = contextlib.ExitStack(), c["surface"], None
        if surface == "hook":
            def hook(out, ctx):
                out[:, c["col"]] += np.float32(0.5)

            stack.callback(eng.hooks.register(c["layer"], hook, row_scoped=True))
        elif surface == "acc":
            stack.enter_context(AccumulatorFaultInjector(eng, FaultSite(
                FaultModel.ACC_2BIT, c["layer"], 0, c["col"], bits=(30, 22),
                iteration=c["iteration"], row_frac=0.5, acc_frac=0.5,
            )))
        elif surface == "row_weight":
            stack.enter_context(MemoryFaultInjector(eng, FaultSite(
                FaultModel.MEM_2BIT, c["layer"], c["row"], c["col"], bits=(30, 22),
            ), rows=(c["struck"],)))
        elif surface == "recorder":
            recorder = stack.enter_context(Recorder(eng))
        return stack, recorder

    def run(eng, c, pools, fresh):
        """``c``'s forward on ``eng``: its logits, every row's per-block
        (length, keys, values) and what a recorder read."""
        held, rows = [], None
        if not c["cacheless"]:
            rows = []
            for home, prefix in zip(c["homes"], c["prefixes"]):
                pool = pools.get(home)
                if pool is not None and pool.n_free:
                    slot = pool.acquire()
                    held.append((pool, slot))
                    caches = pool.caches(slot)
                else:
                    caches = _noisy(eng.new_caches(), fresh)
                for cache, (k, v) in zip(caches, prefix):
                    cache.restore((k, v, k.shape[1]))
                rows.append(caches)
        tokens, lengths, its = c["tokens"], c["lengths"], c["iterations"]
        stack, recorder = armed(eng, c)
        with stack:
            if c["entry"] == "serial":
                logits = eng.forward(
                    tokens[0], None if rows is None else rows[0], lengths[0], its[0]
                )
            elif c["entry"] == "step":
                logits = eng.forward_step_batch(
                    tokens[:, 0], rows, lengths, its, enter=c["enter"]
                )
            else:
                logits = eng.forward_chunk_batch(
                    tokens, rows, lengths, its, enter=c["enter"]
                )
        kv = [
            [(cache.length, cache.keys().copy(), cache.values().copy()) for cache in own]
            for own in rows or ()
        ]
        for pool, slot in held:
            pool.release(slot)
        return logits, kv, recorder and recorder.layer_outputs

    for surface in [s for armed_one in surfaces for s in (None, armed_one)]:
        c = case(surface)
        got = run(engine, c, {"wide": wide, "short": short}, noise)
        other = np.random.default_rng(noise.integers(2**31))
        reference = InferenceEngine(params)
        pools = {
            "wide": reference.new_pool(4),
            "short": PooledKVCache(cfg.n_blocks, 2, cfg.n_heads, 16, cfg.head_dim),
        }
        for pool in pools.values():
            for slot in range(pool.n_slots):
                _noisy(pool.caches(slot), other)
        want = run(reference, c, pools, other)
        assert engine.hooks.all_row_scoped() and not engine.hooks
        assert not (engine.acc_faults or engine.row_weights)
        np.testing.assert_array_equal(got[0], want[0])
        assert len(got[1]) == len(want[1])
        for own, ref in zip(got[1], want[1]):
            for (n, k, v), (n_ref, k_ref, v_ref) in zip(own, ref):
                assert n == n_ref
                np.testing.assert_array_equal(k, k_ref)
                np.testing.assert_array_equal(v, v_ref)
        assert (got[2] is None) == (want[2] is None)
        if got[2] is not None:
            assert got[2].keys() == want[2].keys()
            for name, out in got[2].items():
                np.testing.assert_array_equal(out, want[2][name])


@settings(max_examples=60, deadline=None)
@given(
    st.booleans(),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=3, max_value=14),
    st.sampled_from(["nothing", "hook", "row_fault"]),
    st.sampled_from(["pool", "none"]),
    st.data(),
)
def test_property_read_window_is_the_full_forward_tail(
    moe, batch, t, last, caches, data
):
    """``read_from=k`` returns the full forward's ``[:, k:]`` rows bit
    for bit — dense (the last block cut to the window) and MoE (left
    whole); with a perturbing hook on a last-block layer (the cut
    declined) or a weight fault in the last block keyed to one row (the
    cut taken); every row entering at every block, and rows entering at
    blocks of their own; over pool slots, whose K/V equal the full
    forward's, and with no caches at all."""
    engine = _row_exact_engine(moe, n_blocks=3)
    n_blocks = engine.config.n_blocks
    k = data.draw(st.integers(1, t - 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    tokens = rng.integers(0, VOCAB, size=(batch, t))
    zeros = [0] * batch
    layer = data.draw(st.sampled_from([
        name for name in engine.linear_layer_names()
        if name.startswith(f"blocks.{n_blocks - 1}.")
    ]))
    struck = data.draw(st.integers(0, batch - 1))
    rows, cols = engine.weight_store(layer).shape
    site = FaultSite(
        FaultModel.MEM_2BIT, layer, int(rng.integers(rows)), int(rng.integers(cols)),
        bits=(30, int(rng.integers(0, 23))),
    )

    def bump(out, ctx):
        # The first position the hook is handed: outside the window in
        # a whole block, inside it in a cut one.
        if ctx.batch_row == struck:
            out[0, 0] += 1.0
            out[-1, 0] += 1.0

    @contextlib.contextmanager
    def armed():
        if last == "hook":
            remove = engine.hooks.register(layer, bump, row_scoped=True)
            try:
                yield
            finally:
                remove()
        elif last == "row_fault":
            with MemoryFaultInjector(engine, site, rows=(struck,)):
                yield
        else:
            yield

    whole_rows = [engine.new_caches() for _ in range(batch)]
    inputs: list[np.ndarray] = []
    with armed():
        whole = engine.forward_chunk_batch(
            tokens, whole_rows, zeros, zeros, block_inputs=inputs
        )
    mixed = data.draw(st.lists(
        st.integers(0, n_blocks - 1), min_size=batch, max_size=batch
    ))
    for blocks in (None, *([b] * batch for b in range(n_blocks)), mixed):
        pool = engine.new_pool(batch) if caches == "pool" else None
        row_caches = None if pool is None else [
            pool.caches(pool.acquire()) for _ in range(batch)
        ]
        enter = None if blocks is None else _entries(inputs, blocks, batch)
        with armed():
            got = engine.forward_chunk_batch(
                tokens, row_caches, zeros, zeros, enter=enter, read_from=k
            )
        np.testing.assert_array_equal(got, whole[:, k:])
        if row_caches is not None:
            for own, ref, b in zip(row_caches, whole_rows, blocks or [0] * batch):
                assert_caches_equal(own[b:], ref[b:])


POLICIES = ("fp32", "fp16", "bf16", "int8", "int4")


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_property_faulted_array_flips_one_stored_element(policy, data):
    """``faulted_array(r, c, bits)`` — the one memory fault, whichever
    leg arms it — against a reference computed here: element ``(r, c)``
    is its stored value with ``bits`` flipped (``flip_value_bits`` in
    the float format; the two's-complement code flipped here, then times
    its group scale), every other element is the compute array's, and
    the store is left as it was."""
    rows, cols = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    store = make_weight_store(rng.normal(0, 0.5, (rows, cols)).astype(np.float32), policy)
    r, c = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
    bits = data.draw(st.lists(
        st.integers(0, store.n_storage_bits - 1), min_size=1, max_size=2, unique=True
    ))
    own = store.array
    planes = {k: v.copy() for k, v in store.planes().items()}
    faulted = store.faulted_array(r, c, bits)
    if policy.startswith("int"):
        q, width = store.quantized, store.n_storage_bits
        code = int(q.codes[r, c]) % (1 << width) ^ sum(1 << b for b in bits)
        code -= (code >> (width - 1)) << width  # sign-extend
        want = np.float32(code) * q.scales[r // q.group_size, c]
    else:
        want = flip_value_bits(own[r, c], bits, policy)
    assert np.float32(want).view(np.uint32) == faulted[r, c].view(np.uint32)
    others = np.ones(own.shape, bool)
    others[r, c] = False
    np.testing.assert_array_equal(faulted[others], own[others])
    assert store.array is own
    for name, plane in store.planes().items():
        np.testing.assert_array_equal(plane, planes[name])


_POLICY_ENGINES: dict[tuple[bool, str], InferenceEngine] = {}


def _policy_engine(moe: bool, policy: str) -> InferenceEngine:
    """``_row_exact_engine``'s weights behind storage policy ``policy``."""
    if (moe, policy) not in _POLICY_ENGINES:
        config = _row_exact_engine(moe).config
        _POLICY_ENGINES[moe, policy] = InferenceEngine(
            TransformerLM(config, seed=17).to_store(), weight_policy=policy
        )
    return _POLICY_ENGINES[moe, policy]


def _row_keyed_case(engine, layer, tokens, struck, rng, entry="chunk"):
    """A weight fault in ``layer`` keyed to row ``struck`` of a
    ``(B, t)`` batch: every row's logits and K/V against the serial
    forward of that row — under the fault swapped in engine-wide for
    the struck row, clean for its siblings."""
    store = engine.weight_store(layer)
    rows, cols = store.shape
    bits = tuple(int(b) for b in rng.choice(store.n_storage_bits, 2, replace=False))
    site = FaultSite(
        FaultModel.MEM_2BIT, layer, int(rng.integers(rows)), int(rng.integers(cols)),
        bits=bits,
    )
    batch, t = tokens.shape
    # A step runs over a clean three-token prefix; a chunk from empty caches.
    prefix = rng.integers(5, VOCAB, size=(batch, 3)) if entry == "step" else None

    def fresh(i):
        caches = engine.new_caches()
        if prefix is not None:
            engine.forward(prefix[i], caches, 0, 0)
        return caches

    start = 0 if prefix is None else 3
    want = []
    for i in range(batch):
        caches = fresh(i)
        with inject(engine, site) if i == struck else contextlib.nullcontext():
            want.append((engine.forward(tokens[i], caches, start, 1), caches))
    rows_caches = [fresh(i) for i in range(batch)]
    before = store.array.copy()
    with MemoryFaultInjector(engine, site, rows=(struck,)):
        assert decode_plan(engine) == ("batched", "row_weight_fault")
        np.testing.assert_array_equal(store.array, before)  # nothing swapped in
        if entry == "step":
            got = engine.forward_step_batch(
                tokens[:, 0], rows_caches, [3] * batch, [1] * batch
            )[:, None]
        else:
            got = engine.forward_chunk_batch(
                tokens, rows_caches, [0] * batch, [1] * batch
            )
    assert engine.row_weights == {}
    for i, (logits, caches) in enumerate(want):
        np.testing.assert_array_equal(got[i], logits)
        assert_caches_equal(rows_caches[i], caches)


@settings(max_examples=60, deadline=None)
@given(
    st.booleans(),
    st.sampled_from(POLICIES),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=9),
    st.sampled_from(["chunk", "step"]),
    st.data(),
)
def test_property_a_row_keyed_weight_fault_is_the_flip_for_its_row(
    moe, policy, batch, t, entry, data
):
    """``MemoryFaultInjector(rows=(r,))``: row ``r`` of a batched forward
    is ``array_equal`` to its serial forward with the fault swapped in
    engine-wide, and every sibling to its clean serial forward — logits
    and K/V, dense and MoE (router and expert linears included), every
    storage policy, any width, chunks from empty caches (the stacked
    attention) and single steps over a prefix."""
    engine = _policy_engine(moe, policy)
    layer = data.draw(st.sampled_from(engine.linear_layer_names()))
    struck = data.draw(st.integers(0, batch - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    tokens = rng.integers(5, VOCAB, size=(batch, 1 if entry == "step" else t))
    _row_keyed_case(engine, layer, tokens, struck, rng, entry)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("moe", [False, True], ids=["dense", "moe"])
def test_every_faultable_linear_takes_a_row_keyed_fault(moe, policy):
    """The property above on every faultable linear of both engines, at
    one width: no layer's product escapes the row key."""
    engine = _policy_engine(moe, policy)
    rng = np.random.default_rng(3)
    for layer in engine.linear_layer_names():
        tokens = rng.integers(5, VOCAB, size=(3, 6))
        _row_keyed_case(engine, layer, tokens, int(rng.integers(3)), rng)


_ZOO_SHAPES = sorted({(spec.d_model, spec.n_heads) for spec in ZOO.values()})
"""Every zoo spec's ``(d_model, n_heads)``."""

_QKV_ENGINES: dict[tuple[int, int, str], InferenceEngine] = {}


def _qkv_engine(d_model: int, heads: int, policy: str) -> InferenceEngine:
    """A one-block engine of a zoo width behind storage policy ``policy``."""
    if (d_model, heads, policy) not in _QKV_ENGINES:
        config = ModelConfig(
            vocab_size=VOCAB, d_model=d_model, n_heads=heads, n_blocks=1, d_ff=16,
            max_seq=64,
        )
        _QKV_ENGINES[d_model, heads, policy] = InferenceEngine(
            TransformerLM(config, seed=5).to_store(), weight_policy=policy
        )
    return _QKV_ENGINES[d_model, heads, policy]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(POLICIES),
    st.sampled_from(_ZOO_SHAPES),
    st.sampled_from(["serial", "stacked", "lone"]),
    st.integers(min_value=1, max_value=64),
    st.sampled_from(["swap", "row_weight", "hook", "acc"]),
    st.sampled_from([(0, 3), (0, 1), (1, 3)]),
    st.data(),
)
def test_property_the_shared_qkv_product_is_each_members_product(
    policy, shape, form, t, surface, members, data
):
    """A block's one q/k/v product (``InferenceEngine._qkv``, all three
    members, or q alone and k with v, as a read window runs them): each
    member's columns are, bit for bit (``uint32`` views), that member's
    own product ``x @ W`` — one GEMM per sequence, computed here — with
    one member's surface alone applied to it: a faulted compute array
    swapped in with ``store.swap`` alone (``weight_fault_depth`` stays
    0, nothing is armed), a weight copy keyed to one row, a hook that
    returns a new array, or an accumulator strike.  Every storage
    policy and zoo width, t 1-64, widths 1-16 on the stacked form, the
    serial (no row ids) and lone-sequence forms, inputs with inf, NaN
    and denormals."""
    engine = _qkv_engine(*shape, policy)
    layers, d = engine._table[0], engine.config.d_model
    first, stop = members
    member = data.draw(st.integers(first, stop - 1))
    batch = data.draw(st.integers(2, 16)) if form == "stacked" else 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    x = rng.normal(0, 1, (batch * t, d)).astype(np.float32)
    if data.draw(st.booleans()):
        specials = np.array([np.inf, -np.inf, np.nan, 1e-41, -3e-39], np.float32)
        x.flat[rng.integers(x.size, size=3)] = rng.choice(specials, size=3)
    ids = rng.permutation(100)[:batch]
    rows = None if form == "serial" else np.repeat(ids, t)
    its = rng.integers(0, 3, size=batch)
    iteration = int(its[0]) if rows is None else np.repeat(its, t)
    struck = int(rng.integers(batch))
    layer = layers.attn[member]
    store = layer.store
    r, c = (int(v) for v in rng.integers(d, size=2))
    bits = [int(b) for b in rng.choice(store.n_storage_bits, 2, replace=False)]
    faulted = store.faulted_array(r, c, bits)
    site = FaultSite(
        FaultModel.ACC_2BIT, layer.full, 0, int(rng.integers(d)), bits=(14, 9),
        iteration=int(its[struck]), row_frac=float(rng.random()),
        acc_frac=float(rng.random()),
    )
    pinned = None if rows is None or data.draw(st.booleans()) else int(ids[struck])

    def hook(out, ctx):
        return np.flip(out, axis=1) * np.float32(2)

    runs = [(0, len(x))] if rows is None else [(s, s + t) for s in range(0, len(x), t)]

    def reference(j: int) -> np.ndarray:
        own = layers.attn[j]
        w = faulted if j == member and surface == "swap" else own.pristine
        out = np.concatenate([x[s:e] @ w for s, e in runs])
        if j != member:
            return out
        if surface == "row_weight" and rows is not None:
            s, e = runs[struck]
            out[s:e] = x[s:e] @ faulted
        elif surface == "hook":
            for s, e in runs:
                out[s:e] = hook(out[s:e], None)
        elif surface == "acc":
            AccumulatorFaultInjector(engine, site, pinned).maybe_strike(
                out, x, w, own.full, iteration, rows
            )
        return out

    with contextlib.ExitStack() as armed:
        # inf and NaN inputs: the forward runs under this errstate too.
        armed.enter_context(np.errstate(over="ignore", invalid="ignore"))
        want = {j: reference(j) for j in range(first, stop)}
        if surface == "swap":
            armed.callback(store.swap, store.swap(faulted))
        elif surface == "row_weight":
            engine.row_weights[layer.full] = {int(ids[struck]): faulted}
            armed.callback(engine.row_weights.clear)
        elif surface == "hook":
            armed.callback(engine.hooks.register(layer.full, hook, row_scoped=True))
        else:
            armed.enter_context(AccumulatorFaultInjector(engine, site, pinned))
        on = bool(engine.hooks or engine.acc_faults or engine.row_weights)
        assert on == (surface != "swap") and engine.weight_fault_depth == 0
        got = engine._qkv(x, layers, on, iteration, rows, t, first, stop)
    assert store.array is layer.pristine and not engine.hooks and not engine.acc_faults
    assert got.shape == (len(x), (stop - first) * d)
    for j in range(first, stop):
        at = (j - first) * d
        np.testing.assert_array_equal(
            got[:, at : at + d].view(np.uint32), want[j].view(np.uint32),
            err_msg=f"member {j}",
        )


_DEAD_SCORE_ROWS: list[bool] = []
"""Whether each reference core call met a query whose every score was
``-inf`` (a planted dead head)."""


def _per_member_rotated(self, h, layers, plan):
    """The reference q, k and v: three ``_linear`` products, q and k
    rotated apart (the engine's ``_rotated`` runs one shared product and
    one RoPE call)."""
    cfg = self.config
    half, cos, sin = cfg.head_dim // 2, plan.cos, plan.sin
    batch, t = cos.shape[0], cos.shape[2]

    def rot(a: np.ndarray) -> np.ndarray:
        rotated = np.concatenate([-a[..., half:], a[..., :half]], axis=-1)
        return a * cos + rotated * sin

    # (B*t, D) -> (B, heads, t, hd)
    split = (batch, t, cfg.n_heads, cfg.head_dim)
    q, k, v = (
        self._linear(h, layer, plan.armed, plan.iteration, plan.rows, t)
        .reshape(split).swapaxes(1, 2)
        for layer in layers.attn[:3]
    )
    return rot(q), rot(k), v


def _per_row_attention(self, q, k, v, layers, plan):
    """The reference attention core: the per-row loop the one core
    replaced, kept here and nowhere else — each row appends, lets a KV
    fault latch, and runs its own softmax over exactly its own cache.
    Of the forward's plan it reads the rows' caches, ids and iterations;
    its mask, K/V write and lengths are ignored: each row writes by
    slice, and its causal mask is rebuilt from its cache length the way
    the loop's caller built it."""
    cfg = self.config
    hd, block = cfg.head_dim, layers.index
    batch, t = q.shape[0], q.shape[2]
    iteration, rows = plan.iteration, plan.rows
    scale = np.float32(hd**-0.5)
    ctx = np.empty((batch, t, cfg.n_heads, hd), dtype=np.float32)
    for i in range(batch):
        cache = plan.row_caches[i][block]
        p = cache.length
        mask = np.arange(p + t)[None, :] <= (p + np.arange(t))[:, None]
        cache.k[:, p : p + t], cache.v[:, p : p + t] = k[i], v[i]
        cache.length = p + t
        row = None if rows is None else int(rows[i * t])
        for key in dict.fromkeys((row, None)):
            if key in self.kv_faults:
                self.kv_faults[key].on_append(
                    block,
                    cache,
                    iteration if rows is None else int(iteration[i * t]),
                )
        keys, values = cache.keys(), cache.values()
        scores = (q[i] @ keys.swapaxes(-1, -2)) * scale
        if t > 1:
            scores = np.where(mask[None], scores, np.float32(-1e9))
        _DEAD_SCORE_ROWS.append(bool(np.isneginf(scores).all(axis=-1).any()))
        attn = softmax_np(scores, axis=-1)
        ctx[i] = (attn @ values).swapaxes(0, 1)
    return ctx.reshape(batch * t, cfg.d_model)


_planted = st.sampled_from([float("nan"), float("inf"), float("-inf"), 3e38, -3e38])


@settings(max_examples=80, deadline=None)
@given(
    st.booleans(),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["zero", "equal", "ragged"]),
    st.booleans(),
    st.data(),
)
def test_property_stacked_attention_is_the_per_row_loop(
    moe, batch, t, prefixes, armed, data
):
    """The one attention core — one softmax over a padded score block,
    GEMMs and sums per group of equal-length rows — gives ``array_equal`` logits and
    K/V to the per-row loop it replaced (:func:`_per_row_attention`):
    widths 1-8, chunks of 1-4 tokens over prefixes of 0-40 positions
    (all empty, equal, ragged), dense and MoE, with nan, ±inf and 3e38
    planted in q, K and V, a head whose every score is ``-inf``, and a
    KV fault armed."""
    engine = _row_exact_engine(moe)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    if prefixes == "zero":
        lengths = [0] * batch
    elif prefixes == "equal":
        lengths = [data.draw(st.integers(0, 40))] * batch
    else:
        lengths = data.draw(st.lists(st.integers(0, 40), min_size=batch, max_size=batch))
    prompts = [rng.integers(0, VOCAB, size=n).tolist() for n in lengths]
    tokens = rng.integers(0, VOCAB, size=(batch, t))
    cfg = engine.config
    hd = cfg.head_dim
    plants: dict[tuple[str, int], list] = {}
    n_planted = data.draw(st.integers(0, 4))
    for _ in range(n_planted):
        layer = f"blocks.{data.draw(st.integers(0, cfg.n_blocks - 1))}." + data.draw(
            st.sampled_from(["q_proj", "k_proj", "v_proj"])
        )
        plants.setdefault((layer, data.draw(st.integers(0, batch - 1))), []).append(
            (data.draw(st.floats(0, 0.99)), data.draw(st.integers(0, cfg.d_model - 1)),
             data.draw(_planted))
        )
    dead = data.draw(st.none() | st.integers(0, batch - 1))
    if dead is not None:
        # Lowest-frequency RoPE channel of one head: every q·k overflows
        # to -inf, so that head scores -inf on every key of the row.
        col = data.draw(st.integers(0, cfg.n_heads - 1)) * hd + hd // 2 - 1
        block = data.draw(st.integers(0, cfg.n_blocks - 1))
        for name, value in (("q_proj", 3e38), ("k_proj", -3e38)):
            plants.setdefault((f"blocks.{block}.{name}", dead), []).append(
                ("all", col, value)
            )
    site = None
    if armed:
        site = FaultSite(
            FaultModel.KV_2BIT,
            f"blocks.{data.draw(st.integers(0, cfg.n_blocks - 1))}.kv",
            data.draw(st.integers(0, cfg.n_heads - 1)),
            data.draw(st.integers(0, hd - 1)),
            bits=(30, 22),
            iteration=data.draw(st.integers(0, 1)),
            row_frac=data.draw(st.floats(0, 0.99)),
            plane=data.draw(st.sampled_from(["k", "v"])),
        )

    dead_heads = _core_against_the_loop(engine, prompts, tokens, plants, site)
    if dead is not None and not n_planted and site is None:
        # Nothing else planted upstream could turn the dead head's -inf
        # into NaN.
        assert dead_heads


def _core_against_the_loop(engine, prompts, tokens, plants, site=None) -> bool:
    """Prefill each row's ``prompts[i]`` into its own caches, then run
    the ``(B, t)`` chunk ``tokens`` over them, under ``plants`` (values
    written into row ``i``'s output of a layer, ``(layer, i) ->
    [(token fraction or "all", column, value)]``) and, given a ``site``,
    a KV fault: once on the engine's core and once on
    :func:`_per_member_rotated` and :func:`_per_row_attention`.  Asserts ``array_equal`` logits and K/V
    (NaNs compare equal) and the same ``fired``; returns whether the
    reference met a query whose every score was ``-inf``."""
    batch = len(prompts)
    lengths = [len(prompt) for prompt in prompts]

    def plant(out, ctx):
        for frac, col, value in plants.get((ctx.full_name, ctx.batch_row), ()):
            if frac == "all":
                out[:, col] = value
            else:
                out[min(int(frac * len(out)), len(out) - 1), col] = value

    def run():
        caches = [engine.new_caches() for _ in range(batch)]
        removers = [
            engine.hooks.register(layer, plant, row_scoped=True)
            for layer in {layer for layer, _ in plants}
        ]
        injector = (
            KVFaultInjector(engine, site) if site else contextlib.nullcontext()
        )
        try:
            with injector:
                for i, prompt in enumerate(prompts):
                    if prompt:
                        engine.forward_chunk_batch([prompt], [caches[i]], [0], [0], [i])
                logits = engine.forward_chunk_batch(tokens, caches, lengths, [1] * batch)
                # Before the injector's exit puts the struck element back.
                kv = [
                    [(cache.keys().copy(), cache.values().copy()) for cache in own]
                    for own in caches
                ]
        finally:
            for remove in removers:
                remove()
        return logits, kv, site is not None and injector.fired

    got, kv, fired = run()
    _DEAD_SCORE_ROWS.clear()
    engine._rotated = types.MethodType(_per_member_rotated, engine)
    engine._attention = types.MethodType(_per_row_attention, engine)
    try:
        want, kv_want, fired_want = run()
    finally:
        del engine._rotated, engine._attention
    assert fired == fired_want
    np.testing.assert_array_equal(got, want)
    for own, ref in zip(kv, kv_want):
        for (keys, values), (keys_ref, values_ref) in zip(own, ref):
            np.testing.assert_array_equal(keys, keys_ref)
            np.testing.assert_array_equal(values, values_ref)
    return any(_DEAD_SCORE_ROWS)


@pytest.mark.parametrize("lengths", [[0], [5], [3, 3], [0, 7, 2], [9, 1, 40, 4]])
@pytest.mark.parametrize("t", [1, 3])
def test_a_dead_head_is_nan_on_both_cores(lengths, t):
    """A head whose every score is ``-inf`` (q·k overflows on every key)
    yields NaN on the one core as on the loop: the ``-inf`` pad of a
    ragged block cannot lift its max."""
    engine = _row_exact_engine(False)
    rng = np.random.default_rng(len(lengths) * 10 + t)
    prompts = [rng.integers(0, VOCAB, size=n).tolist() for n in lengths]
    tokens = rng.integers(0, VOCAB, size=(len(lengths), t))
    hd = engine.config.head_dim
    dead = len(lengths) - 1
    plants = {
        ("blocks.1.q_proj", dead): [("all", hd + hd // 2 - 1, 3e38)],
        ("blocks.1.k_proj", dead): [("all", hd + hd // 2 - 1, -3e38)],
    }
    assert _core_against_the_loop(engine, prompts, tokens, plants)


_options = st.lists(
    st.lists(st.integers(min_value=5, max_value=VOCAB - 1), min_size=1, max_size=5),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(st.booleans(), _prompts, _options)
def test_property_option_scores_are_the_per_option_reference(moe, prompt, options):
    """Every multiple-choice score vector the repo computes is one
    ``score_continuation`` per option, bit for bit: ``score_options``,
    and a golden option pass — equally long options as rows of one
    forward, ragged lengths as several — dense and MoE."""
    engine = _row_exact_engine(moe)
    reference = [score_continuation(engine, prompt, option) for option in options]
    assert np.array_equal(score_options(engine, prompt, options), reference)
    golden = GoldenOptions.build(engine, prompt, options)
    assert np.array_equal(golden.scores, reference)
    # With the engine's bounds a class runs one row (none on MoE).
    bounds = mask_bounds(engine, weights_digest(engine))
    assert (bounds is None) == moe
    shared = GoldenOptions.build(engine, prompt, options, bounds)
    assert np.array_equal(shared.scores, reference)


_LAYER_TYPES = (
    "q_proj", "k_proj", "v_proj", "out_proj", "gate_proj", "up_proj", "down_proj",
)


@st.composite
def _struck_elements(draw):
    """``(policy, site)``: one element of any dense layer under any
    storage policy, half the time with its top exponent bit flipped
    (the top code bit for integer codes) — the flips that blow a weight
    up — and one other."""
    policy = draw(st.sampled_from(["fp32", "bf16", "fp16", "int8", "int4"]))
    layer = draw(st.sampled_from(_LAYER_TYPES))
    name = f"blocks.{draw(st.integers(0, 1))}.{layer}"
    shape = _row_exact_engine(False, policy=policy).weight_store(name).shape
    width = {"fp32": 32, "bf16": 16, "fp16": 16, "int8": 8, "int4": 4}[policy]
    top = width - 2 if policy in ("fp32", "bf16", "fp16") else width - 1
    first = draw(st.one_of(st.just(top), st.integers(0, width - 1)))
    other = draw(st.integers(0, width - 1).filter(lambda bit: bit != first))
    site = FaultSite(
        FaultModel.MEM_2BIT, name,
        draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1)),
        bits=tuple(sorted((first, other))),
    )
    return policy, site


_QKV_MSB = [
    FaultSite(FaultModel.MEM_2BIT, name, 0, col, (0, 14))
    for name, col in (
        ("blocks.0.q_proj", 5), ("blocks.1.k_proj", 10), ("blocks.1.v_proj", 10),
    )
]
"""Exponent-MSB flips in q, k and v.  Under fp16 they write a few
thousand and the bound admits them; under bf16 (and fp32's bit 30) the
same flip writes about 1e38 and it refuses them."""


def test_the_bound_admits_fp16_exponent_flips_and_refuses_bf16_ones():
    for policy, admitted in (("fp16", True), ("bf16", False)):
        engine = _row_exact_engine(False, policy=policy)
        bounds = mask_bounds(engine, weights_digest(engine))
        for site in _QKV_MSB:
            value = engine.weight_store(site.layer_name).faulted_value(
                site.row, site.col, list(site.bits)
            )
            assert abs(value) > 1e3
            assert shares_row(bounds, site, value) == admitted, (policy, site)


@settings(max_examples=80, deadline=None)
@given(
    _struck_elements(),
    _prompts,
    st.lists(st.integers(min_value=5, max_value=VOCAB - 1), max_size=3),
    st.lists(
        st.integers(min_value=5, max_value=VOCAB - 1),
        min_size=2, max_size=4, unique=True,
    ),
)
@example(("fp16", _QKV_MSB[0]), [9, 12, 30], [], [6, 11, 25])
@example(("fp16", _QKV_MSB[1]), [17, 5], [8], [7, 33])
@example(("fp16", _QKV_MSB[2]), [21], [], [5, 6, 7, 8])
def test_property_a_class_leader_row_is_every_members_row(
    struck, prompt, prefix, lasts
):
    """Options of one length that differ only in their last token: when
    :func:`shares_row` admits the struck element, every position of the
    read window but the last holds the same bits in every member's own
    row as in the leader's — under the fault, keyed to every row, the
    rows entering at the struck block — so a member scored off its
    leader's row scores what it scores alone."""
    policy, site = struck
    engine = _row_exact_engine(False, policy=policy)
    options = [prefix + [last] for last in lasts]
    golden = GoldenOptions.build(engine, prompt, options)
    value = engine.weight_store(site.layer_name).faulted_value(
        site.row, site.col, list(site.bits)
    )
    if not shares_row(mask_bounds(engine, weights_digest(engine)), site, value):
        return
    with MemoryFaultInjector(engine, site, rows=range(len(options))):
        logits, starts = score_option_rows(
            engine, [(golden, i, site.block) for i in range(len(options))]
        )
    assert len(set(starts)) == 1
    window = logits[:, :-1].view(np.uint32)
    for member in window[1:]:
        assert np.array_equal(member, window[0])


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
    """The state a golden run restores at ``j`` into a round's slot — a
    ``restore`` admission: ``fill`` every block, ``logits[j]`` — is, byte
    for byte, the state of a fresh session stepped ``j`` times, whatever
    an earlier trial left in the slot it is restored into."""
    engine = _prop_engine()
    run = GoldenRun.decode_many(
        engine, [prompt], GenerationConfig(max_new_tokens=6, eos_id=eos)
    )[0]
    states = st.integers(min_value=0, max_value=len(run.logits) - 1)
    rnd = DecodeRound(engine, engine.new_pool(1), -1)

    def restored(j):
        def restore(row):
            run.fill(row.caches, j, len(run.snaps))
            return j, run.logits[j]

        return rnd.admit_many([Admission(j, prompt, 8, restore=restore)])[0][0]

    # An earlier trial in the one slot: resumed somewhere, decoded
    # something else.
    dirty = restored(data.draw(states))
    for token in data.draw(st.lists(st.integers(0, VOCAB - 1), max_size=4)):
        position = dirty.caches[-1].length
        engine.forward([token], dirty.caches, start_pos=position, iteration=position)
    rnd.drop(dirty)
    j = data.draw(states)
    row = restored(j)
    fresh = engine.start_session(prompt)
    for token in run.ids[:j]:
        fresh.step(token)
    for cache, ref in zip(row.caches, fresh.caches, strict=True):
        assert cache.length == ref.length
        assert cache.keys().tobytes() == ref.keys().tobytes()
        assert cache.values().tobytes() == ref.values().tobytes()
    assert row.logits[-1].tobytes() == fresh.last_logits.tobytes()
    assert (row.caches[-1].length, row.iter0) == (len(prompt) + j, j)
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
    cache = kv_cache(2, 16, 4)
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
            append(cache, k, v)
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
    cache = kv_cache(2, 64, 4)
    ref_k = np.zeros((2, 0, 4), dtype=np.float32)
    ref_v = np.zeros((2, 0, 4), dtype=np.float32)
    for chunk_t, accepted in rounds:
        accepted = min(accepted, chunk_t - 1)
        if cache.length + chunk_t > cache.max_seq:
            break
        base = cache.length
        k = rng.normal(size=(2, chunk_t, 4)).astype(np.float32)
        v = rng.normal(size=(2, chunk_t, 4)).astype(np.float32)
        append(cache, k, v)  # verify chunk: pending token + proposals
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
                append(view, marker, -marker)
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
        append(view, payload, -payload)
    pool.copy_slot(src, dst)
    for a, b in zip(pool.caches(src), pool.caches(dst)):
        assert b.length == a.length == length
        np.testing.assert_array_equal(b.keys(), a.keys())
        assert not np.shares_memory(a.k, b.k)
    # Diverge the copy: the source must not move.
    extra = rng.normal(size=(2, 1, 4)).astype(np.float32)
    for view in pool.caches(dst):
        append(view, extra, extra)
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
