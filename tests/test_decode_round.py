"""The one decode round and the one decode plan.

* ``decode_plan``'s gate matrix as a single table: every kind of armed
  machinery x {armed on the target, armed on the draft} with the
  expected ``(path, reason)``, and the gate re-opening after disarm.
* the decode / scoring entries and ``FICampaign`` take ``auto`` or the
  reference and nothing else, and ``auto`` evaluates the plan exactly
  once per call and counts the path it then runs.
* ``DecodeRound`` as a thread-free state machine — admit / step /
  drop-row with and without a draft, ragged budgets down to 1 — holding
  slot conservation in both pools after every rule and every retired
  row to the serial ``greedy_decode`` reference.
* the offline driver releases its slots when the engine raises.
* the prompt cache behind ``DecodeRound.admit``: a hit leaves the slot
  and the first logits exactly as a prompt forward does, and the cache
  is neither read nor filled unless ``decode_plan`` finds nothing but
  observers on the engine.
"""

from contextlib import contextmanager, nullcontext
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.fi import (
    AccumulatorFaultInjector,
    ComputationalFaultInjector,
    FaultModel,
    FaultSite,
    FICampaign,
    KVFaultInjector,
    MemoryFaultInjector,
)
from repro.generation import (
    BatchedDecoder,
    DecodeRound,
    GenerationConfig,
    beam_search_decode,
    choose_option,
    decode_plan,
    generate_ids,
    greedy_decode,
    score_options,
)
from repro.inference import InferenceEngine, PromptCache
from repro.inference.engine import CaptureState
from repro.model import ModelConfig, TransformerLM
from repro.obs import telemetry
from repro.obs.instrument import attach_layer_timing
from repro.tasks import TranslationTask, standardized_subset

VOCAB = 64
PROMPTS = [[3, 5, 7], [11, 13, 17, 19, 4], [23, 29], [8, 15, 16, 42], [6], [31, 37]]


@lru_cache(maxsize=None)
def _store(d_model: int, n_blocks: int, seed: int):
    config = ModelConfig(
        vocab_size=VOCAB, d_model=d_model, n_heads=2, n_blocks=n_blocks,
        d_ff=24, max_seq=64,
    )
    return TransformerLM(config, seed=seed).to_store()


def _target() -> InferenceEngine:
    return InferenceEngine(_store(24, 2, 5))


def _draft() -> InferenceEngine:
    return InferenceEngine(_store(16, 1, 23))


# -- decode_plan: the gate matrix ------------------------------------------------


@contextmanager
def _hook(engine, **scope):
    remove = engine.hooks.register("blocks.0.up_proj", lambda out, ctx: None, **scope)
    try:
        yield
    finally:
        remove()


@contextmanager
def _observer(engine):
    detach = attach_layer_timing(engine)
    try:
        yield
    finally:
        detach()


@contextmanager
def _capture(engine):
    engine.capture = CaptureState()
    try:
        yield
    finally:
        engine.capture = None


def _site(model: FaultModel, layer: str = "blocks.0.up_proj") -> FaultSite:
    bits = (30, 22)[: model.n_bits]
    return FaultSite(model, layer, 1, 2, bits=bits, iteration=1, row_frac=0.5)


ARM = {
    "clean": lambda e: nullcontext(),
    "observer_hooks": _observer,
    "row_scoped_hooks": lambda e: ComputationalFaultInjector(
        e, _site(FaultModel.COMP_1BIT)
    ),
    "kv_fault": lambda e: KVFaultInjector(
        e, _site(FaultModel.KV_1BIT, "blocks.0.kv")
    ),
    "acc_fault": lambda e: AccumulatorFaultInjector(
        e, _site(FaultModel.ACC_1BIT)
    ),
    "capture": _capture,
    "weight_fault": lambda e: MemoryFaultInjector(
        e, _site(FaultModel.MEM_2BIT)
    ),
    "unscoped_hooks": _hook,
}

# armed -> (path on the target with a clean draft, path with no draft,
#           path when it is the *draft* that is armed and the target is clean)
GATE_MATRIX = {
    "clean": ("composed", "batched", "composed"),
    "observer_hooks": ("composed", "batched", "composed"),
    "row_scoped_hooks": ("batched", "batched", "batched"),
    "kv_fault": ("batched", "batched", "batched"),
    "acc_fault": ("batched", "batched", "batched"),
    "capture": ("serial", "serial", "batched"),
    "weight_fault": ("serial", "serial", "batched"),
    "unscoped_hooks": ("serial", "serial", "batched"),
}


@pytest.mark.parametrize("armed", GATE_MATRIX)
@pytest.mark.parametrize("side", ("target", "draft"))
def test_gate_matrix(armed, side):
    engine, draft = _target(), _draft()
    with_draft, no_draft, draft_armed = GATE_MATRIX[armed]
    with ARM[armed](engine if side == "target" else draft):
        if side == "target":
            assert decode_plan(engine, draft) == (with_draft, armed)
            assert decode_plan(engine) == (no_draft, armed)
        else:
            # Observers on the draft change nothing; anything else names
            # the draft as the reason and leaves the target's own path.
            reason = "clean" if draft_armed == "composed" else "draft_" + armed
            assert decode_plan(engine, draft) == (draft_armed, reason)
            assert decode_plan(engine) == ("batched", "clean")
    # Disarming re-opens the gate.
    assert decode_plan(engine, draft) == ("composed", "clean")
    assert decode_plan(engine) == ("batched", "clean")


def test_unscoped_hook_outranks_sequence_scoped_faults():
    """A KV fault alone batches; next to an unscoped hook nothing may."""
    engine = _target()
    with ARM["kv_fault"](engine), _hook(engine):
        assert decode_plan(engine, _draft()) == ("serial", "unscoped_hooks")


# -- the entries: two routes, one plan per call ----------------------------------

OPTIONS = [[11, 13], [17], [19, 23, 29]]


def _entries(engine, draft=None):
    """Every public decode / scoring entry as ``call(**strategy_kw)``."""
    greedy = GenerationConfig(max_new_tokens=4, eos_id=-1)
    beam = GenerationConfig(max_new_tokens=4, num_beams=2, eos_id=-1)
    prompt = PROMPTS[0]
    return {
        "greedy_decode": lambda **kw: greedy_decode(
            engine, prompt, greedy, draft=draft, **kw
        ),
        "beam_search_decode": lambda **kw: beam_search_decode(
            engine, prompt, beam, **kw
        ),
        "generate_ids": lambda **kw: generate_ids(
            engine, prompt, greedy, draft=draft, **kw
        ),
        "score_options": lambda **kw: score_options(
            engine, prompt, OPTIONS, **kw
        ),
        "choose_option": lambda **kw: choose_option(
            engine, prompt, OPTIONS, **kw
        ),
    }


ENTRIES = tuple(_entries(None))


@pytest.mark.parametrize("value", ("batched", "speculative", "incremental", "turbo"))
@pytest.mark.parametrize("entry", (*ENTRIES, "FICampaign"))
def test_only_auto_and_the_reference_are_strategies(
    entry, value, tokenizer, world
):
    """Anything else raises at the call — for a campaign, in the
    constructor, not when a run first reaches the decoder."""
    if entry == "FICampaign":
        task = TranslationTask(world)

        def call(strategy):
            FICampaign(
                _target(), tokenizer, task.name, task.metrics,
                standardized_subset(task, 1), FaultModel.COMP_1BIT,
                decode_strategy=strategy,
            )
    else:
        call = _entries(_target(), _draft())[entry]
    with pytest.raises(ValueError, match="strategy"):
        call(strategy=value)


@pytest.fixture()
def plan_calls(monkeypatch):
    """Every ``decode_plan`` evaluation the generation modules make."""
    from repro.generation import batched, decode, speculative

    calls = []

    def counting(engine, draft=None):
        calls.append((engine, draft))
        return decode_plan(engine, draft)

    for module in (decode, batched, speculative):
        monkeypatch.setattr(module, "decode_plan", counting)
    return calls


@pytest.mark.parametrize("armed", ("clean", "row_scoped_hooks", "weight_fault"))
@pytest.mark.parametrize("with_draft", (False, True), ids=("no_draft", "draft"))
@pytest.mark.parametrize("entry", ENTRIES)
def test_auto_plans_once_per_entry(entry, with_draft, armed, plan_calls):
    engine = _target()
    call = _entries(engine, _draft() if with_draft else None)[entry]
    with ARM[armed](engine):
        call()
    assert len(plan_calls) == 1
    del plan_calls[:]
    with ARM[armed](engine):
        call(strategy="full" if "option" in entry else "serial")
    assert plan_calls == []  # the reference asks nothing


def test_single_plan_remembers_the_draft():
    """An armed draft keeps the target on its own batched path, and the
    one counted plan says the draft is why."""
    tel = telemetry()
    tel.reset()
    tel.enable()
    try:
        engine, draft = _target(), _draft()
        with ARM["weight_fault"](draft):
            _entries(engine, draft)["greedy_decode"]()
        counters = tel.metrics.snapshot()["counters"]
    finally:
        tel.reset()
        tel.disable()
    plans = {k: v for k, v in counters.items() if k.startswith("decode.plan.")}
    assert plans == {"decode.plan.batched.draft_weight_fault": 1}


# -- DecodeRound as a state machine ----------------------------------------------


@lru_cache(maxsize=None)
def _eos() -> int:
    """A token some prompts emit early and others never, so both finish
    reasons occur."""
    free = GenerationConfig(max_new_tokens=7, eos_id=-1)
    outs = [greedy_decode(_target(), p, free, strategy="serial") for p in PROMPTS]
    return outs[0][3]


@lru_cache(maxsize=None)
def _serial(prompt: tuple, budget: int) -> list[int]:
    config = GenerationConfig(max_new_tokens=budget, eos_id=_eos())
    return greedy_decode(_target(), list(prompt), config, strategy="serial")


class RoundMachine(RuleBasedStateMachine):
    @initialize(
        with_draft=st.booleans(),
        slots=st.integers(1, 3),
        draft_slots=st.integers(1, 3),
        depth=st.integers(1, 4),
    )
    def build(self, with_draft, slots, draft_slots, depth):
        engine = _target()
        self.pool = engine.new_pool(slots)
        self.draft_pool = None
        draft = None
        if with_draft:
            draft = _draft()
            self.draft_pool = draft.new_pool(draft_slots)
        self.rnd = DecodeRound(
            engine, self.pool, _eos(),
            draft=draft, draft_pool=self.draft_pool,
            depth=depth if with_draft else 0,
        )

    def _retired(self, row, reason):
        serial = _serial(tuple(row.prompt), row.budget)
        assert row.out == serial
        assert reason == ("length" if len(serial) == row.budget else "eos")
        assert row not in self.rnd.rows

    @precondition(lambda self: self.rnd.has_room())
    @rule(prompt=st.sampled_from(PROMPTS), budget=st.integers(1, 7))
    def admit(self, prompt, budget):
        row, tokens, reason = self.rnd.admit(object(), prompt, budget)
        assert tokens == row.out and len(tokens) <= 1
        if reason is None:
            assert self.rnd.rows[-1] is row
        else:
            self._retired(row, reason)

    @precondition(lambda self: self.rnd.rows)
    @rule()
    def step(self):
        live = list(self.rnd.rows)
        before = [len(row.out) for row in live]
        events = self.rnd.step()
        assert [row for row, _, _ in events] == live
        for (row, new, reason), n in zip(events, before):
            assert row.out[n:] == new
            assert new or reason == "eos"
            if reason is None:
                assert row in self.rnd.rows
            else:
                self._retired(row, reason)

    @precondition(lambda self: self.rnd.rows)
    @rule(data=st.data())
    def drop(self, data):
        row = data.draw(st.sampled_from(self.rnd.rows))
        self.rnd.drop(row)
        serial = _serial(tuple(row.prompt), row.budget)
        assert row.out == serial[: len(row.out)]

    @invariant()
    def slots_conserved(self):
        live = len(self.rnd.rows)
        assert live + self.pool.n_free == self.pool.n_slots
        if self.draft_pool is not None:
            assert live + self.draft_pool.n_free == self.draft_pool.n_slots


TestRoundMachine = RoundMachine.TestCase
TestRoundMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_a_pinned_injector_stays_with_its_row_when_a_sibling_retires():
    """``batch_row`` is the row's admission number, not its position: a
    row that retires before its strike iteration leaves ``fired=False``,
    and the sibling that slides into its position and later reaches the
    same layer and iteration decodes untouched."""
    engine = _target()
    config = GenerationConfig(max_new_tokens=6, eos_id=-1)
    rnd = DecodeRound(engine, engine.new_pool(2), config.eos_id)
    short, _, _ = rnd.admit("short", PROMPTS[0], 2)  # gone after iteration 1
    long, _, _ = rnd.admit("long", PROMPTS[1], config.max_new_tokens)
    assert (short.id, long.id) == (0, 1)
    site = FaultSite(
        FaultModel.COMP_2BIT, "blocks.0.up_proj", 1, 2, bits=(30, 22),
        iteration=3, row_frac=0.5,
    )
    with ComputationalFaultInjector(engine, site, batch_row=short.id) as injector:
        while rnd.rows:
            rnd.step()
    assert not injector.fired
    assert long.out == greedy_decode(engine, PROMPTS[1], config, strategy="serial")
    # The same strike pinned to the survivor does land.
    rnd = DecodeRound(engine, engine.new_pool(2), config.eos_id)
    rnd.admit("short", PROMPTS[0], 2)
    long, _, _ = rnd.admit("long", PROMPTS[1], config.max_new_tokens)
    with ComputationalFaultInjector(engine, site, batch_row=long.id) as injector:
        while rnd.rows:
            rnd.step()
    assert injector.fired


# -- the offline driver ----------------------------------------------------------


def test_driver_releases_slots_when_the_engine_raises():
    engine = _target()
    decoder = BatchedDecoder(
        engine, GenerationConfig(max_new_tokens=6, eos_id=-1), max_batch=2
    )
    decoder.decode_many(PROMPTS[:2])  # sizes the pool
    real = engine.forward_step_batch
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("boom")
        return real(*args)

    engine.forward_step_batch = failing
    with pytest.raises(RuntimeError, match="boom"):
        decoder.decode_many(PROMPTS[:3])
    del engine.forward_step_batch
    assert decoder._pool.n_free == decoder._pool.n_slots
    config = GenerationConfig(max_new_tokens=6, eos_id=-1)
    assert decoder.decode_many(PROMPTS[:3]) == [
        greedy_decode(engine, p, config, strategy="serial") for p in PROMPTS[:3]
    ]


# -- the prompt cache ------------------------------------------------------------


@pytest.mark.parametrize("policy", ("fp32", "bf16", "int8"))
@pytest.mark.parametrize("kind", ("dense", "moe"))
def test_a_cache_hit_leaves_the_slot_as_a_prompt_forward_does(
    kind, policy, untrained_store, moe_store
):
    store = moe_store if kind == "moe" else untrained_store
    engine = InferenceEngine(store, weight_policy=policy)
    prompt = PROMPTS[1]
    fresh = engine.new_caches()
    want = engine.forward(prompt, fresh, start_pos=0, iteration=0)[-1:]
    cache = PromptCache(64)
    rnd = DecodeRound(engine, engine.new_pool(2), -1, prompt_cache=cache)
    miss, _, _ = rnd.admit("miss", prompt, 5)
    hit, _, _ = rnd.admit("hit", prompt, 5)
    assert list(cache.entries) == [tuple(prompt)]
    assert cache.tokens == len(prompt)
    assert hit.logits is cache.entries[tuple(prompt)][1]
    for row in (miss, hit):
        assert np.array_equal(row.logits, want)
        for got, ref in zip(row.caches, fresh):
            assert got.length == ref.length == len(prompt)
            assert np.array_equal(got.keys(), ref.keys())
            assert np.array_equal(got.values(), ref.values())
    # Hit rows share the cached array, so it is handed out read-only.
    with pytest.raises(ValueError, match="read-only"):
        hit.logits[0, 0] = 0.0
    while rnd.rows:
        rnd.step()
    config = GenerationConfig(max_new_tokens=5, eos_id=-1)
    assert miss.out == hit.out == greedy_decode(
        engine, prompt, config, strategy="serial"
    )


@pytest.fixture()
def cache_counters():
    """``serve.prompt_cache.*`` counters of the test, by their suffix."""
    tel = telemetry()
    tel.reset()
    tel.enable()

    def read():
        prefix = "serve.prompt_cache."
        return {
            name[len(prefix):]: int(value)
            for name, value in tel.metrics.snapshot()["counters"].items()
            if name.startswith(prefix)
        }

    yield read
    tel.reset()
    tel.disable()


@pytest.mark.parametrize("armed", GATE_MATRIX)
def test_prompt_cache_gate(armed, cache_counters):
    """Whatever ``decode_plan`` does not call ``clean`` or
    ``observer_hooks`` goes around the cache on both sides: a stored
    prompt is not read and a new one is not stored."""
    engine = _target()
    cache = PromptCache(64)
    rnd = DecodeRound(engine, engine.new_pool(4), -1, prompt_cache=cache)
    known, new = PROMPTS[0], PROMPTS[1]
    rnd.admit("warm", known, 1)
    assert cache_counters() == {"misses": 1}
    cached = armed in ("clean", "observer_hooks")
    with ARM[armed](engine):
        rnd.admit("lookup", known, 1)
        rnd.admit("insert", new, 1)
    if cached:
        assert cache_counters() == {"misses": 2, "hits": 1}
        assert list(cache.entries) == [tuple(known), tuple(new)]
        return
    assert cache_counters() == {"misses": 1, f"bypass.{armed}": 2}
    assert list(cache.entries) == [tuple(known)]
    # Disarmed, the prompt the armed engine prefilled is still a miss —
    # and only now stored.
    row, _, _ = rnd.admit("after", new, 1)
    assert cache_counters() == {"misses": 2, f"bypass.{armed}": 2}
    fresh = engine.new_caches()
    want = engine.forward(new, fresh, start_pos=0, iteration=0)[-1:]
    snaps, logits = cache.entries[tuple(new)]
    assert np.array_equal(logits, want) and np.array_equal(row.logits, want)
    for (k, v, length), ref in zip(snaps, fresh):
        assert length == len(new)
        assert np.array_equal(k, ref.keys()) and np.array_equal(v, ref.values())
    rnd.admit("again", new, 1)
    assert cache_counters()["hits"] == 1


def test_a_request_fault_goes_around_the_cache(cache_counters):
    """``before_prefill`` is how a request carries its own fault: such an
    admission neither reads the stored prompt nor replaces it."""
    engine = _target()
    cache = PromptCache(64)
    rnd = DecodeRound(engine, engine.new_pool(2), -1, prompt_cache=cache)
    rnd.admit("warm", PROMPTS[0], 1)
    stored = cache.entries[tuple(PROMPTS[0])]
    seen = []
    rnd.admit("faulted", PROMPTS[0], 1, before_prefill=seen.append)
    rnd.admit("faulted", PROMPTS[1], 1, before_prefill=seen.append)
    assert len(seen) == 2
    assert cache_counters() == {"misses": 1, "bypass.request_fault": 2}
    assert list(cache.entries) == [tuple(PROMPTS[0])]
    assert cache.entries[tuple(PROMPTS[0])] is stored


def test_a_faulted_admissions_prefill_carries_its_row_id():
    """The prompt forward of an admission that arms its own fault is
    tagged with the row's id, so a hook pinned to a sibling — still
    waiting for an iteration-0 forward it never got — sits it out; an
    unfaulted admission keeps the 1-D entry.  Same bits either way."""
    engine = _target()
    rnd = DecodeRound(engine, engine.new_pool(3), -1)
    tags = []
    detach = engine.hooks.register(
        "blocks.0.q_proj",
        lambda out, ctx: tags.append((ctx.iteration, ctx.batch_row)),
        observer=True,
    )
    plain, _, _ = rnd.admit("plain", PROMPTS[0], 2)
    armed = []
    faulted, _, _ = rnd.admit("faulted", PROMPTS[0], 2, before_prefill=armed.append)
    detach()
    assert armed == [faulted] and faulted.caches is not None
    assert tags == [(0, None), (0, faulted.id)]
    assert np.array_equal(plain.logits, faulted.logits)
    for ours, theirs in zip(faulted.caches, plain.caches):
        assert np.array_equal(ours.keys(), theirs.keys())
        assert np.array_equal(ours.values(), theirs.values())


def test_lru_eviction_keeps_the_token_budget(cache_counters):
    engine = _target()
    cache = PromptCache(8)
    rnd = DecodeRound(engine, engine.new_pool(2), -1, prompt_cache=cache)
    for prompt in (PROMPTS[0], PROMPTS[2], PROMPTS[0], PROMPTS[3]):
        rnd.admit("x", prompt, 1)  # 3 + 2 tokens, a hit, then 4 more
    # The hit made PROMPTS[0] the most recent: PROMPTS[2] is what went.
    assert list(cache.entries) == [tuple(PROMPTS[0]), tuple(PROMPTS[3])]
    assert cache.tokens == 7
    rnd.admit("x", PROMPTS[1], 1)  # 5 tokens: both others go
    assert list(cache.entries) == [tuple(PROMPTS[1])]
    assert cache.tokens == 5
    assert cache_counters() == {"misses": 4, "hits": 1, "evictions": 3}
    assert telemetry().metrics.gauge("serve.prompt_cache.tokens").value == 5


def test_offline_decoders_build_their_round_without_a_cache(monkeypatch):
    from repro.fi import golden
    from repro.generation import batched

    rounds = []

    def recording(*args, **kwargs):
        rounds.append(DecodeRound(*args, **kwargs))
        return rounds[-1]

    monkeypatch.setattr(batched, "DecodeRound", recording)
    monkeypatch.setattr(golden, "DecodeRound", recording)
    engine = _target()
    config = GenerationConfig(max_new_tokens=3, eos_id=-1)
    BatchedDecoder(engine, config, max_batch=2).decode_many(PROMPTS[:2])
    golden.GoldenRun.decode_many(engine, PROMPTS[:2], config, engine.new_pool(2))
    assert len(rounds) == 2
    assert all(rnd.prompt_cache is None for rnd in rounds)
