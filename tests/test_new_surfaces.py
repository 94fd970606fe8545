"""The runtime-surface fault models: KV cache and GEMM accumulator.

Covers the new injection surfaces end to end:

* site sampling properties — KV/accumulator sites always address real
  storage of the live geometry, resolved strike positions are uniform
  over *occupied* cache positions only, and identically-keyed trials
  sample identical sites across independently built campaigns;
* :class:`KVFaultInjector` mechanics — iteration latching, persistence
  across appends, rollback when a rejected speculation round truncates
  (or a snapshot restore rewinds) past the strike, re-arming after
  rollback, bit-exact restoration on exit;
* stream isolation — a KV fault pinned to one slot of a decode round
  leaves every sibling stream bit-identical, with or without a draft,
  and the slot comes back clean;
* the differential oracle — both new fault models produce
  bit-identical TrialRecords serial vs ``--workers 2`` vs resumed;
* draft-side masking — a fault armed on a speculative decoder's draft
  never changes the output (verification re-derives every emitted
  token), as a property over fault models and sites;
* forensics — flight records and ``repro obs explain`` stories carry
  the new fault kinds' events and name the corrupted surface.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fi import (
    AccumulatorFaultInjector,
    FaultModel,
    FaultSite,
    KVFaultInjector,
    assert_results_equal,
    inject,
    sample_site,
)
from repro.generation import GenerationConfig, SpeculativeDecoder, greedy_decode
from repro.generation.round import DecodeRound
from repro.inference import InferenceEngine, KVCache
from repro.model import ModelConfig, TransformerLM
from repro.obs import (
    explain_trial,
    flight_recorder,
    flight_records,
    read_run,
    telemetry,
)

from tests.test_differential import make_campaign

NEW_MODELS = (FaultModel.KV_1BIT, FaultModel.KV_2BIT,
              FaultModel.ACC_1BIT, FaultModel.ACC_2BIT)


@pytest.fixture(autouse=True)
def clean_obs():
    tel, recorder = telemetry(), flight_recorder()
    tel.reset(), tel.disable()
    recorder.reset(), recorder.disarm()
    yield
    tel.reset(), tel.disable()
    recorder.reset(), recorder.disarm()


_PROP_ENGINE: InferenceEngine | None = None


def _prop_engine() -> InferenceEngine:
    """Module-cached engine (hypothesis forbids function-scoped fixtures)."""
    global _PROP_ENGINE
    if _PROP_ENGINE is None:
        config = ModelConfig(
            vocab_size=40, d_model=32, n_heads=4, n_blocks=2, d_ff=48,
            max_seq=64,
        )
        _PROP_ENGINE = InferenceEngine(TransformerLM(config, seed=13).to_store())
    return _PROP_ENGINE


def _kv_site(**kw) -> FaultSite:
    defaults = dict(
        fault_model=FaultModel.KV_1BIT,
        layer_name="blocks.0.kv",
        row=1,
        col=2,
        bits=(3,),
        iteration=0,
        row_frac=0.5,
        plane="v",
    )
    defaults.update(kw)
    return FaultSite(**defaults)


# ----------------------------------------------------------------------------
# Site-sampler properties.
# ----------------------------------------------------------------------------


class TestSiteSampling:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_kv_sites_in_bounds(self, seed):
        """KV sites always address the live cache geometry."""
        engine = _prop_engine()
        cfg = engine.config
        rng = np.random.default_rng(seed)
        model = (FaultModel.KV_1BIT, FaultModel.KV_2BIT)[seed % 2]
        site = sample_site(engine, model, rng, max_iterations=8)
        block, suffix = site.layer_name.split(".")[1:3]
        assert suffix == "kv" and 0 <= int(block) < cfg.n_blocks
        assert site.surface == "kv-cache"
        assert 0 <= site.row < cfg.n_heads
        assert 0 <= site.col < cfg.head_dim
        assert site.plane in ("k", "v")
        assert 0.0 <= site.row_frac < 1.0
        assert 0 <= site.iteration < 8
        assert len(site.bits) == model.n_bits
        assert all(0 <= b < 32 for b in site.bits)
        # The resolved strike position is in-bounds for any occupancy.
        for length in (1, 3, 17):
            pos = min(int(site.row_frac * length), length - 1)
            assert 0 <= pos < length

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_acc_sites_in_bounds(self, seed):
        """Accumulator sites target real linears with a valid split."""
        engine = _prop_engine()
        rng = np.random.default_rng(seed)
        model = (FaultModel.ACC_1BIT, FaultModel.ACC_2BIT)[seed % 2]
        site = sample_site(engine, model, rng, max_iterations=8)
        assert site.surface == "accumulator"
        store = engine.weight_store(site.layer_name)
        assert 0 <= site.col < store.shape[1]
        assert 0.0 <= site.acc_frac < 1.0
        # The reduction split always lands in [1, K].
        k = store.shape[0]
        split = min(1 + int(site.acc_frac * k), k)
        assert 1 <= split <= k

    def test_kv_positions_uniform_over_occupied_prefix(self):
        """Strike positions cover exactly the occupied positions, evenly."""
        engine = _prop_engine()
        rng = np.random.default_rng(7)
        length = 7
        counts = np.zeros(length, dtype=int)
        n = 700
        for _ in range(n):
            site = sample_site(engine, FaultModel.KV_1BIT, rng)
            pos = min(int(site.row_frac * length), length - 1)
            counts[pos] += 1
        assert counts.sum() == n
        assert (counts > 0).all()  # every occupied position reachable
        # Loose uniformity bound: each bin within 2x of the expectation.
        assert counts.max() < 2 * (n / length)

    def test_identical_trial_keys_sample_identical_sites(
        self, untrained_store, tokenizer, world
    ):
        """Two independently built campaigns agree site-for-site —
        the stable-key property the pooled/resumed paths rely on."""
        for model in NEW_MODELS:
            a = make_campaign(untrained_store, tokenizer, world, "gen", model)
            b = make_campaign(untrained_store, tokenizer, world, "gen", model)
            for trial in range(12):
                assert a.trial_key(trial) == b.trial_key(trial)
                assert a._trial_site(trial, 8) == b._trial_site(trial, 8)

    def test_kv_layer_filter_respected(self):
        engine = _prop_engine()
        rng = np.random.default_rng(3)
        site = sample_site(
            engine,
            FaultModel.KV_1BIT,
            rng,
            layer_filter=lambda name: name.startswith("blocks.1."),
        )
        assert site.layer_name == "blocks.1.kv"
        with pytest.raises(ValueError):
            sample_site(
                engine, FaultModel.KV_1BIT, rng, layer_filter=lambda n: False
            )


# ----------------------------------------------------------------------------
# KV injector mechanics: latch, persistence, rollback, restoration.
# ----------------------------------------------------------------------------


class TestKVInjector:
    def _append(self, cache, t, seed=0):
        rng = np.random.default_rng(seed)
        n_heads, _, head_dim = cache.k.shape
        cache.append(
            rng.normal(size=(n_heads, t, head_dim)).astype(np.float32),
            rng.normal(size=(n_heads, t, head_dim)).astype(np.float32),
        )

    def test_latch_fires_at_or_after_iteration(self, untrained_engine):
        site = _kv_site(iteration=2)
        cache = KVCache(4, 16, 8)
        with KVFaultInjector(untrained_engine, site) as inj:
            self._append(cache, 3)
            inj.on_append(0, cache, 0)
            assert not inj.fired  # before the sampled iteration
            inj.on_append(0, cache, 3)  # speculation skipped 2: >= latches
            assert inj.fired
        assert untrained_engine.kv_fault is None

    def test_truncate_past_strike_rolls_back_and_rearms(
        self, untrained_engine
    ):
        """The rejected-speculation-round fix: a strike beyond the
        surviving prefix is undone and the injector re-arms."""
        site = _kv_site(row_frac=0.5)
        cache = KVCache(4, 16, 8)
        with KVFaultInjector(untrained_engine, site) as inj:
            self._append(cache, 3)
            # The buffers are uninitialised beyond the filled prefix:
            # compare the three appended positions only.
            pristine = cache.values().copy()
            inj.on_append(0, cache, 0)
            assert inj.fired
            pos = min(int(site.row_frac * 3), 2)  # == 1
            assert not np.array_equal(cache.values(), pristine)
            cache.truncate(pos)  # discard the struck position
            assert not inj.fired  # rolled back + re-armed
            np.testing.assert_array_equal(cache.v[:, :3], pristine)
            assert cache.watchers == ()
            self._append(cache, 2, seed=1)  # decode continues: re-fires
            inj.on_append(0, cache, 1)
            assert inj.fired
        assert cache.watchers == ()

    def test_truncate_before_strike_keeps_fault(self, untrained_engine):
        site = _kv_site(row_frac=0.9)  # strikes the last occupied position
        cache = KVCache(4, 16, 8)
        with KVFaultInjector(untrained_engine, site) as inj:
            self._append(cache, 4)
            inj.on_append(0, cache, 0)  # pos == 3
            cache.truncate(4)  # no-op rewind: strike survives
            assert inj.fired

    def test_restore_is_a_rewind_too(self, untrained_engine):
        site = _kv_site(row_frac=0.9)
        cache = KVCache(4, 16, 8)
        with KVFaultInjector(untrained_engine, site) as inj:
            self._append(cache, 2)
            snap = cache.snapshot()
            self._append(cache, 2, seed=1)
            inj.on_append(0, cache, 0)  # strikes within the new tokens
            cache.restore(snap)
            assert not inj.fired
            assert cache.watchers == ()

    def test_exit_restores_bits_and_disarms(self, untrained_engine):
        site = _kv_site(plane="k")
        cache = KVCache(4, 16, 8)
        self._append(cache, 5)
        pristine = cache.keys().copy()
        with KVFaultInjector(untrained_engine, site) as inj:
            inj.on_append(0, cache, 0)
            assert inj.fired
            assert not np.array_equal(cache.keys(), pristine)
        np.testing.assert_array_equal(cache.keys(), pristine)
        assert cache.watchers == ()
        assert untrained_engine.kv_fault is None

    def test_caches_pin_scopes_by_identity(self, untrained_engine):
        """A pinned injector ignores every cache but its own slot's."""
        site = _kv_site()
        mine = [KVCache(4, 16, 8), KVCache(4, 16, 8)]
        other = KVCache(4, 16, 8)
        self._append(other, 3)
        self._append(mine[0], 3)
        with KVFaultInjector(untrained_engine, site, caches=mine) as inj:
            inj.on_append(0, other, 0)
            assert not inj.fired  # someone else's sequence
            inj.on_append(0, mine[0], 0)
            assert inj.fired

    def test_double_arm_rejected(self, untrained_engine):
        with KVFaultInjector(untrained_engine, _kv_site()):
            with pytest.raises(RuntimeError):
                KVFaultInjector(untrained_engine, _kv_site()).__enter__()

    def test_engine_decode_with_kv_fault_restores(self, untrained_engine):
        """End-to-end: injected greedy decode leaves no residue and the
        fault-free decode afterwards is bit-identical to before."""
        config = GenerationConfig(max_new_tokens=6, eos_id=-1)
        before = greedy_decode(untrained_engine, [3, 5, 7], config)
        site = _kv_site(bits=(30,), iteration=1)
        with inject(untrained_engine, site) as inj:
            greedy_decode(untrained_engine, [3, 5, 7], config)
        assert isinstance(inj, KVFaultInjector)
        assert untrained_engine.kv_fault is None
        after = greedy_decode(untrained_engine, [3, 5, 7], config)
        assert before == after


class TestAccumulatorInjector:
    def test_strike_equals_in_reduction_flip(self, untrained_engine):
        """The delta formulation is bit-exact to flipping the partial
        sum inside the reduction: out' = out + (flip(p) - p)."""
        site = FaultSite(
            fault_model=FaultModel.ACC_1BIT,
            layer_name="blocks.0.up_proj",
            row=0,
            col=3,
            bits=(21,),
            iteration=0,
            row_frac=0.0,
            acc_frac=0.4,
        )
        x = np.random.default_rng(0).normal(size=(2, 32)).astype(np.float32)
        w = untrained_engine._w("blocks.0.up_proj")
        clean = (x @ w).astype(np.float32)
        out = clean.copy()
        with AccumulatorFaultInjector(untrained_engine, site) as inj:
            inj.maybe_strike(out, x, w, "blocks.0.up_proj", 0, None)
        assert inj.fired
        assert untrained_engine.acc_fault is None
        # Exactly one element moved, in the sampled column.
        diff = np.nonzero(out != clean)
        assert diff[0].tolist() == [0] and diff[1].tolist() == [3]

    def test_one_shot_and_iteration_gate(self, untrained_engine):
        site = FaultSite(
            fault_model=FaultModel.ACC_1BIT,
            layer_name="blocks.0.up_proj",
            row=0,
            col=0,
            bits=(1,),
            iteration=2,
            row_frac=0.0,
            acc_frac=0.5,
        )
        x = np.ones((1, 32), dtype=np.float32)
        w = untrained_engine._w("blocks.0.up_proj")
        out = (x @ w).astype(np.float32)
        with AccumulatorFaultInjector(untrained_engine, site) as inj:
            inj.maybe_strike(out, x, w, "blocks.0.up_proj", 0, None)
            assert not inj.fired  # wrong iteration
            inj.maybe_strike(out, x, w, "blocks.0.down_proj", 2, None)
            assert not inj.fired  # wrong layer
            inj.maybe_strike(out, x, w, "blocks.0.up_proj", 2, None)
            assert inj.fired
            first = out.copy()
            inj.maybe_strike(out, x, w, "blocks.0.up_proj", 2, None)
            np.testing.assert_array_equal(out, first)  # one-shot

    def test_decode_with_acc_fault_restores(self, untrained_engine):
        config = GenerationConfig(max_new_tokens=5, eos_id=-1)
        before = greedy_decode(untrained_engine, [4, 9, 2], config)
        site = sample_site(
            untrained_engine,
            FaultModel.ACC_2BIT,
            np.random.default_rng(11),
            max_iterations=4,
        )
        with inject(untrained_engine, site):
            greedy_decode(untrained_engine, [4, 9, 2], config)
        assert untrained_engine.acc_fault is None
        assert greedy_decode(untrained_engine, [4, 9, 2], config) == before


# ----------------------------------------------------------------------------
# Speculation-side injection and the masking theorem.
# ----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def draft_store(tiny_config):
    """A second tiny model (different init) drafting for the target."""
    return TransformerLM(tiny_config, seed=21).to_store()


class TestSpeculationSide:
    def _spec(self, target, draft, max_new=8):
        return SpeculativeDecoder(
            target,
            draft,
            GenerationConfig(max_new_tokens=max_new, eos_id=-1),
            speculation_depth=3,
        )

    @settings(max_examples=15, deadline=None)
    @given(
        model=st.sampled_from(FaultModel.extended()),
        seed=st.integers(min_value=0, max_value=10_000),
        prompt=st.lists(st.integers(min_value=3, max_value=30), min_size=1, max_size=8),
    )
    def test_draft_fault_never_changes_output(
        self, untrained_store, draft_store, model, seed, prompt
    ):
        """Verification masks any draft-side corruption: emitted tokens
        are target argmaxes over the emitted prefix, so a fault of any
        model at any site armed on the draft — decoded through the
        ungated speculative schedule, where it can fire — leaves the
        output the fault-free one."""
        target = InferenceEngine(untrained_store)
        draft = InferenceEngine(draft_store)
        clean = self._spec(target, draft).decode_one(prompt)
        site = sample_site(
            draft, model, np.random.default_rng(seed), max_iterations=6
        )
        with inject(draft, site):
            faulted = self._spec(target, draft).speculate(prompt)
        assert faulted == clean, f"draft-side {model.value} leaked"

    def test_masking_study_draft_side(self, untrained_store, draft_store):
        """The acceptance study: over a batch of sampled draft-side KV
        faults, the measured masking rate is exactly 1.0 (zero SDCs),
        and the faults really struck — masking, not a fault that never
        fired."""
        target = InferenceEngine(untrained_store)
        draft = InferenceEngine(draft_store)
        prompt = [3, 5, 7, 11]
        clean = self._spec(target, draft).decode_one(prompt)
        rng = np.random.default_rng(8)
        trials = fired = masked = 0
        for _ in range(8):
            site = sample_site(draft, FaultModel.KV_1BIT, rng, max_iterations=6)
            with inject(draft, site) as injector:
                faulted = self._spec(target, draft).speculate(prompt)
            trials += 1
            fired += injector.fired
            masked += faulted == clean
        assert draft.kv_fault is None
        assert fired >= 1, "no draft fault ever struck"
        assert masked == trials, f"{trials - masked} draft-side SDCs"

    def test_target_kv_fault_rolls_back_across_rejections(
        self, untrained_store, draft_store
    ):
        """Target-side KV faults survive speculation's truncate-heavy
        schedule: deterministic, and the engine comes back pristine."""
        target = InferenceEngine(untrained_store)
        draft = InferenceEngine(draft_store)
        prompt = [3, 5, 7, 11]
        clean = self._spec(target, draft).decode_one(prompt)
        site = _kv_site(bits=(30,), iteration=1, row_frac=0.8)
        runs = []
        for _ in range(2):
            with inject(target, site):
                runs.append(self._spec(target, draft).speculate(prompt))
        assert runs[0] == runs[1]  # rollback bookkeeping is deterministic
        assert target.kv_fault is None
        assert self._spec(target, draft).decode_one(prompt) == clean


# ----------------------------------------------------------------------------
# Slot-pinned KV faults: stream isolation inside one decode round.
# ----------------------------------------------------------------------------


class TestPinnedKVFaults:
    """A KV fault pinned to one row's slot (``KVFaultInjector(caches=)``,
    armed through ``DecodeRound.admit(before_prefill=)`` so an
    iteration-0 strike lands in the prefill) corrupts that row alone:
    every sibling decoding in the same round is bit-identical to its
    fault-free run — with a draft too, where rejected rounds truncate
    the victim's slot mid-flight — and the slots come back clean."""

    PROMPTS = [[3, 5, 7], [11, 13, 17, 19], [23, 29, 4]]
    BUDGET = 8

    def _round(self, engine, speculative):
        if not speculative:
            return DecodeRound(engine, engine.new_pool(3), -1)
        draft_config = ModelConfig(
            vocab_size=engine.config.vocab_size, d_model=16,
            n_heads=2, n_blocks=1, d_ff=24, max_seq=160,
        )
        draft = InferenceEngine(TransformerLM(draft_config, seed=23).to_store())
        return DecodeRound(
            engine, engine.new_pool(3), -1,
            draft=draft, draft_pool=draft.new_pool(3), depth=3,
        )

    def _decode(self, rnd, arm=None):
        """Every prompt through ``rnd``, all admitted before the first
        step; ``arm`` sees prompt 0's row before its prefill."""
        events = [
            rnd.admit(i, prompt, self.BUDGET, before_prefill=arm if i == 0 else None)
            for i, prompt in enumerate(self.PROMPTS)
        ]
        while rnd.rows:
            events += rnd.step()
        return {row.key: row.out for row, _, reason in events if reason is not None}

    @pytest.mark.parametrize("speculative", [False, True], ids=["plain", "speculative"])
    def test_stream_isolation(self, untrained_engine, speculative):
        config = GenerationConfig(max_new_tokens=self.BUDGET, eos_id=-1)
        clean = [greedy_decode(untrained_engine, p, config) for p in self.PROMPTS]
        rnd = self._round(untrained_engine, speculative)
        fault = _kv_site(bits=(30,), iteration=0, row_frac=0.2)
        armed = []

        def arm(row):
            armed.append(
                KVFaultInjector(untrained_engine, fault, caches=row.caches).__enter__()
            )

        out = self._decode(rnd, arm)
        (injector,) = armed
        assert injector.fired  # an iteration-0 fault strikes at prefill
        injector.__exit__(None, None, None)
        assert [out[1], out[2]] == clean[1:]
        assert len(out[0]) > 0  # SDC vs masked is a campaign's question
        # The engine and the recycled slots (both pools) are pristine.
        assert untrained_engine.kv_fault is None
        assert rnd.pool.n_free == rnd.pool.n_slots
        assert rnd.draft_pool is None or rnd.draft_pool.n_free == rnd.draft_pool.n_slots
        again = self._decode(rnd)
        assert [again[i] for i in range(len(self.PROMPTS))] == clean


class TestPooledTruncationWatchers:
    """Per-slot truncation on a pooled arena behaves exactly like a
    private cache's: a pinned KV injector rolls back and re-arms when a
    rejected speculation round truncates its slot past the strike, and
    the restore touches nothing but that slot's arena row."""

    def test_rejected_round_restores_and_rearms_without_disturbing_siblings(
        self, untrained_engine
    ):
        prompt = [3, 5, 7, 9]
        chunk = [1, 8, 2]  # pending token + two proposals
        pool = untrained_engine.new_pool(2)
        victim, sibling = pool.acquire(), pool.acquire()
        v_caches = pool.caches(victim)
        s_caches = pool.caches(sibling)
        untrained_engine.forward(prompt, v_caches, start_pos=0, iteration=0)
        untrained_engine.forward([2, 4, 6], s_caches, start_pos=0, iteration=0)
        # Fault-free reference bits for the verify chunk's K/V writes
        # into the struck block (block-0 K/V are computed pre-attention,
        # so the faulted replay below writes identical bits + one flip).
        untrained_engine.forward(
            chunk, v_caches, start_pos=len(prompt), iteration=1
        )
        # Filled prefixes only: a slot's row is uninitialised beyond it.
        n = len(prompt) + len(chunk)
        ref_k = v_caches[0].keys().copy()
        ref_v = v_caches[0].values().copy()
        for cache in v_caches:
            cache.truncate(len(prompt))
        sib = [(c.k.copy(), c.v.copy()) for c in s_caches]
        site = _kv_site(bits=(30,), iteration=1, row_frac=0.9)
        with KVFaultInjector(untrained_engine, site, caches=v_caches) as inj:
            untrained_engine.forward(
                chunk, v_caches, start_pos=len(prompt), iteration=1
            )
            assert inj.fired
            # bits flipped
            assert not np.array_equal(v_caches[0].values(), ref_v)
            # The round rejects everything: per-slot truncation — exactly
            # what BatchedSpeculativeDecoder's rollback does — fires the
            # slot views' watchers.
            for cache in v_caches:
                cache.truncate(len(prompt))
            assert not inj.fired  # rolled back + re-armed
            np.testing.assert_array_equal(v_caches[0].k[:, :n], ref_k)
            np.testing.assert_array_equal(v_caches[0].v[:, :n], ref_v)
            # Sibling arena rows saw neither the strike nor the restore.
            for cache, (k, v) in zip(s_caches, sib):
                np.testing.assert_array_equal(cache.k, k)
                np.testing.assert_array_equal(cache.v, v)
            # The next round re-fires on the surviving prefix.
            untrained_engine.forward(
                chunk[:2], v_caches, start_pos=len(prompt), iteration=2
            )
            assert inj.fired
        assert untrained_engine.kv_fault is None
        assert all(c.watchers == () for c in v_caches)


# ----------------------------------------------------------------------------
# Differential acceptance: serial vs pooled vs resumed, per model.
# ----------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("fault_model", NEW_MODELS)
    def test_serial_vs_pooled_vs_resumed(
        self, untrained_store, tokenizer, world, tmp_path, fault_model
    ):
        serial = make_campaign(
            untrained_store, tokenizer, world, "gen", fault_model
        ).run(6)
        pooled = make_campaign(
            untrained_store, tokenizer, world, "gen", fault_model
        ).run(6, n_workers=2)
        assert_results_equal(pooled, serial, "pooled", "serial")
        ck = tmp_path / f"{fault_model.value}.ckpt.jsonl"
        make_campaign(
            untrained_store, tokenizer, world, "gen", fault_model
        ).run(3, checkpoint=ck)
        resumed = make_campaign(
            untrained_store, tokenizer, world, "gen", fault_model
        ).resume(ck, 6)
        assert_results_equal(resumed, serial, "resumed", "serial")

    def test_fingerprint_back_compat(self, untrained_store, tokenizer, world):
        """Existing campaigns' fingerprints are untouched: keys that only
        the retired speculation-side study wrote never join it, so every
        journal written without that study still resumes."""
        plain = make_campaign(
            untrained_store, tokenizer, world, "gen", FaultModel.COMP_2BIT
        ).fingerprint()
        assert "spec_fault_side" not in plain
        assert "speculation_depth" not in plain


# ----------------------------------------------------------------------------
# Forensics: flight events and `repro obs explain` on the new kinds.
# ----------------------------------------------------------------------------


class TestExplainNewSurfaces:
    def _run(self, store, tokenizer, world, fault_model, out, trials=6):
        tel = telemetry()
        tel.enable(out)
        recorder = flight_recorder().arm()
        make_campaign(store, tokenizer, world, "gen", fault_model).run(trials)
        tel.flush(seed=0, command="test", extra_records=recorder.drain())
        return flight_records(read_run(out))

    def test_kv_timeline_and_story(
        self, untrained_store, tokenizer, world, tmp_path
    ):
        loaded = self._run(
            untrained_store, tokenizer, world, FaultModel.KV_1BIT,
            tmp_path / "kv.jsonl",
        )
        assert sorted(loaded) == list(range(6))
        fired_any = False
        for record in loaded.values():
            assert record["site"]["fault_model"] == "1bit-kv"
            names = [e["event"] for e in record["events"]]
            assert "inject.kv_arm" in names
            story = explain_trial(record)
            assert "kv-cache" in story
            assert record["site"]["layer_name"] in story
            if "inject.kv_fire" in names:
                fired_any = True
                fire = next(
                    e for e in record["events"]
                    if e["event"] == "inject.kv_fire"
                )
                assert fire["before"] != fire["after"]
        assert fired_any, "no KV fault fired across the mini-campaign"

    def test_accumulator_timeline_and_story(
        self, untrained_store, tokenizer, world, tmp_path
    ):
        loaded = self._run(
            untrained_store, tokenizer, world, FaultModel.ACC_2BIT,
            tmp_path / "acc.jsonl",
        )
        fired = [
            r for r in loaded.values()
            if any(e["event"] == "inject.acc_fire" for e in r["events"])
        ]
        assert fired, "no accumulator fault fired across the mini-campaign"
        for record in loaded.values():
            story = explain_trial(record)
            assert "accumulator" in story
        # An SDC trial's divergence is attributed to the corrupted
        # surface: the story names the struck pseudo-layer and shows
        # the corruption front / first divergent token when present.
        sdc = next(
            (r for r in loaded.values() if r["outcome"] != "masked"), None
        )
        if sdc is not None and sdc["divergence"] is not None:
            story = explain_trial(sdc)
            assert (
                f"first divergent token at index"
                f" {sdc['divergence']['index']}" in story
            )
