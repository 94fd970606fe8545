"""Serving loop: mid-flight admission, fairness, SLOs, equivalence.

Covers the multi-tenant streaming server end to end:

* the smooth weighted-round-robin scheduler (exact share convergence,
  maximal interleaving, in-flight caps);
* admission control (bounded queues shed with typed rejections, too-long
  prompts rejected, shutdown refuses new work);
* served streams token-identical to serial ``greedy_decode`` under
  concurrent mid-flight admission;
* stream-termination edge cases from the bug taxonomy — EOS as the very
  first token, client abandoning a stream mid-generation, token budget
  hit mid-speculation round — all free KV slots and never deadlock the
  pump;
* a saturating tenant cannot starve a light tenant's TTFT;
* SLO instruments land in the obs registry and render as the dedicated
  report section;
* the server's prompt cache: hits, misses, evictions, cancels and
  restarts leave every stream serial-greedy and every resident entry
  the bits of a fresh prompt forward, a fault-carrying admission and
  its siblings go around it, and telemetry on it stays a pure observer.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fi import FaultModel, FaultSite, KVFaultInjector
from repro.generation import (
    BatchedDecoder,
    GenerationConfig,
    SpeculativeDecoder,
    greedy_decode,
)
from repro.generation.round import Admission, DecodeRound, decode_to_completion
from repro.inference import InferenceEngine
from repro.inference.kvcache import PromptCache
from repro.model import ModelConfig, TransformerLM
from repro.obs import telemetry
from repro.obs.export import read_run
from repro.obs.report import render_report
from repro.serve import (
    InferenceServer,
    ServeRejected,
    TenantConfig,
    WeightedScheduler,
    run_load,
)
from repro.serve.loadgen import PromptSpec, equivalence_gate

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


def _paced(engine: InferenceEngine) -> InferenceEngine:
    """``engine`` with an observer that yields the GIL on every forward.
    The tests that cancel or stop mid-generation need the pump to still
    be decoding when this thread acts; unpaced, it can finish all 64
    tokens of the tiny model inside one switch interval."""
    engine.hooks.register(
        "blocks.0.q_proj",
        lambda out, ctx: time.sleep(0.001),
        row_scoped=True,
        observer=True,
    )
    return engine


def _stock(scheduler: WeightedScheduler, name: str, n: int) -> None:
    scheduler.get(name).queue.extend(object() for _ in range(n))


def _draft_for(engine: InferenceEngine) -> InferenceEngine:
    """A draft smaller than the target, sharing its vocabulary."""
    config = ModelConfig(
        vocab_size=engine.config.vocab_size, d_model=16, n_heads=2,
        n_blocks=1, d_ff=24, max_seq=160,
    )
    return InferenceEngine(TransformerLM(config, seed=23).to_store())


class TestWeightedScheduler:
    def test_exact_share_convergence(self):
        scheduler = WeightedScheduler()
        scheduler.add(TenantConfig("a", weight=3.0))
        scheduler.add(TenantConfig("b", weight=1.0))
        _stock(scheduler, "a", 400)
        _stock(scheduler, "b", 400)
        picks = []
        for _ in range(400):
            state = scheduler.pick()
            state.queue.popleft()
            picks.append(state.name)
        assert picks.count("a") == 300
        assert picks.count("b") == 100

    def test_smooth_interleaving(self):
        """Weight 3:1 serves A A B A, never the bursty A A A B."""
        scheduler = WeightedScheduler()
        scheduler.add(TenantConfig("a", weight=3.0))
        scheduler.add(TenantConfig("b", weight=1.0))
        _stock(scheduler, "a", 8)
        _stock(scheduler, "b", 8)
        picks = []
        for _ in range(8):
            state = scheduler.pick()
            state.queue.popleft()
            picks.append(state.name)
        assert picks == ["a", "a", "b", "a", "a", "a", "b", "a"]

    def test_in_flight_cap_gates_runnability(self):
        scheduler = WeightedScheduler()
        scheduler.add(TenantConfig("a", weight=9.0, max_in_flight=1))
        scheduler.add(TenantConfig("b", weight=1.0))
        _stock(scheduler, "a", 4)
        _stock(scheduler, "b", 4)
        scheduler.get("a").in_flight = 1  # at cap: only b is runnable
        assert scheduler.pick().name == "b"
        scheduler.get("a").in_flight = 0
        assert scheduler.pick().name == "a"

    def test_empty_and_duplicate(self):
        scheduler = WeightedScheduler()
        assert scheduler.pick() is None
        scheduler.add(TenantConfig("a"))
        with pytest.raises(ValueError, match="already registered"):
            scheduler.add(TenantConfig("a"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TenantConfig("a", weight=0)
        with pytest.raises(ValueError):
            TenantConfig("a", max_in_flight=0)
        with pytest.raises(ValueError):
            TenantConfig("a", max_queue=0)
        with pytest.raises(ValueError):
            TenantConfig("")


class TestServedEquivalence:
    def test_concurrent_streams_match_serial(self, untrained_engine):
        specs = [PromptSpec("t", tuple(p), 8) for p in PROMPTS]
        assert equivalence_gate(
            untrained_engine, _config(), specs, max_batch=4
        ) == len(PROMPTS)

    def test_mid_flight_admission_matches_serial(self, untrained_engine):
        """Requests submitted while others decode join mid-batch and
        still produce serial-identical streams."""
        config = _config(max_new_tokens=12)
        references = [
            greedy_decode(untrained_engine, p, config, strategy="serial")
            for p in PROMPTS
        ]
        with InferenceServer(untrained_engine, config, max_batch=2) as server:
            first = [server.submit(p) for p in PROMPTS[:2]]
            # Wait for the batch to be mid-flight, then pile on.
            next(iter(first[0]))
            late = [server.submit(p) for p in PROMPTS[2:]]
            outputs = [h.result(timeout=60) for h in first + late]
        assert outputs == references

    def test_streaming_is_incremental(self, untrained_engine):
        config = _config(max_new_tokens=6)
        with InferenceServer(untrained_engine, config) as server:
            handle = server.submit(PROMPTS[0])
            streamed = list(iter(handle))
        assert streamed == handle.tokens
        assert len(streamed) == 6
        assert handle.finish_reason == "length"
        assert handle.ttft_s is not None
        assert handle.latency_s >= handle.ttft_s


class TestAdmissionControl:
    def test_bounded_queue_sheds_typed(self, untrained_engine):
        server = InferenceServer(
            untrained_engine,
            _config(),
            tenants=[TenantConfig("x", max_queue=2)],
        )
        server.submit(PROMPTS[0], tenant="x")
        server.submit(PROMPTS[1], tenant="x")
        with pytest.raises(ServeRejected) as exc_info:
            server.submit(PROMPTS[2], tenant="x")
        assert exc_info.value.reason == "queue_full"
        assert exc_info.value.tenant == "x"
        assert server.tenant_stats()["x"]["rejected"] == 1
        server.stop()

    def test_prompt_too_long_rejected(self, untrained_engine):
        server = InferenceServer(untrained_engine, _config())
        max_seq = untrained_engine.config.max_seq
        with pytest.raises(ServeRejected) as exc_info:
            server.submit([1] * max_seq, max_new_tokens=8)
        assert exc_info.value.reason == "prompt_too_long"
        server.stop()

    def test_shutdown_refuses_new_work(self, untrained_engine):
        server = InferenceServer(untrained_engine, _config()).start()
        server.stop()
        with pytest.raises(ServeRejected) as exc_info:
            server.submit(PROMPTS[0])
        assert exc_info.value.reason == "shutdown"

    def test_unknown_tenant_autoregisters(self, untrained_engine):
        with InferenceServer(untrained_engine, _config()) as server:
            server.submit(PROMPTS[0], tenant="fresh").result(timeout=60)
        assert server.tenant_stats()["fresh"]["completed"] == 1


class TestStreamTerminationEdges:
    """The bug-taxonomy stream-termination cases: every one must free
    its KV slot and leave the pump serving."""

    def _assert_pump_alive(self, server, prompt):
        """The acid test after an edge case: the next request decodes."""
        follow_up = server.submit(prompt)
        assert follow_up.result(timeout=60)
        assert follow_up.finish_reason in ("length", "eos")

    def test_eos_as_first_token(self, untrained_engine):
        first = greedy_decode(
            untrained_engine, PROMPTS[0], _config(max_new_tokens=1),
            strategy="serial",
        )[0]
        config = _config(max_new_tokens=8, eos_id=first)
        with InferenceServer(untrained_engine, config, max_batch=2) as server:
            handle = server.submit(PROMPTS[0])
            assert handle.result(timeout=60) == []
            assert handle.finish_reason == "eos"
            assert list(iter(handle)) == []  # stream ends, never hangs
            assert server.pool.n_free == server.pool.n_slots
            # EOS-first never even occupies a batch row across a step.
            other = greedy_decode(
                untrained_engine, PROMPTS[1], config, strategy="serial"
            )
            got = server.submit(PROMPTS[1]).result(timeout=60)
            assert got == other

    def test_client_abandons_stream_mid_generation(self, untrained_engine):
        config = _config(max_new_tokens=64)
        with InferenceServer(_paced(untrained_engine), config, max_batch=2) as server:
            handle = server.submit(PROMPTS[0], max_new_tokens=64)
            stream = iter(handle)
            next(stream)
            next(stream)
            handle.cancel()
            handle.result(timeout=60)
            assert handle.finish_reason == "cancelled"
            assert 2 <= len(handle.tokens) < 64
            # Tokens decoded before the cancel landed drain, then the
            # stream terminates — it never hangs.
            assert list(stream) == handle.tokens[2:]
            assert server.pool.n_free == server.pool.n_slots
            self._assert_pump_alive(server, PROMPTS[1])

    def test_cancel_while_queued(self, untrained_engine):
        config = _config(max_new_tokens=16)
        with InferenceServer(untrained_engine, config, max_batch=1) as server:
            running = server.submit(PROMPTS[0])
            queued = server.submit(PROMPTS[1])
            queued.cancel()
            assert queued.result(timeout=60) == []
            assert queued.finish_reason == "cancelled"
            assert running.result(timeout=60)
        # A cancelled-in-queue request never held a slot.
        assert server.pool.n_free == server.pool.n_slots

    def test_budget_hit_mid_speculation_round(self, untrained_engine):
        """A token budget landing inside a draft-verify round truncates
        to exactly the serial output, and the engine's caches stay
        consistent — serving the same engine afterwards still matches
        serial decode."""
        for max_new in (1, 2, 3, 5):
            config = _config(max_new_tokens=max_new)
            decoder = SpeculativeDecoder(
                untrained_engine, untrained_engine, config, speculation_depth=4
            )
            for prompt in PROMPTS[:3]:
                serial = greedy_decode(
                    untrained_engine, prompt, config, strategy="serial"
                )
                assert decoder.decode_one(prompt) == serial
        config = _config(max_new_tokens=8)
        with InferenceServer(untrained_engine, config) as server:
            self._assert_pump_alive(server, PROMPTS[0])

    def test_hard_stop_terminates_streams(self, untrained_engine):
        config = _config(max_new_tokens=64)
        server = InferenceServer(
            _paced(untrained_engine), config, max_batch=1
        ).start()
        active = server.submit(PROMPTS[0], max_new_tokens=64)
        queued = server.submit(PROMPTS[1], max_new_tokens=64)
        next(iter(active))
        server.stop(drain=False)
        assert active.result(timeout=60) is not None
        assert queued.finish_reason == "shutdown"
        assert list(iter(queued)) == []
        assert server.pool.n_free == server.pool.n_slots


    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_engine_raising_during_admission_strands_no_handle(
        self, untrained_engine
    ):
        """A request the pump has dequeued but not yet made a row is in
        neither the queues nor the batch; when its prompt forward raises
        it must still finish and give back its slot and its tenant's
        in-flight count."""
        # A prompt forward is a rows forward of the admitted prompts.
        forward = untrained_engine.forward_chunk_batch
        prefills = []

        def second_prefill_fails(*args, **kw):
            prefills.append(args)
            if len(prefills) == 2:
                raise RuntimeError("boom")
            return forward(*args, **kw)

        untrained_engine.forward_chunk_batch = second_prefill_fails
        server = InferenceServer(untrained_engine, _config(), max_batch=2)
        handles = [server.submit(prompt) for prompt in PROMPTS[:3]]
        server.start()
        for handle in handles:
            handle.result(timeout=30)
            assert handle.finish_reason == "shutdown"
        assert len(prefills) == 2
        assert server.pool.n_free == server.pool.n_slots
        assert server.tenant_stats()["default"]["in_flight"] == 0
        # A dead pump refuses work instead of queueing it forever.
        with pytest.raises(ServeRejected) as exc_info:
            server.submit(PROMPTS[3])
        assert exc_info.value.reason == "shutdown"
        server.stop()


class TestServedSpeculation:
    """The composed fast path live: the pump speculates on decoding rows
    while newly admitted prompts prefill in the same round.  Exactness
    and the stream-termination edges must hold with a draft armed, and
    every edge must leave *both* pools (target and draft) fully free."""

    def _server(self, engine, config, **kw):
        kw.setdefault("max_batch", 2)
        kw.setdefault("speculation_depth", 4)
        return InferenceServer(engine, config, draft=_draft_for(engine), **kw)

    def _assert_slots_free(self, server):
        assert server.pool.n_free == server.pool.n_slots
        assert server.draft_pool.n_free == server.draft_pool.n_slots

    def test_matches_serial_under_mid_flight_admission(self, untrained_engine):
        config = _config(max_new_tokens=10)
        serial = [
            greedy_decode(untrained_engine, p, config, strategy="serial")
            for p in PROMPTS
        ]
        # Six streams through two slots: refills join rounds mid-flight.
        with self._server(untrained_engine, config) as server:
            handles = [server.submit(p) for p in PROMPTS]
            assert [h.result(timeout=60) for h in handles] == serial
            self._assert_slots_free(server)

    def test_narrow_draft_pool_caps_admission(self, untrained_engine):
        """A row needs a slot in *both* pools: a one-slot draft pool
        under ``max_batch=4`` serves one stream at a time instead of
        exhausting the draft pool mid-admission."""
        config = _config(max_new_tokens=10)
        draft = _draft_for(untrained_engine)
        serial = [
            greedy_decode(untrained_engine, p, config, strategy="serial")
            for p in PROMPTS[:3]
        ]
        with InferenceServer(
            untrained_engine, config, max_batch=4,
            draft=draft, draft_pool=draft.new_pool(1),
        ) as server:
            assert server.max_batch == 1
            handles = [server.submit(p) for p in PROMPTS[:3]]
            assert [h.result(timeout=60) for h in handles] == serial
            assert server.running
            self._assert_slots_free(server)

    def test_eos_as_first_token(self, untrained_engine):
        first = greedy_decode(
            untrained_engine, PROMPTS[0], _config(max_new_tokens=1),
            strategy="serial",
        )[0]
        config = _config(max_new_tokens=8, eos_id=first)
        with self._server(untrained_engine, config) as server:
            handle = server.submit(PROMPTS[0])
            assert handle.result(timeout=60) == []
            assert handle.finish_reason == "eos"
            # EOS-first retires before the draft slot is ever acquired.
            self._assert_slots_free(server)

    def test_eos_mid_round(self, untrained_engine):
        free = [
            greedy_decode(
                untrained_engine, p, _config(max_new_tokens=12),
                strategy="serial",
            )
            for p in PROMPTS[:4]
        ]
        eos = free[0][4]  # lands inside a depth-4 round for stream 0
        config = _config(max_new_tokens=12, eos_id=eos)
        serial = [
            greedy_decode(untrained_engine, p, config, strategy="serial")
            for p in PROMPTS[:4]
        ]
        with self._server(untrained_engine, config) as server:
            handles = [server.submit(p) for p in PROMPTS[:4]]
            assert [h.result(timeout=60) for h in handles] == serial
            self._assert_slots_free(server)

    @pytest.mark.parametrize("max_new", (1, 2, 3, 5))
    def test_budget_hit_mid_round(self, untrained_engine, max_new):
        """Budgets that end a stream inside a verify chunk truncate to
        exactly the serial output — "length" never lands mid-chunk."""
        config = _config(max_new_tokens=max_new)
        serial = [
            greedy_decode(untrained_engine, p, config, strategy="serial")
            for p in PROMPTS[:3]
        ]
        with self._server(untrained_engine, config) as server:
            handles = [server.submit(p) for p in PROMPTS[:3]]
            assert [h.result(timeout=60) for h in handles] == serial
            for handle in handles:
                assert handle.finish_reason in ("eos", "length")
            self._assert_slots_free(server)

    def test_cancel_while_speculating(self, untrained_engine):
        config = _config(max_new_tokens=64)
        with self._server(_paced(untrained_engine), config) as server:
            handle = server.submit(PROMPTS[0], max_new_tokens=64)
            stream = iter(handle)
            next(stream)
            next(stream)
            handle.cancel()
            handle.result(timeout=60)
            assert handle.finish_reason == "cancelled"
            # Cancellation lands at round granularity: tokens committed
            # by the in-flight round drain, then the stream terminates.
            assert 2 <= len(handle.tokens) < 64
            assert list(stream) == handle.tokens[2:]
            self._assert_slots_free(server)
            follow_up = server.submit(PROMPTS[1])
            assert follow_up.result(timeout=60)

    def test_abandoned_stream(self, untrained_engine):
        """A client that walks away without ever reading: the stream is
        cancelled unread, the pump keeps serving, no slot leaks."""
        config = _config(max_new_tokens=64)
        with self._server(_paced(untrained_engine), config) as server:
            abandoned = server.submit(PROMPTS[0], max_new_tokens=64)
            live = server.submit(PROMPTS[1], max_new_tokens=8)
            abandoned.cancel()
            abandoned.result(timeout=60)
            assert abandoned.finish_reason == "cancelled"
            assert live.result(timeout=60) == greedy_decode(
                untrained_engine, PROMPTS[1], _config(max_new_tokens=8),
                strategy="serial",
            )
            self._assert_slots_free(server)


class TestFairness:
    def test_two_tenant_weighted_share(self, untrained_engine):
        """Admission order converges to the configured 3:1 share while
        both tenants have work (exact, deterministic)."""
        config = _config(max_new_tokens=2)
        server = InferenceServer(
            untrained_engine,
            config,
            max_batch=1,
            tenants=[
                TenantConfig("a", weight=3.0),
                TenantConfig("b", weight=1.0),
            ],
        )
        handles = []
        for i in range(12):
            handles.append(server.submit(PROMPTS[i % len(PROMPTS)], tenant="a"))
            handles.append(server.submit(PROMPTS[i % len(PROMPTS)], tenant="b"))
        with server:
            for handle in handles:
                handle.result(timeout=120)
        admitted = [tenant for tenant, _ in server.admission_log]
        # While both queues are non-empty the smooth-WRR share is exact.
        assert admitted[:8].count("a") == 6
        assert admitted[:8].count("b") == 2
        assert admitted[:4] == ["a", "a", "b", "a"]
        assert admitted.count("a") == 12 and admitted.count("b") == 12

    def test_saturating_tenant_cannot_starve_light_ttft(self, untrained_engine):
        """A flood from one tenant must not push another tenant's
        first token behind the whole backlog."""
        config = _config(max_new_tokens=12)
        server = InferenceServer(
            untrained_engine,
            config,
            max_batch=2,
            tenants=[
                TenantConfig("heavy", max_queue=1000),
                TenantConfig("light"),
            ],
        )
        heavy = [
            server.submit(PROMPTS[i % len(PROMPTS)], tenant="heavy")
            for i in range(40)
        ]
        with server:
            # Server is busy on the heavy backlog; a light request
            # arriving mid-flight is admitted at the next WRR pick.
            next(iter(heavy[0]))
            light = server.submit(PROMPTS[0], tenant="light")
            light.result(timeout=120)
            stats = server.tenant_stats()
            assert stats["heavy"]["queued"] > 0, (
                "light tenant should finish while the saturating tenant"
                " still has a backlog"
            )
            for handle in heavy:
                handle.result(timeout=120)
        light_admissions = [
            i
            for i, (tenant, _) in enumerate(server.admission_log)
            if tenant == "light"
        ]
        assert light_admissions, "light tenant was never admitted"

    def test_admission_log_keeps_only_the_latest(self, untrained_engine, monkeypatch):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "ADMISSION_LOG_LEN", 4)
        server = InferenceServer(untrained_engine, _config(max_new_tokens=1))
        handles = [server.submit(PROMPTS[i % len(PROMPTS)]) for i in range(7)]
        with server:
            for handle in handles:
                handle.result(timeout=60)
        assert [r for _, r in server.admission_log] == [3, 4, 5, 6]

    def test_max_in_flight_cap_respected(self, untrained_engine):
        config = _config(max_new_tokens=8)
        server = InferenceServer(
            untrained_engine,
            config,
            max_batch=4,
            tenants=[TenantConfig("capped", max_in_flight=1)],
        )
        handles = [
            server.submit(PROMPTS[i], tenant="capped") for i in range(4)
        ]
        with server:
            for handle in handles:
                handle.result(timeout=120)
        # With the cap at 1, admissions are strictly sequential: each
        # request is admitted only after the previous one retires.
        assert [r for _, r in server.admission_log] == sorted(
            r for _, r in server.admission_log
        )
        assert server.tenant_stats()["capped"]["completed"] == 4


class TestServeTelemetry:
    def test_slo_instruments_recorded(self, untrained_engine, clean_telemetry):
        tel = clean_telemetry
        tel.enable()
        config = _config(max_new_tokens=6)
        with InferenceServer(untrained_engine, config, max_batch=2) as server:
            for p in PROMPTS[:4]:
                server.submit(p, tenant="users")
            # Drained by stop(drain=True) on context exit.
        assert tel.metrics.histogram("serve.ttft_ms").summary()["count"] == 4
        assert tel.metrics.histogram("serve.e2e_ms").summary()["count"] == 4
        assert tel.metrics.histogram("serve.tpot_ms").summary()["count"] == 4
        occupancy = tel.metrics.histogram("serve.batch_occupancy").summary()
        assert occupancy["count"] > 0 and occupancy["max"] <= 2
        assert tel.metrics.counter("serve.tenant.users.tokens").value == 24
        assert tel.metrics.gauge("decode.free_slots").value == 2

    def test_free_slots_gauge_from_batched_decoder(
        self, untrained_engine, clean_telemetry
    ):
        tel = clean_telemetry
        tel.enable()
        decoder = BatchedDecoder(untrained_engine, _config(), max_batch=3)
        decoder.decode_many(PROMPTS)
        # Every slot released once the sweep retires all sequences.
        assert tel.metrics.gauge("decode.free_slots").value == 3

    def test_report_renders_serve_section(
        self, untrained_engine, clean_telemetry, tmp_path
    ):
        tel = clean_telemetry
        out = tmp_path / "serve-run.jsonl"
        tel.enable(out)
        config = _config(max_new_tokens=4)
        with InferenceServer(untrained_engine, config) as server:
            specs = [PromptSpec("t", tuple(p), 4) for p in PROMPTS[:3]]
            report = run_load(
                server, specs, offered_rps=200.0, duration_s=0.1, seed=3
            )
        tel.record("serve_load_point", **report.to_dict())
        tel.flush(command="test-serve")
        rendered = render_report(read_run(out))
        assert "== serving SLOs ==" in rendered
        assert "serve.ttft_ms" in rendered
        assert "== serving load sweep ==" in rendered
        assert "== serving tenants ==" in rendered

    def test_per_tenant_accept_len_and_report(
        self, untrained_engine, clean_telemetry, tmp_path
    ):
        """Accept-rate collapse under mixed traffic must be observable:
        per-round accept lengths land in per-tenant histograms and the
        tenant table grows accept columns."""
        tel = clean_telemetry
        out = tmp_path / "spec-serve.jsonl"
        tel.enable(out)
        config = _config(max_new_tokens=6)
        with InferenceServer(
            untrained_engine, config, max_batch=2,
            draft=_draft_for(untrained_engine), speculation_depth=4,
        ) as server:
            for p in PROMPTS[:2]:
                server.submit(p, tenant="alpha")
            for p in PROMPTS[2:4]:
                server.submit(p, tenant="beta")
        for tenant in ("alpha", "beta"):
            summary = tel.metrics.histogram(
                f"serve.tenant.{tenant}.spec_accept_len"
            ).summary()
            assert summary["count"] > 0
        tel.flush(command="test-spec-serve")
        rendered = render_report(read_run(out))
        assert "== serving tenants ==" in rendered
        assert "accept mean" in rendered


class TestLoadGenerator:
    def test_run_load_accounting(self, untrained_engine):
        config = _config(max_new_tokens=4)
        specs = [PromptSpec("t", tuple(p), 4) for p in PROMPTS]
        with InferenceServer(untrained_engine, config, max_batch=4) as server:
            report = run_load(
                server, specs, offered_rps=300.0, duration_s=0.2, seed=7
            )
        assert report.submitted == report.completed + report.rejected
        assert report.tokens == 4 * report.completed
        assert report.throughput_tps > 0
        payload = report.to_dict()
        for key in ("offered_rps", "throughput_tps", "ttft_ms", "latency_ms"):
            assert key in payload
        assert payload["ttft_ms"]["p99"] >= payload["ttft_ms"]["p50"]

    def test_open_loop_sheds_under_overload(self, untrained_engine):
        """A tiny bounded queue under a flood must shed, not deadlock."""
        config = _config(max_new_tokens=8)
        specs = [PromptSpec("t", tuple(p), 8) for p in PROMPTS]
        server = InferenceServer(
            untrained_engine,
            config,
            max_batch=1,
            tenants=[TenantConfig("q", max_queue=2)],
        )
        with server:
            report = run_load(
                server,
                specs,
                offered_rps=500.0,
                duration_s=0.2,
                seed=11,
                tenant="q",
            )
        assert report.rejected > 0
        assert report.completed + report.rejected == report.submitted


def _kv_site(iteration: int) -> FaultSite:
    return FaultSite(
        FaultModel.KV_1BIT, "blocks.0.kv", 1, 2, bits=(30,),
        iteration=iteration, row_frac=0.2, plane="v",
    )


def _cache_counters(tel) -> dict[str, int]:
    """``serve.prompt_cache.*`` counters by their suffix."""
    prefix = "serve.prompt_cache."
    return {
        name[len(prefix):]: int(value)
        for name, value in tel.metrics.snapshot()["counters"].items()
        if name.startswith(prefix)
    }


class TestPromptCache:
    def test_budget_is_the_kv_pool(self, untrained_engine):
        server = InferenceServer(untrained_engine, _config(), max_batch=3)
        assert server.prompt_cache.max_tokens == (
            3 * untrained_engine.config.max_seq
        )
        server.stop()

    def test_traced_and_untraced_servers_emit_identical_streams(
        self, untrained_store, clean_telemetry, tmp_path
    ):
        """Telemetry is a pure observer of the cache too: the same
        submissions — repeats, so there are hits — give the same
        streams, and the traced run renders the ``prompt cache:`` line."""
        config = _config(max_new_tokens=6)
        submissions = PROMPTS[:3] * 2
        serial = [
            greedy_decode(
                InferenceEngine(untrained_store), p, config, strategy="serial"
            )
            for p in submissions
        ]
        streams = {}
        out = tmp_path / "cache-run.jsonl"
        for traced in (False, True):
            if traced:
                clean_telemetry.enable(out)
            server = InferenceServer(
                InferenceEngine(untrained_store), config, max_batch=1
            )
            handles = [server.submit(p) for p in submissions]
            with server:
                streams[traced] = [h.result(timeout=60) for h in handles]
        assert streams[True] == streams[False] == serial
        assert _cache_counters(clean_telemetry) == {"hits": 3, "misses": 3}
        assert clean_telemetry.metrics.counter("serve.completed").value == 6
        clean_telemetry.flush(command="test-prompt-cache")
        assert (
            "prompt cache: 3 hits, 3 misses, 0 bypassed, 0 evictions,"
            " 10 tokens resident"
        ) in render_report(read_run(out))

    def test_fault_carrying_request_and_its_siblings_go_around(
        self, untrained_engine, clean_telemetry
    ):
        """On the round a server drives, with the cache a server sizes:
        an admission that arms its own KV fault (pinned to its row,
        struck at its prefill) is neither served from the cache nor
        stored; while that fault is armed the plan says ``kv_fault``, so
        a sibling prefills too and decodes its fault-free stream."""
        clean_telemetry.enable()
        engine, budget = untrained_engine, _config().max_new_tokens
        cache = PromptCache(3 * engine.config.max_seq)
        rnd = DecodeRound(engine, engine.new_pool(3), -1, prompt_cache=cache)

        def decode_all():
            return decode_to_completion(
                rnd, [Admission(i, p, budget) for i, p in enumerate(PROMPTS[:3])], 3
            )

        clean = decode_all()
        stored = dict(cache.entries)
        armed = []

        def arm(row):
            armed.append(
                KVFaultInjector(engine, _kv_site(0), batch_row=row.id).__enter__()
            )

        events = [
            rnd.admit("victim", PROMPTS[0], budget, before_prefill=arm),
            rnd.admit("sibling", PROMPTS[1], budget),
        ]
        while rnd.rows:
            events += rnd.step()
        (injector,) = armed
        assert injector.fired
        injector.__exit__(None, None, None)
        done = {row.key: row.out for row, _, reason in events if reason is not None}
        assert done["sibling"] == clean[1]
        assert decode_all() == clean
        assert _cache_counters(clean_telemetry) == {
            "misses": 3, "bypass.request_fault": 1, "bypass.kv_fault": 1, "hits": 3,
        }
        assert cache.entries.keys() == stored.keys()
        assert all(cache.entries[key] is stored[key] for key in stored)

    def test_over_budget_prompt_is_served_and_never_stored(
        self, untrained_engine, clean_telemetry
    ):
        clean_telemetry.enable()
        config = _config()
        server = InferenceServer(untrained_engine, config)
        server.prompt_cache.max_tokens = 4
        long, short = PROMPTS[1], PROMPTS[0]  # 5 and 3 tokens
        with server:
            served = [
                server.submit(p).result(timeout=60)
                for p in (short, long, long, short)
            ]
        assert served == [
            greedy_decode(untrained_engine, p, config, strategy="serial")
            for p in (short, long, long, short)
        ]
        assert list(server.prompt_cache.entries) == [tuple(short)]
        assert _cache_counters(clean_telemetry) == {"misses": 3, "hits": 1}


# -- the prompt cache under generated traffic --------------------------------------

CACHE_BUDGET = 6
"""Tokens: every one of ``PROMPTS`` fits (the longest has 5), few pairs
do — so repeats both hit and get evicted."""


_SUBMIT = st.tuples(st.just("submit"), st.integers(0, len(PROMPTS) - 1))
_OPS = st.one_of(
    _SUBMIT,
    _SUBMIT,
    _SUBMIT,
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("wait")),
    st.tuples(st.just("wait")),
    st.tuples(st.just("restart")),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_OPS, min_size=6, max_size=20))
def test_prompt_cache_under_generated_traffic(untrained_store, ops):
    config = _config(max_new_tokens=6)
    engine = _paced(InferenceEngine(untrained_store))
    reference = InferenceEngine(untrained_store)
    server = InferenceServer(engine, config, max_batch=2)
    cache = server.prompt_cache
    cache.max_tokens = CACHE_BUDGET

    def check_cache():
        """Only called while no pump thread runs."""
        assert cache.tokens == sum(len(key) for key in cache.entries)
        assert cache.tokens <= CACHE_BUDGET
        for key, (snaps, logits) in cache.entries.items():
            fresh = reference.new_caches()
            want = reference.forward(list(key), fresh, start_pos=0, iteration=0)
            assert np.array_equal(logits, want[-1:])
            for (k, v, length), ref in zip(snaps, fresh):
                assert length == len(key)
                assert np.array_equal(k, ref.keys())
                assert np.array_equal(v, ref.values())
        assert server.pool.n_free == server.pool.n_slots

    clean = []
    server.start()
    try:
        for op in ops:
            if op[0] == "submit":
                clean.append((PROMPTS[op[1]], server.submit(PROMPTS[op[1]])))
            elif op[0] == "cancel":
                if clean:
                    clean[op[1] % len(clean)][1].cancel()
            elif op[0] == "wait":
                for _, handle in clean[-1:]:
                    handle.result(timeout=60)
            else:
                server.stop(drain=False, timeout=60)
                check_cache()
                server.start()
    finally:
        server.stop(drain=True, timeout=60)
    check_cache()
    for prompt, handle in clean:
        serial = greedy_decode(reference, prompt, config, strategy="serial")
        assert handle.done
        if handle.finish_reason in ("eos", "length"):
            assert handle.tokens == serial
        else:
            assert handle.finish_reason in ("cancelled", "shutdown")
            assert handle.tokens == serial[: len(handle.tokens)]
