"""Tests for the repro.obs telemetry subsystem."""

import json
import time

import numpy as np
import pytest

from repro.fi import FaultModel, FICampaign
from repro.harness.results import ExperimentResult, load_result, save_result
from repro.inference import engine as engine_module
from repro.obs import (
    TELEMETRY_SCHEMA_VERSION,
    MetricsRegistry,
    SchemaMismatchError,
    SpanRecord,
    Tracer,
    attach_layer_timing,
    build_manifest,
    check_schema,
    config_hash,
    read_jsonl,
    read_run,
    telemetry,
    write_run,
)
from repro.tasks import MMLUTask, standardized_subset


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Each test starts and ends with pristine, disabled telemetry."""
    tel = telemetry()
    tel.reset()
    tel.disable()
    yield tel
    tel.reset()
    tel.disable()


# ----------------------------------------------------------------------------
# Tracing spans
# ----------------------------------------------------------------------------


class TestTracer:
    def test_nesting_records_parent_links(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", kind="campaign"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
            with tracer.span("sibling"):
                pass
        by_name = {r.name: r for r in tracer.records}
        assert by_name["outer"].parent_id is None
        assert by_name["middle"].parent_id == by_name["outer"].span_id
        assert by_name["inner"].parent_id == by_name["middle"].span_id
        assert by_name["sibling"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].attrs == {"kind": "campaign"}

    def test_finish_order_and_start_order(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        # Finish order: inner completes first; start order via span_id.
        assert [r.name for r in tracer.records] == ["b", "a"]
        assert [r.name for r in sorted(tracer.records, key=lambda r: r.span_id)] == [
            "a",
            "b",
        ]

    def test_durations_nest(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {r.name: r for r in tracer.records}
        assert by_name["outer"].duration >= by_name["inner"].duration >= 0.0

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x", a=1):
            tracer.event("y")
        assert tracer.records == []

    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer(enabled=False)
        first = tracer.span("a")
        second = tracer.span("b")
        assert first is second  # no per-call allocation on the fast path
        first.set(ignored=True)

    def test_set_attaches_mid_span_attrs(self):
        tracer = Tracer(enabled=True)
        with tracer.span("trial") as span:
            span.set(outcome="masked")
        assert tracer.records[0].attrs["outcome"] == "masked"

    def test_adopt_rekeys_and_anchors(self):
        worker = Tracer(enabled=True)
        with worker.span("trial"):
            with worker.span("decode"):
                pass
        parent = Tracer(enabled=True)
        with parent.span("campaign"):
            parent.adopt(worker.records)
        by_name = {r.name: r for r in parent.records}
        assert by_name["trial"].parent_id == by_name["campaign"].span_id
        assert by_name["decode"].parent_id == by_name["trial"].span_id
        ids = [r.span_id for r in parent.records]
        assert len(ids) == len(set(ids))


# ----------------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------------


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("c").add()
        registry.counter("c").add(2)
        registry.gauge("g").set(0.5)
        assert registry.counter("c").value == 3
        assert registry.gauge("g").value == 0.5
        with pytest.raises(ValueError):
            registry.counter("c").add(-1)

    def test_histogram_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in range(1, 101):  # 1..100
            hist.observe(float(value))
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 100.0
        assert hist.quantile(0.5) == pytest.approx(50.5)
        assert hist.quantile(0.95) == pytest.approx(95.05)
        assert hist.quantile(0.99) == pytest.approx(99.01)
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(50.5)

    def test_quantile_order_invariance(self):
        forward = MetricsRegistry().histogram("h")
        backward = MetricsRegistry().histogram("h")
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        for v in values:
            forward.observe(v)
        for v in reversed(values):
            backward.observe(v)
        for q in (0.0, 0.25, 0.5, 0.95, 1.0):
            assert forward.quantile(q) == backward.quantile(q)

    def test_empty_histogram(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.quantile(0.5) == 0.0
        assert hist.summary() == {"count": 0}

    def test_snapshot_merge_is_partition_invariant(self):
        whole = MetricsRegistry()
        for i in range(10):
            whole.counter("n").add()
            whole.histogram("h").observe(float(i))
        left, right = MetricsRegistry(), MetricsRegistry()
        for i in range(10):
            part = left if i < 4 else right
            part.counter("n").add()
            part.histogram("h").observe(float(i))
        merged = MetricsRegistry()
        merged.merge(right.snapshot())
        merged.merge(left.snapshot())
        assert merged.counter("n").value == whole.counter("n").value
        for q in (0.5, 0.95, 0.99):
            assert merged.histogram("h").quantile(q) == whole.histogram(
                "h"
            ).quantile(q)


# ----------------------------------------------------------------------------
# JSONL round-trip + manifest
# ----------------------------------------------------------------------------


class TestExport:
    def test_run_round_trip(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", site="blocks.0.q_proj"):
            with tracer.span("inner"):
                pass
        registry = MetricsRegistry()
        registry.counter("trials").add(5)
        registry.histogram("latency_ms").observe(1.25)
        path = tmp_path / "run.jsonl"
        write_run(
            path,
            build_manifest(seed=7, config={"task": "mmlu"}, command="test"),
            spans=tracer.records,
            metrics=registry,
            extra_records=[{"kind": "row", "x": 1}],
        )
        run = read_run(path)
        assert run.manifest["seed"] == 7
        assert [s.name for s in run.spans] == ["inner", "outer"]
        assert run.spans[1].attrs == {"site": "blocks.0.q_proj"}
        assert run.spans[0].parent_id == run.spans[1].span_id
        assert run.metrics.counter("trials").value == 5
        assert run.metrics.histogram("latency_ms").values == [1.25]
        assert run.of_kind("row") == [{"kind": "row", "x": 1}]

    def test_every_line_is_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_run(path, build_manifest(config={}), extra_records=[{"kind": "x"}])
        for record in read_jsonl(path):
            assert isinstance(record, dict) and "kind" in record

    def test_non_run_file_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "span"}) + "\n")
        with pytest.raises(ValueError, match="manifest"):
            read_run(path)


class TestManifest:
    def test_config_hash_deterministic(self):
        config = {"seed": 3, "task": "gsm8k", "trials": 60}
        assert config_hash(config) == config_hash(dict(reversed(config.items())))
        assert config_hash(config) != config_hash({**config, "seed": 4})

    def test_manifest_determinism_given_fixed_seed(self):
        a = build_manifest(seed=42, config={"task": "mmlu"}, command="c")
        b = build_manifest(seed=42, config={"task": "mmlu"}, command="c")
        volatile = ("created_unix", "created_iso")
        assert {k: v for k, v in a.items() if k not in volatile} == {
            k: v for k, v in b.items() if k not in volatile
        }
        assert a["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert a["seed"] == 42
        assert "python" in a["packages"]

    def test_schema_check(self):
        good = build_manifest(config={})
        assert check_schema(good) is good
        with pytest.raises(SchemaMismatchError, match="schema mismatch"):
            check_schema({**good, "schema_version": TELEMETRY_SCHEMA_VERSION + 1})

    def test_stale_run_file_fails_loudly(self, tmp_path):
        path = tmp_path / "old.jsonl"
        manifest = build_manifest(config={})
        manifest["schema_version"] = 0
        write_run(path, manifest)
        with pytest.raises(SchemaMismatchError):
            read_run(path)


# ----------------------------------------------------------------------------
# Result persistence (harness/results.py schema assertion)
# ----------------------------------------------------------------------------


class TestResultPersistence:
    def test_round_trip(self, tmp_path):
        result = ExperimentResult("fig99", "test table")
        result.add(task="mmlu", normalized=0.97)
        result.note("a note")
        path = save_result(result, tmp_path / "fig99.jsonl", seed=1)
        loaded = load_result(path)
        assert loaded.experiment_id == "fig99"
        assert loaded.rows == [{"task": "mmlu", "normalized": 0.97}]
        assert loaded.notes == ["a note"]

    def test_loading_old_schema_raises(self, tmp_path):
        result = ExperimentResult("fig99", "test table")
        path = save_result(result, tmp_path / "fig99.jsonl")
        records = read_jsonl(path)
        records[0]["schema_version"] = 999
        path.write_text(
            "\n".join(json.dumps(r, default=str) for r in records) + "\n"
        )
        with pytest.raises(SchemaMismatchError):
            load_result(path)


# ----------------------------------------------------------------------------
# Instrumented campaign + deterministic multiprocess merge
# ----------------------------------------------------------------------------


def _campaign(engine, tokenizer, world, fault_model=FaultModel.MEM_2BIT, **kw):
    task = MMLUTask(world)
    return FICampaign(
        engine=engine,
        tokenizer=tokenizer,
        task_name=task.name,
        metrics=task.metrics,
        examples=standardized_subset(task, 4),
        fault_model=fault_model,
        seed=5,
        **kw,
    )


class TestCampaignTelemetry:
    def test_disabled_telemetry_stays_empty(
        self, untrained_engine, tokenizer, world, clean_telemetry
    ):
        _campaign(untrained_engine, tokenizer, world).run(4)
        assert clean_telemetry.tracer.records == []
        assert len(clean_telemetry.metrics) == 0

    def test_trial_spans_and_outcome_tallies(
        self, untrained_engine, tokenizer, world, clean_telemetry
    ):
        tel = clean_telemetry
        tel.enable()
        # The serial reference keeps each multiple-choice trial to
        # itself, in a span of its own (on the auto route every fault
        # model's trials run in waves).
        result = _campaign(
            untrained_engine, tokenizer, world, FaultModel.ACC_1BIT,
            decode_strategy="serial",
        ).run(6)
        trial_spans = [
            r for r in tel.tracer.records if r.name == "campaign.trial"
        ]
        assert len(trial_spans) == 6
        assert all("site" in s.attrs and "outcome" in s.attrs for s in trial_spans)
        counters = tel.metrics.counters
        assert counters["campaign.trials"].value == 6
        outcome_total = sum(
            c.value
            for name, c in counters.items()
            if name.startswith("campaign.outcome.")
        )
        assert outcome_total == 6
        masked = counters.get("campaign.outcome.masked")
        expected_masked = sum(t.outcome.value == "masked" for t in result.trials)
        assert (masked.value if masked else 0) == expected_masked
        assert tel.metrics.histogram("campaign.trial_ms").count == 6
        # Per-layer timing hooks detach cleanly after the run.
        assert len(untrained_engine.hooks) == 0
        assert any(
            name.startswith("engine.layer_ms.")
            for name in tel.metrics.histograms
        )

    # Execution-health telemetry that exists only in pooled runs (pool
    # spinup, worker boots, work stealing) — set aside when comparing
    # the merged science counters/spans against serial.
    POOL_ONLY_COUNTERS = ("campaign.worker_boots", "campaign.steals")
    POOL_ONLY_SPANS = ("campaign.pool_spinup",)
    # How many forwards ran, and over how many tokens, depends on how
    # the trials were partitioned: weight-fault multiple-choice trials
    # share forwards in waves, one wave per batch, and a worker's batch
    # is its share.  So do the wave spans and the per-forward
    # histograms; every per-trial and per-row instrument does not.
    # Page faults differ too: they are the allocator's and the host's.
    PARTITION_COUNTERS = (
        "engine.forward_calls", "engine.tokens", "engine.minor_faults"
    )
    PARTITION_HISTOGRAMS = ("engine.forward_ms", "campaign.wave.width")
    PARTITION_SPANS = ("campaign.wave",)

    def test_multiprocess_merge_matches_serial(
        self, untrained_store, tokenizer, world, clean_telemetry
    ):
        """Worker telemetry merges deterministically: the merged stream
        has exactly the counters/span-counts of the serial run, however
        the trial range was partitioned — on the reference route and on
        ``auto``, whose golden passes are built once, before the fork."""
        for decode_strategy in ("auto", "serial"):
            clean_telemetry.reset()
            self._merge_matches_serial(
                untrained_store, tokenizer, world, clean_telemetry,
                decode_strategy,
            )

    def _merge_matches_serial(
        self, untrained_store, tokenizer, world, tel, decode_strategy
    ):
        from repro.inference import InferenceEngine

        auto = decode_strategy == "auto"

        def campaign():
            return _campaign(
                InferenceEngine(untrained_store), tokenizer, world,
                decode_strategy=decode_strategy,
            )

        def science(counters):
            return {
                k: v
                for k, v in counters.items()
                if k not in self.POOL_ONLY_COUNTERS + self.PARTITION_COUNTERS
            }

        def hist_counts(histograms):
            return {
                k: len(v)
                for k, v in histograms.items()
                if k not in self.PARTITION_HISTOGRAMS
            }

        def span_names(records, skip=()):
            skip += self.PARTITION_SPANS
            return sorted(r.name for r in records if r.name not in skip)

        tel.enable()
        campaign().run(6, n_workers=0)
        serial = tel.metrics.snapshot()
        serial_span_names = span_names(tel.tracer.records)
        # The comparison is about the reach-limited leg, not around it.
        assert (
            serial["counters"].get("decode.plan.option_rows.weight_fault", 0)
            == (6 if auto else 0)
        )
        assert ("campaign.mc_golden.block_passes" in serial["counters"]) == auto
        assert serial["counters"].get("campaign.mc_golden.builds", 0) == (
            4 if auto else 0
        )
        # On ``auto`` every trial was a wave row, and the forwards the
        # set-aside instruments count did run.
        assert serial["counters"].get("campaign.lone_trials.serial", 0) == (
            0 if auto else 6
        )
        assert serial["counters"]["engine.forward_calls"] > 0

        for n_workers in (2, 3):
            tel.reset()
            tel.enable()
            campaign().run(6, n_workers=n_workers)
            snapshot = tel.metrics.snapshot()
            assert science(snapshot["counters"]) == science(serial["counters"])
            # The persistent pool boots each fork exactly once; this
            # process is the n-th worker.
            assert snapshot["counters"]["campaign.worker_boots"] == n_workers - 1
            assert hist_counts(snapshot["histograms"]) == hist_counts(
                serial["histograms"]
            )
            assert set(snapshot["histograms"]) == set(serial["histograms"])
            merged_span_names = span_names(tel.tracer.records, self.POOL_ONLY_SPANS)
            assert merged_span_names == serial_span_names
            span_ids = [r.span_id for r in tel.tracer.records]
            assert len(span_ids) == len(set(span_ids))

    def test_trial_results_identical_with_telemetry(
        self, untrained_store, tokenizer, world, clean_telemetry
    ):
        """Instrumentation must not perturb the science."""
        from repro.inference import InferenceEngine

        plain = _campaign(
            InferenceEngine(untrained_store), tokenizer, world
        ).run(5)
        clean_telemetry.enable()
        traced = _campaign(
            InferenceEngine(untrained_store), tokenizer, world
        ).run(5)
        assert [t.site for t in plain.trials] == [t.site for t in traced.trials]
        assert [t.prediction for t in plain.trials] == [
            t.prediction for t in traced.trials
        ]


# ----------------------------------------------------------------------------
# Engine / decode instrumentation
# ----------------------------------------------------------------------------


class TestEngineInstrumentation:
    def test_forward_metrics(self, untrained_engine, clean_telemetry):
        tel = clean_telemetry
        tel.enable()
        # Into a slot: forward_full keeps no K/V, so it occupies none.
        untrained_engine.forward([1, 2, 3], untrained_engine.new_caches(), 0, 0)
        assert tel.metrics.counter("engine.forward_calls").value == 1
        assert tel.metrics.counter("engine.tokens").value == 3
        assert tel.metrics.histogram("engine.forward_ms").count == 1
        assert 0.0 < tel.metrics.gauge("engine.kv_occupancy").value <= 1.0
        # The calling thread's page faults, where the OS counts them.
        faults = tel.metrics.counters.get("engine.minor_faults")
        assert (faults is None) == (engine_module._RUSAGE_THREAD is None)
        assert faults is None or faults.value >= 0

    @pytest.mark.skipif(
        engine_module._RUSAGE_THREAD is None, reason="no per-thread fault count"
    )
    def test_report_lists_the_page_fault_count(
        self, untrained_engine, clean_telemetry, tmp_path
    ):
        from repro.obs import report_path

        clean_telemetry.enable()
        untrained_engine.forward_full([1, 2, 3])
        path = clean_telemetry.flush(tmp_path / "run.jsonl", seed=3, command="test")
        counters = report_path(path).split("== counters ==")[1]
        assert "engine.minor_faults" in counters

    def test_layer_timing_covers_all_layers(
        self, untrained_engine, clean_telemetry
    ):
        tel = clean_telemetry
        tel.enable()
        detach = attach_layer_timing(untrained_engine, tel)
        untrained_engine.forward_full([1, 2, 3])
        detach()
        names = {
            name[len("engine.layer_ms.") :]
            for name in tel.metrics.histograms
            if name.startswith("engine.layer_ms.")
        }
        assert names == set(untrained_engine.linear_layer_names())
        assert len(untrained_engine.hooks) == 0

    def test_forward_unchanged_by_instrumentation(
        self, untrained_engine, clean_telemetry
    ):
        """Telemetry, layer timing and the page-fault count included,
        observes a forward without changing a bit of it."""
        chunk = [[1, 2, 3, 4], [5, 6, 7, 8]]
        baseline = untrained_engine.forward_full([1, 2, 3])
        rows = untrained_engine.forward_chunk_batch(chunk, None, [0, 0], [0, 0])
        clean_telemetry.enable()
        detach = attach_layer_timing(untrained_engine, clean_telemetry)
        traced = untrained_engine.forward_full([1, 2, 3])
        traced_rows = untrained_engine.forward_chunk_batch(
            chunk, None, [0, 0], [0, 0]
        )
        detach()
        np.testing.assert_array_equal(baseline, traced)
        np.testing.assert_array_equal(rows, traced_rows)
        if engine_module._RUSAGE_THREAD is not None:
            assert "engine.minor_faults" in clean_telemetry.metrics.counters

    def test_layer_timing_tiles_batched_forwards(
        self, untrained_engine, clean_telemetry
    ):
        """Every entry marks ``forward_start``, so time spent *between*
        batched steps is charged to no layer."""
        tel = clean_telemetry
        tel.enable()
        engine = untrained_engine
        pool = engine.new_pool(2)
        rows = [pool.caches(pool.acquire()) for _ in range(2)]
        for caches in rows:
            engine.forward([1, 2, 3], caches, 0, 0)
        detach = attach_layer_timing(engine, tel)
        before = tel.metrics.histograms["engine.forward_ms"].total
        for k in range(3):
            time.sleep(0.02)
            engine.forward_step_batch([4, 5], rows, [3 + k] * 2, [1 + k] * 2)
        engine.forward_chunk_batch([[6, 7]] * 2, rows, [6, 6], [4, 4])
        detach()
        histograms = tel.metrics.histograms
        layers = sum(
            h.total for n, h in histograms.items() if n.startswith("engine.layer_ms.")
        )
        assert layers <= histograms["engine.forward_ms"].total - before
        assert tel.metrics.counters["engine.forward_calls"].value == 6
        assert tel.metrics.counters["engine.tokens"].value == 16
        assert tel.metrics.gauges["engine.kv_occupancy"].value == pytest.approx(
            8 / engine.config.max_seq
        )


class TestReport:
    def test_report_renders_key_sections(self, tmp_path, clean_telemetry):
        from repro.obs import report_path

        tel = clean_telemetry
        tel.enable()
        with tel.span("campaign.trial", site="blocks.0.q_proj"):
            pass
        tel.metrics.counter("campaign.outcome.masked").add(3)
        tel.metrics.counter("campaign.outcome.sdc_subtle").add(1)
        tel.metrics.counter("decode.tokens").add(40)
        tel.metrics.histogram("decode.generate_ms").observe(20.0)
        tel.metrics.histogram("engine.layer_ms.blocks.0.q_proj").observe(0.5)
        for name, value in {
            "engine.prefill_cache_hits": 3,
            "engine.prefill_cache_misses": 1,
            "campaign.golden.builds": 2,
            "campaign.golden.shared": 4,
            "campaign.golden.replayed_tokens": 17,
            "campaign.golden.unreached": 1,
            "campaign.wave.back_on_golden": 2,
            "campaign.wave.replayed_blocks": 40,
            "campaign.wave.row_blocks": 96,
            "campaign.wave.prompt_forwards": 3,
            "campaign.wave.prompt_rows": 7,
            "campaign.mc_golden.builds": 3,
            "campaign.mc_golden.shared": 5,
            "campaign.mc_golden.block_passes": 64,
            "campaign.mc_golden.block_passes_skipped": 24,
            "campaign.mc_golden.rows_reused": 6,
            "campaign.mc_golden.rows_shared": 9,
            "campaign.mc_golden.share_refused": 2,
        }.items():
            tel.metrics.counter(name).add(value)
        for trials in (8, 5):
            with tel.span("campaign.wave", trials=trials):
                pass
        for live_rows in (8, 6, 1):
            tel.metrics.histogram("campaign.wave.width").observe(live_rows)
        tel.metrics.counter("campaign.wave.fallbacks").add()
        tel.metrics.counter("campaign.lone_trials.wave_fallback").add(5)
        tel.metrics.counter("campaign.lone_trials.kv_fault").add(2)
        path = tel.flush(tmp_path / "run.jsonl", seed=3, command="test")
        text = report_path(path)
        assert (
            "golden runs: 3 of 4 generative trials resumed (17 decode steps"
            " replayed, 1 strikes never reached, 2 rows back on golden,"
            " 40 of 96 row-blocks replayed, 2 runs built, 4 reused)"
        ) in text
        assert (
            "mc golden: 24 of 64 block passes skipped (0.375), 6 option rows"
            " reused, 9 shared (2 trials refused), 3 passes built, 5 reused"
        ) in text
        assert (
            "waves: 13 trials in 2 waves, 3 shared forwards at mean width 5.0,"
            " 3 prompt forwards for 7 prompt rows,"
            " 1 waves re-run one trial at a time"
        ) in text
        assert "trials run alone: 7 (2 kv_fault, 5 wave_fallback)" in text
        assert "campaign.trial" in text
        assert "engine.layer_ms.blocks.0.q_proj" in text
        assert "tokens/sec" in text
        assert "SDC rate: 0.250" in text
        assert "schema         v1" in text

        # A campaign whose every trial ran alone has no wave to report
        # them under: the reasons are printed all the same.
        tel.reset()
        tel.enable()
        tel.metrics.counter("campaign.outcome.masked").add(9)
        tel.metrics.counter("campaign.lone_trials.beam").add(9)
        text = report_path(tel.flush(tmp_path / "alone.jsonl", seed=3, command="test"))
        assert "trials run alone: 9 (9 beam)" in text
        assert "waves:" not in text
