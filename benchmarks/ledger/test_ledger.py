"""Tests of the ledger's own arithmetic and of its contract.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger`` (tier-1
collects only ``tests/``).  The last test drives ``run.py --smoke --trace 1``
end to end and needs the reference pair in ``benchmarks/ledger/cache``; it is
skipped, not built, when the cache is cold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER))

import common  # noqa: E402
import compare  # noqa: E402
import estimator  # noqa: E402
import hostcal  # noqa: E402
import layer_metrics  # noqa: E402
import loadgen  # noqa: E402

ledger_trace = common.load_trace_module()


# -- host-normalised estimators ----------------------------------------------------------


def test_host_speed_is_the_mean_calibration_rate_inside_the_interval():
    ref = hostcal.REF_OPS_PER_S
    samples = [(0.0, ref, 0), (1.0, ref / 2, 0), (2.0, ref / 2, 0), (3.0, ref, 0)]
    assert hostcal.speed(samples, 0.5, 2.5) == pytest.approx(0.5)
    assert hostcal.speed(samples, 0.0, 3.0) == pytest.approx(0.75)
    # Shorter than the sampling period: the two nearest samples.
    assert hostcal.speed(samples, 1.4, 1.45) == pytest.approx(0.5)
    # A pinned workload is judged by its own CPU's samples only.
    both = samples + [(t, ref / 4, 1) for t, _, _ in samples]
    assert hostcal.speed(both, 0.0, 3.0, cpus=[0]) == pytest.approx(0.75)
    assert hostcal.speed(both, 0.0, 3.0, cpus=[1]) == pytest.approx(0.25)


def test_normalised_rate_charges_a_slow_host_less_time():
    # 100 units in 2 s on a host at half the reference speed is what the
    # reference host does in 1 s.
    assert estimator.normalised_rate([(100.0, 2.0, 0.5)]) == pytest.approx(100.0)
    # Rounds pool work and normalised seconds; they are not averaged.
    rounds = [(100.0, 2.0, 0.5), (100.0, 1.0, 1.0), (100.0, 4.0, 0.5)]
    assert estimator.normalised_rate(rounds) == pytest.approx(300.0 / 4.0)


def test_pooled_cells_sums_work_and_normalised_seconds_per_cell():
    cell = lambda t: [{"id": "gsm8k.1bit-comp", "work": 10.0, "time_s": t}]  # noqa: E731
    pooled = estimator.pooled_cells([(cell(2.0), 0.5), (cell(1.0), 1.0)])
    assert pooled == {"gsm8k.1bit-comp": {"work": 20.0, "seconds": 2.0}}


def test_calibration_burst_reports_a_positive_cpu_time_rate():
    assert hostcal.burst(0.0005) > 0


def test_timed_span_skips_ramp_up_and_drain():
    samples = [{"done_at": float(t), "tokens": 2} for t in (9, 1, 2, 3, 4, 5, 6, 7, 8, 0)]
    samples.append({"done_at": None, "tokens": 0})  # never finished
    timed, t0, t1 = loadgen.timed_span(samples, lead_in=2, n_timed=5)
    assert [s["done_at"] for s in timed] == [2.0, 3.0, 4.0, 5.0, 6.0]
    assert (t0, t1) == (1.0, 6.0)  # from the last lead-in completion


# -- a refused request is an SLO miss and a failure ---------------------------------------


class Refused(RuntimeError):
    reason = "queue_full"


class FakeHandle:
    done = True
    finish_reason = "eos"
    ttft_s = 0.001
    latency_s = 0.004

    def __init__(self, tokens):
        self.tokens = tokens

    def result(self, timeout=None):
        return self.tokens


def test_refused_request_counts_as_slo_miss_and_failure():
    references = [[7, 8, 9]]

    def submit(pick):
        submit.calls += 1
        if submit.calls == 2:
            raise Refused()
        return FakeHandle([7, 8, 9] if submit.calls != 3 else [7, 8, 0])

    submit.calls = 0
    run = loadgen.run_open(submit, [0.0, 0.001, 0.002, 0.003], [0, 0, 0, 0], (Refused,))
    samples = run["samples"]
    loadgen.judge(samples, references)
    assert [s["refused"] for s in samples] == [None, "queue_full", None, None]
    assert [estimator.request_failed(s) for s in samples] == [False, True, True, False]
    # Four sent: one refused, one wrong stream, two good.
    assert estimator.slo_share(samples, ttft_ms=25.0, tpot_ms=5.0) == pytest.approx(0.5)


def test_late_first_token_misses_the_slo_without_failing():
    sample = {"refused": None, "finish": "length", "correct": True, "ttft_ms": 40.0, "tpot_ms": 1.0}
    assert not estimator.request_failed(sample)
    assert not estimator.meets_slo(sample, ttft_ms=25.0, tpot_ms=5.0)
    # On a host at half the reference speed, 40 ms is 20 normalised ms.
    assert estimator.meets_slo(sample, ttft_ms=25.0, tpot_ms=5.0, speed=0.5)


def test_open_schedule_is_seeded_and_has_the_stated_count():
    due_a, picks_a = loadgen.open_schedule(3, 150.0, 2.0, 32)
    due_b, picks_b = loadgen.open_schedule(3, 150.0, 2.0, 32)
    due_c, _ = loadgen.open_schedule(4, 150.0, 2.0, 32)
    assert (due_a, picks_a) == (due_b, picks_b) and due_a != due_c
    assert len(due_a) == 300 and due_a == sorted(due_a)
    assert sorted(picks_a[:32]) == list(range(32))  # every shape once per block


# -- spans ------------------------------------------------------------------------------


def test_span_self_time_is_duration_minus_children():
    spans = [
        {"id": 0, "name": "fi.run", "layer": "fi", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "generation.generate_ids", "layer": "generation", "parent": 0, "start": 1.0, "end": 7.0},
        {"id": 2, "name": "engine.forward", "layer": "inference", "parent": 1, "start": 2.0, "end": 4.0},
        {"id": 3, "name": "engine.forward", "layer": "inference", "parent": 1, "start": 4.5, "end": 6.5},
    ]
    own = ledger_trace.self_times(spans)
    assert own == {0: 4.0, 1: 2.0, 2: 2.0, 3: 2.0}
    assert ledger_trace.self_by_layer(spans) == {"fi": 4.0, "generation": 2.0, "inference": 4.0}
    assert ledger_trace.total_by_name(spans)["engine.forward"] == 4.0
    assert sum(own.values()) == 10.0  # self times tile the root span


def test_wrapped_calls_nest_per_thread_and_carry_the_request_id():
    log = ledger_trace.SpanLog()

    class Handle:
        request_id = 42

    inner = log.wrap(lambda: Handle(), "serve.submit", "serve", "request_id")
    outer = log.wrap(lambda: inner(), "outer", "fi")
    outer()
    assert log.spans == []  # off by default
    log.enabled = True
    outer()
    child, parent = log.spans
    assert (child["name"], child["parent"], child["request"]) == ("serve.submit", parent["id"], 42)
    assert parent["parent"] is None and parent["start"] <= child["start"] <= child["end"] <= parent["end"]


def test_missing_traced_callable_gives_null_not_a_crash():
    log = ledger_trace.SpanLog()
    table = (
        ("inference", "engine.forward_step_batch", "json", "JSONDecoder.no_such_method", None),
        ("inference", "engine.forward", "no_such_module_at_all", "f", None),
        ("metrics", "json.dumps", "json", "dumps", None),
    )
    log.install(table)
    try:
        assert set(log.missing) == {"engine.forward_step_batch", "engine.forward"}
        log.enabled = True
        assert json.dumps([1]) == "[1]" and log.spans[0]["name"] == "json.dumps"
    finally:
        log.uninstall()
    assert not hasattr(json.dumps, "__wrapped__")

    trace = {
        "wall_s": 1.0, "missing": log.missing, "name_total_s": {}, "layer_self_s": {},
        "histograms": {k: [] for k in ("serve.batch_occupancy", "serve.queue_depth", "decode.spec_accept_len")},
        "counters": {}, "gauges": {}, "pool_spinup_s": [],
    }
    request = {"ttft_ms": 1.0, "tpot_ms": 1.0, "late_ms": 0.0, "submit_us": 1.0}
    segment = {"timed": [0.0, 1.0], "work": 10.0, "speed": {"timed": 1.0},
               "cal": [(0.5, hostcal.REF_OPS_PER_S, 0)],
               "requests": [request], "refused": 0, "trace": trace}
    values, null = layer_metrics.per_layer(
        "serve_closed", [segment], {"spans": segment, "telemetry": segment},
        {"values": {}, "null": {}}, 1.0,
    )
    assert values["inference.busy_share.step"] is None
    assert null["inference.busy_share.step"].startswith("callable gone")
    assert values["inference.busy_share.chunk"] == 0.0  # still wrapped, just unused


# -- compare.py --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a, b, verdict",
    [
        ([100.0, 99.0, 101.0, 100.0], [80.0, 79.0, 81.0, 80.0], "worse"),
        ([100.0, 99.0, 101.0, 100.0], [120.0, 119.0, 121.0, 120.0], "better"),
        ([100.0, 99.0, 101.0, 100.0], [104.0, 103.0, 105.0, 104.0], "same"),
        ([100.0, 80.0, 120.0, 100.0], [95.0, 75.0, 115.0, 95.0], "unresolved"),
    ],
)
def test_compare_verdicts_for_a_higher_is_better_metric(a, b, verdict):
    assert compare.judge(a, b, "higher", 0.10, single=True)["verdict"] == verdict


def test_compare_noisy_but_disjoint_rounds_are_resolved():
    a = [100.0, 80.0, 120.0, 100.0]
    b = [50.0, 40.0, 60.0, 50.0]
    assert compare.judge(a, b, "higher", 0.10, single=True)["verdict"] == "worse"


# -- the contract, end to end --------------------------------------------------------------


def test_benchmark_json_names_the_six_workloads_and_setup_s():
    contract = common.contract()
    assert [w["name"] for w in contract["workloads"]] == list(common.WORKLOADS)
    assert contract["paths"] == ["benchmarks/ledger"]
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names)) and len(contract["per_layer"]) <= 128


def test_smoke_run_emits_every_metric_name(tmp_path):
    if not list(common.CACHE_DIR.glob(f"{common.TARGET}-*.npz")):
        pytest.skip("reference pair not built yet: run benchmarks/ledger/run.py once")
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--smoke", "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(out.read_text())
    contract = common.contract()
    assert report["correct"] and report["rounds"] == 1 and report["scale"] == 0.2
    assert report["wall_s"] < 60.0
    assert report["pool_equals_serial"] is True
    for workload in common.WORKLOADS:
        entry = report["workloads"][workload]
        assert entry["failed"] == 0 and entry["attempted"] >= 1
        assert set(entry["end_to_end"]) == {m["name"] for m in contract["end_to_end"]}
        assert all(v > 0 for v in entry["end_to_end"].values())
        assert set(entry["per_layer"]) == {m["name"] for m in contract["per_layer"]}
        for name, value in entry["per_layer"].items():
            assert value is not None or name in entry["per_layer_null"], name
        assert name_printed(proc.stdout, contract)
    for workload in ("campaign_gen_comp", "campaign_mc_mem"):
        assert 0.9 <= report["workloads"][workload]["per_layer"]["trace.coverage_share"] <= 1.0
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"] is True


def name_printed(stdout: str, contract: dict) -> bool:
    return all(m["name"] in stdout for m in contract["end_to_end"] + contract["per_layer"])
