"""Per-layer metrics of one workload, from three sources.

(D) the direct probes of :mod:`layers`, the same whatever the workload;
(T) the workload's traced rounds: the ledger's spans and the repo's own
``telemetry()`` counters; (U) by-products of its untraced rounds.

A metric the workload does not exercise, or whose callable is gone, is
``None`` here with the reason beside it (the report prints ``null``).
Latencies and rates taken from rounds are host-normalised like the
end-to-end metrics; shares and counts need no normalising.
"""

from __future__ import annotations

import os
import statistics

import common
import estimator

FORWARD_SPANS = {
    "prefill": "engine.forward",
    "step": "engine.forward_step_batch",
    "chunk": "engine.forward_chunk_batch",
}


def _speed(segment: dict) -> float:
    return segment["speed"]["timed"]


def _unit_seconds(workload: str, segment: dict) -> float:
    """Host-normalised time per unit of work of one round (per token, per
    trial; per token-gap on the open loop, whose window has a fixed length)."""
    speed = _speed(segment)
    if workload == "serve_open":
        return statistics.median(
            r["tpot_ms"] for r in segment["requests"] if r["tpot_ms"] is not None
        ) * speed
    t0, t1 = segment["timed"]
    return (t1 - t0) * speed / segment["work"]


def _overhead(workload: str, rounds: list[dict], other: dict) -> float:
    """How much slower the instrumented round ran than an untraced one."""
    plain = statistics.median(_unit_seconds(workload, r) for r in rounds)
    return _unit_seconds(workload, other) / plain - 1.0


def per_layer(
    workload: str,
    rounds: list[dict],
    traced: dict,
    probes: dict,
    wall_s: float,
) -> tuple[dict[str, float | None], dict[str, str]]:
    values: dict[str, float | None] = dict(probes["values"])
    null: dict[str, str] = dict(probes["null"])
    skipped = f"not exercised by {workload}"
    serve = workload in common.SERVE_WORKLOADS

    def put(name: str, value, reason: str = skipped) -> None:
        values[name] = None if value is None else float(value)
        if value is None:
            null[name] = reason

    # -- (T) spans ---------------------------------------------------------------
    spans = traced["spans"]["trace"]
    tel = traced["telemetry"]["trace"]
    span_wall = spans["wall_s"]
    missing = spans["missing"]
    by_name = spans["name_total_s"]
    by_layer = spans["layer_self_s"]

    def gone(*names: str) -> str | None:
        lost = [n for n in names if n in missing]
        return f"callable gone: {missing[lost[0]]}" if lost else None

    forwards_gone = gone(*FORWARD_SPANS.values())
    pooled = workload == "campaign_pool"
    in_workers = "the forwards run in forked pool workers, outside the parent's spans"
    busy = sum(by_name.get(n, 0.0) for n in FORWARD_SPANS.values()) / span_wall
    put("inference.busy_share", None if forwards_gone or pooled else busy,
        forwards_gone or in_workers)
    for part, span in FORWARD_SPANS.items():
        put(f"inference.busy_share.{part}",
            None if gone(span) or pooled else by_name.get(span, 0.0) / span_wall,
            gone(span) or in_workers)
    put("serve.nonengine_share", 1.0 - busy if serve and not forwards_gone else None,
        forwards_gone or skipped)
    campaign_layers = {
        "generation.self_share": "generation",
        "fi.self_share": "fi",
        "fi.baseline_share": "baseline",
        "metrics.share": "metrics",
    }
    for name, layer in campaign_layers.items():
        put(name, None if serve else by_layer.get(layer, 0.0) / span_wall)
    put("trace.coverage_share",
        sum(v for layer, v in by_layer.items() if layer != "serve") / span_wall)
    put("trace.overhead_share", _overhead(workload, rounds, traced["spans"]))
    put("obs.metrics_overhead_share", _overhead(workload, rounds, traced["telemetry"]))

    # -- (T) the repo's own counters ---------------------------------------------
    hist = tel["histograms"]
    counters = tel["counters"]
    occupancy = hist["serve.batch_occupancy"]
    put("serve.batch_occupancy_mean", statistics.fmean(occupancy) if occupancy else None)
    depth = hist["serve.queue_depth"]
    put("serve.queue_depth_p99", estimator.percentile(depth, 99) if depth else None)
    accepts = hist["decode.spec_accept_len"]
    if accepts:
        accepted = float(sum(accepts))
        proposed = accepted + counters.get("decode.spec_rejected", 0.0)
        put("generation.spec_accept_rate", accepted / proposed if proposed else 0.0)
        put("generation.spec_mean_accept_len", accepted / len(accepts))
    else:
        put("generation.spec_accept_rate", None)
        put("generation.spec_mean_accept_len", None)
    hits = counters.get("engine.prefill_cache_hits")
    misses = counters.get("engine.prefill_cache_misses")
    put("fi.prefill_cache_hit_share",
        hits / (hits + misses) if hits is not None and hits + misses else None)
    spinups = tel["pool_spinup_s"]
    put("fi.pool_spinup_ms",
        statistics.median(spinups) * 1e3 * _speed(traced["telemetry"]) if spinups else None)
    put("fi.pool_steals", counters.get("campaign.steals") if pooled else None)
    arena = tel["gauges"].get("campaign.arena_bytes")
    put("fi.arena_mb", arena / 2**20 if arena is not None else None)

    # -- (T) overload point, serve_open only -------------------------------------
    stress = traced.get("stress")
    put("serve.stress_slo_share",
        estimator.slo_share(stress["requests"], common.SLO_TTFT_MS, common.SLO_TPOT_MS,
                            _speed(stress)) if stress else None)
    put("serve.stress_backlog_end", stress["backlog_end"] if stress else None)

    # -- (U) by-products of the untraced rounds -----------------------------------
    if serve:
        series = {
            key: [r[key] * (1.0 if key == "submit_us" else _speed(seg))
                  for seg in rounds for r in seg["requests"] if r[key] is not None]
            for key in ("ttft_ms", "tpot_ms", "late_ms", "submit_us")
        }
        put("serve.ttft_p50_ms", statistics.median(series["ttft_ms"]))
        put("serve.ttft_p99_ms", estimator.percentile(series["ttft_ms"], 99))
        put("serve.tpot_p50_ms", statistics.median(series["tpot_ms"]))
        put("serve.tpot_p99_ms", estimator.percentile(series["tpot_ms"], 99))
        put("serve.submit_p50_us", statistics.median(series["submit_us"]))
        put("serve.rejected", sum(r["refused"] for r in rounds))
    else:
        for name in ("ttft_p50_ms", "ttft_p99_ms", "tpot_p50_ms", "tpot_p99_ms",
                     "submit_p50_us", "rejected"):
            put(f"serve.{name}", None)
    if workload == "serve_open":
        put("serve.slo_share", statistics.median(
            estimator.slo_share(r["requests"], common.SLO_TTFT_MS, common.SLO_TPOT_MS, _speed(r))
            for r in rounds))
        put("serve.backlog_growing", max(int(r["backlog_growing"]) for r in rounds))
        put("loadgen.lag_p99_ms", estimator.percentile(series["late_ms"], 99))
    else:
        closed = "closed loop: no schedule to fall behind" if serve else skipped
        put("serve.slo_share", None, closed)
        put("serve.backlog_growing", None, closed)
        put("loadgen.lag_p99_ms", None, closed)

    cells = estimator.pooled_cells((r.get("chunks", ()), _speed(r)) for r in rounds)
    baselines = [c["baseline_s"] * _speed(r) for r in rounds for c in r.get("chunks", ())]
    put("fi.baseline_ms", statistics.fmean(baselines) * 1e3 if baselines else None)
    for task, fault in common.GEN_CELLS + common.MC_CELLS:
        cell = cells.get(f"{task}.{fault}")
        put(f"fi.cell_trials_per_s.{task}.{fault}",
            cell["work"] / cell["seconds"] if cell else None)
    if pooled:
        # Same cell, same process, minutes apart at most: a plain ratio.
        speedup = statistics.median(
            r["pool_check"]["serial_s"] / r["pool_check"]["pool_s"] for r in rounds
        )
        put("fi.pool_speedup", speedup)
        put("fi.pool_efficiency", speedup / 2)
    else:
        put("fi.pool_speedup", None)
        put("fi.pool_efficiency", None)

    rates = [sample[1] for r in rounds for sample in r["cal"]]
    put("host.cal_ops_per_s.min", min(rates))
    put("host.cal_ops_per_s.median", statistics.median(rates))
    put("host.cal_ops_per_s.max", max(rates))
    put("host.cores", os.cpu_count())
    put("run.wall_s", wall_s)
    return values, null
