#!/usr/bin/env python3
"""The performance ledger: one reference pair, six workloads, every metric
of ``BENCHMARK.json`` by name.

    python3 benchmarks/ledger/run.py                       # all six workloads
    python3 benchmarks/ledger/run.py --trace 1             # plus per-layer metrics
    python3 benchmarks/ledger/run.py --smoke               # 1 round, 1/5 of the work
    python3 benchmarks/ledger/run.py --workload serve_closed --seed 3 \\
        --seconds 10 --trace 0                             # what the driver runs

Each workload runs ``--rounds`` times, every round a fresh subprocess
(:mod:`segment`), the workloads interleaved within a round.  ``--seconds`` is
the timed work of one workload summed over its rounds; the work itself is a
function of ``--seconds`` and ``--rounds`` only.  Outputs are checked (served
streams against serial ``greedy_decode``, campaign records against each other
and ``expected.json``).  The last line of standard output is one JSON object;
with a single ``--workload`` it is the driver's result line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import estimator  # noqa: E402
import hostcal  # noqa: E402
import layer_metrics  # noqa: E402

SEGMENT_TIMEOUT_S = 150.0
BUILD_TIMEOUT_S = 850.0
DEFAULT_ROUNDS = 3


class SegmentError(RuntimeError):
    pass


def spawn(spec: dict, timeout_s: float = SEGMENT_TIMEOUT_S) -> dict:
    """Run one segment in its own process group, sampling host speed beside
    it, and parse its last line.  The group is killed on any exit path, so no
    pool worker outlives us."""
    with hostcal.Sampler() as sampler:
        spec = dict(spec, t_spawn=common.now())
        proc = subprocess.Popen(
            [sys.executable, str(common.LEDGER_DIR / "segment.py"), json.dumps(spec)],
            cwd=common.LEDGER_DIR,
            env=common.child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            raise SegmentError(f"segment {spec} exceeded {timeout_s:.0f}s") from None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if proc.returncode != 0:
        raise SegmentError(f"segment {spec} failed ({proc.returncode}):\n{err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["cal"] = sampler.samples
    # Host speed (share of the reference) over each interval the segment
    # reports, on the CPUs it was confined to: computed once, read everywhere.
    result["speed"] = {
        name: hostcal.speed(sampler.samples, *result[name], spec.get("cpus"))
        for name in ("setup", "timed") if name in result
    }
    return result


def placement(workload: str | None, index: int) -> dict:
    """A serial campaign is one busy thread: it is pinned to one CPU (a
    different one each round) so that the calibration samples of that very
    CPU describe the speed it ran at.  Everything else may use every CPU."""
    if workload in ("campaign_gen_comp", "campaign_mc_mem"):
        cpus = sorted(os.sched_getaffinity(0))
        return {"cpus": [cpus[index % len(cpus)]]}
    return {}


# -- aggregation ---------------------------------------------------------------------


def round_metrics(workload: str, segment: dict) -> dict[str, float]:
    """The four end-to-end metrics of one round, in host-normalised units."""
    speed = segment["speed"]["timed"]
    t0, t1 = segment["timed"]
    if workload == "serve_open":
        # Offered load is fixed, so the rate that can move is the goodput:
        # requests sent that were served correctly and inside both latency
        # limits, per second of window.
        good = estimator.slo_share(
            segment["requests"], common.SLO_TTFT_MS, common.SLO_TPOT_MS, speed
        )
        work_per_s = good * segment["work"] / (t1 - t0)
    else:
        work_per_s = estimator.normalised_rate([(segment["work"], t1 - t0, speed)])
    if workload in common.SERVE_WORKLOADS:
        gaps = [r["tpot_ms"] for r in segment["requests"] if r["tpot_ms"] is not None]
        work_p50_ms = statistics.median(gaps) * speed
    else:
        work_p50_ms = statistics.median(
            c["time_s"] / c["work"] * 1e3 for c in segment["chunks"]
        ) * speed
    return {
        "setup_s": (segment["setup"][1] - segment["setup"][0]) * segment["speed"]["setup"],
        "work_per_s": work_per_s,
        "work_p50_ms": work_p50_ms,
        "peak_rss_mb": segment["peak_rss_mb"],
    }


def end_to_end(workload: str, rounds: list[dict]) -> tuple[dict[str, float], dict[str, list[float]]]:
    """A workload's end-to-end metrics and the per-round values behind them.
    Rates and latencies pool the rounds (work, normalised seconds and
    normalised samples) rather than average per-round results; set-up is the
    median of the rounds, memory the highest round."""
    per_round = [round_metrics(workload, r) for r in rounds]
    values = {"setup_s": statistics.median(m["setup_s"] for m in per_round)}
    if workload == "serve_open":
        values["work_per_s"] = statistics.median(m["work_per_s"] for m in per_round)
    else:
        values["work_per_s"] = estimator.normalised_rate(
            (r["work"], r["timed"][1] - r["timed"][0], r["speed"]["timed"]) for r in rounds
        )
    if workload in common.SERVE_WORKLOADS:
        values["work_p50_ms"] = statistics.median(
            req["tpot_ms"] * r["speed"]["timed"]
            for r in rounds for req in r["requests"] if req["tpot_ms"] is not None
        )
    else:
        cells = estimator.pooled_cells((r["chunks"], r["speed"]["timed"]) for r in rounds)
        values["work_p50_ms"] = statistics.median(
            c["seconds"] / c["work"] * 1e3 for c in cells.values()
        )
    values["peak_rss_mb"] = max(m["peak_rss_mb"] for m in per_round)
    return values, {name: [m[name] for m in per_round] for name in per_round[0]}


def check_outputs(workload: str, rounds: list[dict], expected: dict, key: str) -> dict:
    """attempted / failed / digest verdict of one workload."""
    attempted = sum(r["sent"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    digests = {r.get("digest") for r in rounds}
    verdict = "n/a"
    if workload not in common.SERVE_WORKLOADS:
        if len(digests) != 1:
            failed += rounds[0]["sent"]
            verdict = "differs between rounds"
        else:
            digest = next(iter(digests))
            recorded = expected.get("fingerprints", {})
            if any(recorded.get(k) != v for k, v in rounds[0]["fingerprints"].items()):
                verdict = "skipped (foreign weight fingerprints)"
            elif key not in expected.get("digests", {}):
                verdict = "skipped (no digest recorded for this seed and size)"
            elif expected["digests"][key] == digest:
                verdict = "matches expected.json"
            else:
                failed += rounds[0]["sent"]
                verdict = "differs from expected.json"
    return {
        "attempted": attempted,
        "failed": failed,
        "digest": next(iter(digests)) if len(digests) == 1 else None,
        "digest_verdict": verdict,
    }


def digest_key(workload: str, seed: int, rounds: list[dict]) -> str:
    plan = "campaign_gen_comp" if workload == "campaign_pool" else workload
    return f"{plan}|seed={seed}|trials={rounds[0].get('n_trials')}"


# -- main ----------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=common.WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=None, help="result JSON (default: out/ledger-<seed>.json)")
    parser.add_argument("--record-expected", action="store_true",
                        help="write this run's campaign digests into expected.json")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (common.SRC_DIR / "repro").is_dir():
        print(f"ledger: no program to measure ({common.SRC_DIR}/repro is missing)", file=sys.stderr)
        return 2
    contract = common.contract()
    seconds = args.seconds if args.seconds is not None else float(contract["run_seconds"])
    rounds = 1 if args.smoke else (args.rounds or DEFAULT_ROUNDS)
    scale = common.work_scale(seconds, rounds, args.smoke)
    if args.trace and not args.rounds:
        # A traced run spends its segments on one untraced, one
        # telemetry-only and one span-wrapped round of the same size.
        rounds = 1
    workloads = [args.workload] if args.workload else list(common.WORKLOADS)
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    (common.CACHE_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    with (common.LEDGER_DIR / "expected.json").open(encoding="utf-8") as fh:
        expected = json.load(fh)

    t_start = time.perf_counter()
    build = spawn({"mode": "build"}, BUILD_TIMEOUT_S)
    print(f"reference pair: {build['fingerprints']}"
          + (f" (built in {build['build_s']:.1f}s)" if build["cold"] else " (cache warm)"))

    base = {"mode": "workload", "seed": args.seed, "scale": scale}
    untraced: dict[str, list[dict]] = {w: [] for w in workloads}
    for index in range(rounds):
        for workload in workloads:
            untraced[workload].append(
                spawn({**base, **placement(workload, index), "workload": workload, "trace": "off"})
            )

    traced: dict[str, dict] = {}
    if args.trace:
        for workload in workloads:
            spans_out = str(common.OUT_DIR / f"spans-{workload}-{args.seed}.jsonl")
            placed = {**base, **placement(workload, 0), "workload": workload}
            traced[workload] = {
                "telemetry": spawn({**placed, "trace": "telemetry"}),
                "spans": spawn({**placed, "trace": "spans", "spans_out": spans_out}),
            }
            if workload == "serve_open":
                traced[workload]["stress"] = spawn(
                    {**base, "workload": workload, "trace": "off", "rate_rps": common.STRESS_RATE_RPS}
                )
        probes = spawn({"mode": "layers", "seed": args.seed})
    else:
        probes = None

    report = {
        "seed": args.seed,
        "seconds": seconds,
        "rounds": rounds,
        "scale": scale,
        "fingerprints": build["fingerprints"],
        "zoo.build_s": build["build_s"] if build["cold"] else None,
        "workloads": {},
    }
    ok = True
    for workload in workloads:
        rs = untraced[workload]
        key = digest_key(workload, args.seed, rs)
        checks = check_outputs(workload, rs, expected, key)
        values, per_round = end_to_end(workload, rs)
        entry = {"end_to_end": values, "rounds": per_round, **checks, "digest_key": key}
        entry["host_speed"] = [r["speed"]["timed"] for r in rs]
        entry["raw"] = {
            "setup_s": [r["setup"][1] - r["setup"][0] for r in rs],
            "timed_s": [r["timed"][1] - r["timed"][0] for r in rs],
            "work": [r["work"] for r in rs],
        }
        if args.trace:
            entry["per_layer"], entry["per_layer_null"] = layer_metrics.per_layer(
                workload, rs, traced[workload], probes, time.perf_counter() - t_start
            )
        report["workloads"][workload] = entry
        ok &= checks["failed"] == 0

    if len(workloads) > 1 and {"campaign_gen_comp", "campaign_pool"} <= set(workloads):
        same = (report["workloads"]["campaign_gen_comp"]["digest"]
                == report["workloads"]["campaign_pool"]["digest"])
        report["pool_equals_serial"] = same
        ok &= same
    report["correct"] = ok
    report["wall_s"] = time.perf_counter() - t_start

    print_report(report, contract, args.trace)
    if args.record_expected:
        record_expected(report, expected)
    out_path = Path(args.out) if args.out else common.OUT_DIR / f"ledger-{args.seed}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"written: {out_path}")
    print(json.dumps(result_line(report, contract, workloads, args.trace)))
    return 0


def print_report(report: dict, contract: dict, trace: int) -> None:
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    for workload, entry in report["workloads"].items():
        print(f"\n== {workload}: attempted {entry['attempted']}, failed {entry['failed']},"
              f" digest: {entry['digest_verdict']}")
        for name, value in entry["end_to_end"].items():
            print(f"  {name:<44} {value:>14.4f} {units[name]}")
        if trace:
            for name, value in entry["per_layer"].items():
                shown = f"{value:>14.4f}" if value is not None else f"{'null':>14}"
                why = entry["per_layer_null"].get(name)
                print(f"  {name:<44} {shown} {units[name]}" + (f"   ({why})" if why else ""))


def result_line(report: dict, contract: dict, workloads: list[str], trace: int) -> dict:
    """The driver's line: one workload's metrics (all workloads keyed by
    name when the run covered more than one)."""
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[kind]}

    def metrics(entry: dict) -> dict:
        # A layer metric the workload does not exercise is null in the
        # report and in the text above; the driver's line carries numbers
        # only, so it reads 0.0 there.
        return {
            name: {"value": entry[kind].get(name) or 0.0, "unit": unit}
            for name, unit in units.items()
        }

    entries = report["workloads"]
    line = {
        "correct": bool(report["correct"]),
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
    }
    if len(workloads) == 1:
        line["metrics"] = metrics(entries[workloads[0]])
    else:
        line["metrics"] = {w: metrics(e) for w, e in entries.items()}
    return line


def record_expected(report: dict, expected: dict) -> None:
    if expected.get("fingerprints") != report["fingerprints"]:
        expected = {"fingerprints": report["fingerprints"], "digests": {}}
    for entry in report["workloads"].values():
        if entry["digest"] is not None:
            expected["digests"][entry["digest_key"]] = entry["digest"]
    expected["digests"] = dict(sorted(expected["digests"].items()))
    with (common.LEDGER_DIR / "expected.json").open("w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    print("expected.json updated")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
