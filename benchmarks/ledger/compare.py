#!/usr/bin/env python3
"""Compare two ledger results (or two sets of them) metric by metric.

    python3 benchmarks/ledger/compare.py A.json B.json
    python3 benchmarks/ledger/compare.py --a A1.json A2.json --b B1.json B2.json

A is the parent, B the change.  For every workload and end-to-end metric one
row: both medians, how much B is worse (as a share of A, signed so that
positive is always worse), the bound from ``BENCHMARK.json`` and a verdict:

* ``worse`` / ``better`` — the medians differ by more than the bound;
* ``same`` — they do not;
* ``unresolved`` — the samples' own spread exceeds the bound *and* the two
  sides overlap, so the run cannot tell; never reported as ``same``.

Samples are the runs when a side has several, the rounds inside the run when
it has one.  Exit status 1 if any row is ``worse``.  This is the trajectory
gate ROADMAP item 2 asks for, kept beside the benchmark it judges.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import estimator  # noqa: E402


def load_side(paths: list[str]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> samples: one value per run, or for a single
    run its own estimate followed by the values of its rounds."""
    reports = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    side: dict[str, dict[str, list[float]]] = {}
    for report in reports:
        for workload, entry in report["workloads"].items():
            for metric, value in entry["end_to_end"].items():
                samples = side.setdefault(workload, {}).setdefault(metric, [])
                samples.append(value)
                if len(reports) == 1:
                    samples.extend(entry["rounds"][metric])
    return side


def judge(a: list[float], b: list[float], better: str, bound: float, single: bool) -> dict:
    """``single``: element 0 is the estimate, the rest its rounds."""
    value_a = a[0] if single else statistics.median(a)
    value_b = b[0] if single else statistics.median(b)
    noise_a, noise_b = (a[1:], b[1:]) if single else (a, b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (value_b - value_a) / abs(value_a)

    def spread(samples: list[float], value: float) -> float:
        # Quartile distance once there are enough samples for quartiles,
        # the full range for the three rounds of a single run.
        if len(samples) >= 4:
            return estimator.spread(samples)
        return (max(samples) - min(samples)) / abs(value) if len(samples) > 1 else 0.0

    noise = max(spread(noise_a, value_a), spread(noise_b, value_b))
    overlap = bool(noise_a and noise_b) and (
        min(noise_a) <= max(noise_b) and min(noise_b) <= max(noise_a)
    )
    if noise > bound and overlap:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    elif worse_by < -bound:
        verdict = "better"
    else:
        verdict = "same"
    return {"a": value_a, "b": value_b, "worse_by": worse_by, "noise": noise, "verdict": verdict}


def compare(side_a: dict, side_b: dict, contract: dict, single: bool) -> list[dict]:
    rows = []
    for workload in side_a:
        if workload not in side_b:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            if name not in side_a[workload] or name not in side_b[workload]:
                continue
            row = judge(
                side_a[workload][name], side_b[workload][name],
                metric["better"], metric["bound"], single,
            )
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "bound": metric["bound"], **row})
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="A.json B.json")
    parser.add_argument("--a", nargs="+", default=None, help="parent runs")
    parser.add_argument("--b", nargs="+", default=None, help="change runs")
    args = parser.parse_args(argv)
    if args.a and args.b:
        paths_a, paths_b = args.a, args.b
    elif len(args.files) == 2:
        paths_a, paths_b = [args.files[0]], [args.files[1]]
    else:
        parser.error("give A.json B.json, or --a ... --b ...")
    single = len(paths_a) == 1 and len(paths_b) == 1
    rows = compare(load_side(paths_a), load_side(paths_b), common.contract(), single)
    print(f"{'workload':<20}{'metric':<14}{'A':>12}{'B':>12}  {'unit':<5}"
          f"{'worse by':>10}{'bound':>8}{'noise':>8}  verdict")
    for row in rows:
        print(f"{row['workload']:<20}{row['metric']:<14}{row['a']:>12.4f}{row['b']:>12.4f}"
              f"  {row['unit']:<5}{row['worse_by']:>+10.3f}{row['bound']:>8.2f}"
              f"{row['noise']:>8.3f}  {row['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in rows) for v in ("better", "same", "worse", "unresolved")}
    print("  ".join(f"{k}: {v}" for k, v in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
