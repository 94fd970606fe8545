"""Shared fixtures for the benchmark harness.

Each bench reproduces one paper table/figure over the trained zoo
models (built on first use and cached under ``artifacts/``).  Results
are printed and archived under ``artifacts/results/`` so EXPERIMENTS.md
can cite them.

Scale knobs: ``REPRO_BENCH_TRIALS`` / ``REPRO_BENCH_EXAMPLES`` override
the bench-friendly defaults (the paper's own scale is 100 examples and
500-3000 trials per cell).
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import pytest

from repro.harness import ExperimentContext, ExperimentResult, format_table
from repro.obs import MetricsRegistry, build_manifest
from repro.zoo import artifacts_dir


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    return ExperimentContext(
        n_examples=int(os.environ.get("REPRO_BENCH_EXAMPLES", 8)),
        n_trials=int(os.environ.get("REPRO_BENCH_TRIALS", 36)),
        seed=20251116,
    )


@pytest.fixture(scope="session")
def results_dir() -> Path:
    path = artifacts_dir() / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def emit(results_dir, ctx):
    """Print a result table and archive it under artifacts/results/.

    Besides the human-readable ``<id>.txt``, every emit writes a
    machine-readable ``BENCH_<id>.json`` (trial counts, wall time since
    the previous emit, normalized-performance quantiles, a metrics
    snapshot and the run manifest) so the perf trajectory across PRs is
    diffable.
    """
    state = {"last": time.perf_counter()}

    def _emit(result: ExperimentResult) -> ExperimentResult:
        now = time.perf_counter()
        wall_s = now - state["last"]
        state["last"] = now
        text = format_table(result)
        print("\n" + text)
        (results_dir / f"{result.experiment_id}.txt").write_text(text + "\n")

        registry = MetricsRegistry()
        registry.counter("bench.rows").add(len(result.rows))
        registry.histogram("bench.wall_s").observe(wall_s)
        for row in result.rows:
            value = row.get("normalized")
            if isinstance(value, (int, float)) and math.isfinite(value):
                registry.histogram("bench.normalized").observe(float(value))
        payload = {
            "bench_id": result.experiment_id,
            "title": result.title,
            "wall_s": wall_s,
            "n_rows": len(result.rows),
            "trials_per_cell": ctx.n_trials,
            "examples_per_cell": ctx.n_examples,
            "normalized": registry.histogram("bench.normalized").summary(),
            "metrics": registry.snapshot(),
            "manifest": build_manifest(
                seed=ctx.seed,
                config={
                    "bench": result.experiment_id,
                    "trials": ctx.n_trials,
                    "examples": ctx.n_examples,
                },
                command=f"bench:{result.experiment_id}",
            ),
        }
        (results_dir / f"BENCH_{result.experiment_id}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
        )
        return result

    return _emit
