"""Shared fixtures for the benchmark harness.

``bench_study.py`` reproduces the paper's tables and figures (one test
per row of ``repro.harness.STUDY``) and the three extension benches add
ablations, the layer-vulnerability profile and the mitigation studies,
all over the trained zoo models (built on first use and cached under
``artifacts/``).  Every result is printed and archived as
``artifacts/results/<id>.txt``, which is what
``scripts/write_experiments_md.py`` puts into EXPERIMENTS.md.

Scale knobs: ``REPRO_BENCH_TRIALS`` / ``REPRO_BENCH_EXAMPLES`` override
the bench-friendly defaults (the paper's own scale is 100 examples and
500-3000 trials per cell).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness import ExperimentContext, ExperimentResult, format_table
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
def emit(results_dir):
    """Print a result table and archive it under artifacts/results/."""

    def _emit(result: ExperimentResult) -> ExperimentResult:
        text = format_table(result)
        print("\n" + text)
        (results_dir / f"{result.experiment_id}.txt").write_text(text + "\n")
        return result

    return _emit
