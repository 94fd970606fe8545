"""Paths, child environment and the metric contract shared by the ledger.

Nothing here imports ``repro``: the orchestrator (``run.py``) and
``compare.py`` stay importable in a tree that has no ``src/``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import time
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
CACHE_DIR = LEDGER_DIR / "cache"
"""Reference-pair weight cache (``REPRO_ARTIFACTS`` points here) plus the
temp directory campaign arenas are exported into.  Git-ignored."""
OUT_DIR = LEDGER_DIR / "out"
"""Result JSONs and span dumps.  Git-ignored."""
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

TARGET = "qwenlike-base"
MAX_BATCH = 8
SPEC_DEPTH = 4
OPEN_RATE_RPS = 150.0
STRESS_RATE_RPS = 300.0
SLO_TTFT_MS = 25.0
SLO_TPOT_MS = 5.0
NOMINAL_SEGMENT_S = 5.0
"""Timed seconds one full-size segment takes on the seed host; the work of
a segment is ``(seconds / rounds) / NOMINAL_SEGMENT_S`` of full size."""

WORKLOADS = (
    "serve_open",
    "serve_closed",
    "serve_spec_closed",
    "campaign_gen_comp",
    "campaign_mc_mem",
    "campaign_pool",
)
SERVE_WORKLOADS = WORKLOADS[:3]
GEN_TASKS = ("gsm8k", "wmt16", "xlsum", "squadv2")
MC_TASKS = ("mmlu", "arc", "truthfulqa", "winogrande", "hellaswag")
GEN_FAULTS = ("1bit-comp", "2bits-comp")
MC_FAULT = "2bits-mem"
GEN_CELLS = tuple((t, f) for t in GEN_TASKS for f in GEN_FAULTS)
MC_CELLS = tuple((t, MC_FAULT) for t in MC_TASKS)


def now() -> float:
    """System-wide monotonic clock: comparable between the orchestrator
    and the segment it spawned, which is how set-up is timed from process
    start."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    """Environment of every segment: BLAS pinned to one thread, the weight
    cache and every temp file inside the ledger directory."""
    env = dict(os.environ)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = "1"
    env["REPRO_ARTIFACTS"] = str(CACHE_DIR)
    env["TMPDIR"] = str(CACHE_DIR / "tmp")
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + path if path else "")
    return env


def contract() -> dict:
    """``BENCHMARK.json`` as committed at the repo root."""
    with BENCHMARK_JSON.open(encoding="utf-8") as fh:
        return json.load(fh)


def work_scale(seconds: float, rounds: int, smoke: bool) -> float:
    """Share of full-size work one segment runs.  A function of the
    arguments alone, never of measured speed, so two commits given the same
    command line do identical work."""
    if smoke:
        return 0.2
    return max(0.05, (seconds / rounds) / NOMINAL_SEGMENT_S)


def load_trace_module():
    """``trace.py`` (the name the issue gave it) shares its name with a
    stdlib module, so it is loaded by path under ``ledger_trace``."""
    module = sys.modules.get("ledger_trace")
    if module is None:
        spec = importlib.util.spec_from_file_location("ledger_trace", LEDGER_DIR / "trace.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["ledger_trace"] = module
        spec.loader.exec_module(module)
    return module
