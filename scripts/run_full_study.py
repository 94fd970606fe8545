"""One-command full reproduction driver.

Builds the model zoo (cached), runs every paper experiment at the
requested scale, archives each result table under
``artifacts/results/`` and regenerates EXPERIMENTS.md.

    python scripts/run_full_study.py                # bench scale
    python scripts/run_full_study.py --trials 500 --examples 50   # paper-ish

Every experiment logs its own and the running wall-clock as it finishes.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

from repro.harness import ExperimentContext, format_table
from repro.harness import experiments as E
from repro.zoo import artifacts_dir, load_model, zoo_names

EXPERIMENTS = [
    E.table1_workloads,
    E.table2_formats,
    E.fig03_overall,
    E.fig04_fault_models,
    E.fig05_memory_propagation,
    E.fig06_computational_propagation,
    E.fig07_output_examples,
    E.fig08_sdc_breakdown,
    E.fig09_bit_positions_subtle,
    E.fig10_bit_positions_distorted,
    E.fig11_per_task,
    E.fig13_weight_distributions,
    E.fig14_moe_vs_dense,
    E.fig15_gate_faults,
    E.fig16_model_scale,
    E.fig17_quantization,
    E.fig18_beam_vs_greedy,
    E.fig19_beam_tradeoff,
    E.fig20_chain_of_thought,
    E.fig21_dtypes,
]

AGGREGATES_OF_FIG03 = (E.fig04_fault_models, E.fig11_per_task)
"""Tables computed from Figure 3's rows: handed that result, they run no
campaign (left to themselves each would repeat its 78-cell sweep)."""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials", type=int, default=36)
    parser.add_argument("--examples", type=int, default=8)
    parser.add_argument("--seed", type=int, default=20251116)
    parser.add_argument("--skip-build", action="store_true")
    args = parser.parse_args()

    if not args.skip_build:
        for name in zoo_names():
            load_model(name)

    ctx = ExperimentContext(
        n_examples=args.examples, n_trials=args.trials, seed=args.seed
    )
    results_dir = artifacts_dir() / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    overall = None
    for fn in EXPERIMENTS:
        start = time.time()
        result = fn(ctx, overall) if fn in AGGREGATES_OF_FIG03 else fn(ctx)
        if fn is E.fig03_overall:
            overall = result
        text = format_table(result)
        (results_dir / f"{result.experiment_id}.txt").write_text(text + "\n")
        print(text)
        print(f"[{result.experiment_id} done in {time.time() - start:.0f}s,"
              f" total {time.time() - t0:.0f}s]\n", flush=True)

    # Regenerate the paper-vs-measured report.
    script = Path(__file__).with_name("write_experiments_md.py")
    subprocess.run([sys.executable, str(script)], check=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
