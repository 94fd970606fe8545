"""Figure 3: normalized performance over every task/model/fault cell.

This is the headline measurement; Figures 4 and 11 aggregate it, so the
bench emits all three from a single campaign sweep.
"""

import numpy as np

from repro.harness.experiments import fig03_overall, fig04_fault_models, fig11_per_task


def test_bench_fig03_fig04_fig11(ctx, emit):
    overall = fig03_overall(ctx)
    emit(overall)
    fig04 = emit(fig04_fault_models(ctx, overall))
    fig11 = emit(fig11_per_task(ctx, overall))

    # Shape checks (paper Observations #1 and #2).
    by_fault = {row["fault"]: row["mean_normalized"] for row in fig04.rows}
    assert by_fault["2bits-mem"] <= min(
        by_fault["1bit-comp"], by_fault["2bits-comp"]
    ) + 0.02, "memory faults should degrade at least as much as computational"

    values = [
        row["normalized"] for row in overall.rows if np.isfinite(row["normalized"])
    ]
    assert values, "campaigns must produce normalized performance values"
    assert float(np.mean(values)) > 0.7, "average degradation should be modest"
