"""Figure 20: Chain-of-Thought vs direct answering under faults."""

import numpy as np

from repro.harness.experiments import fig20_chain_of_thought


def test_bench_fig20(ctx, emit):
    result = fig20_chain_of_thought(ctx)
    emit(result)
    # Observation #10 shape: with computational faults confined to the
    # reasoning segment, CoT accuracy stays near the fault-free level.
    cot_comp = [
        r["normalized"]
        for r in result.rows
        if r["mode"] == "cot" and r["fault"] == "2bits-comp"
        and np.isfinite(r["normalized"])
    ]
    if cot_comp:
        assert np.mean(cot_comp) > 0.7
