"""Figure 18: beam search vs greedy under computational faults."""

import numpy as np

from repro.harness.experiments import fig18_beam_vs_greedy


def test_bench_fig18(ctx, emit):
    result = fig18_beam_vs_greedy(ctx)
    emit(result)
    # Observation #9 shape: averaged over the evaluated cells, beam
    # search should not be less resilient than greedy.
    greedy = [
        r["normalized"] for r in result.rows
        if r["strategy"] == "greedy" and np.isfinite(r["normalized"])
    ]
    beam = [
        r["normalized"] for r in result.rows
        if r["strategy"] == "beam" and np.isfinite(r["normalized"])
    ]
    assert np.mean(beam) >= np.mean(greedy) - 0.05
