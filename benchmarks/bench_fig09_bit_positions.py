"""Figure 9: subtle-SDC proportion by highest flipped bit position."""

import os

from repro.harness.experiments import fig09_bit_positions_subtle


def test_bench_fig09(ctx, emit):
    n_trials = int(os.environ.get("REPRO_BENCH_BIT_TRIALS", 90))
    result = fig09_bit_positions_subtle(ctx=ctx, n_trials=n_trials)
    emit(result)
    # SDC-producing bits should skew high: the weighted-mean bit of
    # subtle SDCs exceeds the middle of the fp32 bit range rarely hit
    # by low mantissa bits.
    weighted = [
        (row["highest_bit"], row["count"]) for row in result.rows if row["count"]
    ]
    if weighted:
        mean_bit = sum(b * c for b, c in weighted) / sum(c for _, c in weighted)
        assert mean_bit > 10.0
