"""Figure 10: distorted outputs come only from top exponent bits."""

import os

from repro.harness.experiments import fig10_bit_positions_distorted


def test_bench_fig10(ctx, emit):
    n_trials = int(os.environ.get("REPRO_BENCH_BIT_TRIALS", 90))
    result = fig10_bit_positions_distorted(ctx=ctx, n_trials=n_trials)
    emit(result)
    # Paper: the proportion is 0 for mantissa bits — low-bit flips can
    # never distort output structure.  BF16 mantissa = bits 0..6.
    low_bits = [r for r in result.rows if r["highest_bit"] < 7]
    assert all(r["count"] == 0 for r in low_bits)
