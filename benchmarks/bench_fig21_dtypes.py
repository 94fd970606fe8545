"""Figure 21: FP16 vs FP32 vs BF16 storage-format resilience."""

import dataclasses
import os

import numpy as np

from repro.harness.experiments import fig21_dtypes


def test_bench_fig21(ctx, emit):
    # Resolving the FP16 < FP32 < BF16 vulnerability ordering needs a
    # larger sample than the per-cell default.
    boosted = dataclasses.replace(
        ctx, n_trials=int(os.environ.get("REPRO_BENCH_BIT_TRIALS", 90))
    )
    result = fig21_dtypes(boosted)
    emit(result)

    def mean_norm(dtype: str) -> float:
        vals = [
            r["normalized"]
            for r in result.rows
            if r["dtype"] == dtype and np.isfinite(r["normalized"])
        ]
        return float(np.mean(vals))

    # Observation #11: the format with the smallest representable range
    # (FP16, 5 exponent bits) is most resilient; BF16 least.
    assert mean_norm("FP16") >= mean_norm("BF16") - 0.02
