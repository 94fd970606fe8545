"""Figure 17: GPTQ-quantized variants vs BF16 under memory faults."""

import numpy as np

from repro.harness.experiments import fig17_quantization


def test_bench_fig17(ctx, emit):
    result = fig17_quantization(ctx)
    emit(result)

    def mean_norm(variant: str) -> float:
        vals = [
            r["normalized"]
            for r in result.rows
            if r["variant"] == variant and np.isfinite(r["normalized"])
        ]
        return float(np.mean(vals))

    # Observation #8: quantized storage is *more* resilient than BF16
    # because an integer-code flip cannot produce 2^128-scale values.
    assert mean_norm("GPTQ-8bit") >= mean_norm("BF16") - 0.02
    assert mean_norm("GPTQ-4bit") >= mean_norm("BF16") - 0.02
