"""Figure 14: MoE vs dense resilience by task type."""

import numpy as np

from repro.harness.experiments import fig14_moe_vs_dense


def test_bench_fig14(ctx, emit):
    result = fig14_moe_vs_dense(ctx)
    emit(result)
    assert len(result.rows) == 8  # 4 tasks x {moe, dense}
    normalized = [r["normalized"] for r in result.rows]
    assert all(np.isnan(v) or v >= 0 for v in normalized)
