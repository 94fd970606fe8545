"""Figure 16: resilience across the qwenlike scale sweep."""

import numpy as np

from repro.harness.experiments import fig16_model_scale


def test_bench_fig16(ctx, emit):
    result = fig16_model_scale(ctx)
    emit(result)
    # Obs #7: model scale is not a major resilience factor — the
    # normalized performance spread across sizes stays bounded and
    # shows no monotone trend.
    values = [r["normalized"] for r in result.rows if np.isfinite(r["normalized"])]
    assert values
    per_size: dict[int, list[float]] = {}
    for row in result.rows:
        if np.isfinite(row["normalized"]):
            per_size.setdefault(row["d_model"], []).append(row["normalized"])
    means = [np.mean(v) for _, v in sorted(per_size.items())]
    diffs = np.diff(means)
    assert not (all(d > 0.02 for d in diffs) or all(d < -0.02 for d in diffs)), (
        "scale sweep should not show a strictly monotone resilience trend"
    )
