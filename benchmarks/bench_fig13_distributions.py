"""Figure 13: weight/activation value distributions per model family."""

from repro.harness.experiments import fig13_weight_distributions


def test_bench_fig13(ctx, emit):
    result = fig13_weight_distributions(ctx)
    emit(result)
    # The three families were built with distinct init gains; after
    # training, weight spreads partly converge but the *neuron*
    # (activation) distributions remain clearly distinct (Obs #3 —
    # Fig. 13 plots both weights and neurons).
    neuron = sorted(row["neuron_std"] for row in result.rows)
    assert neuron[-1] > 1.5 * neuron[0]
    weight = sorted(row["weight_std"] for row in result.rows)
    assert weight[-1] > 1.05 * weight[0]
