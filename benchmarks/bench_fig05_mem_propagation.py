"""Figure 5: memory-fault propagation (column -> whole next tensor)."""

from repro.harness.experiments import fig05_memory_propagation


def test_bench_fig05(ctx, emit):
    result = fig05_memory_propagation(ctx)
    emit(result)
    injected, downstream = result.rows
    # Column-shaped corruption in the injected layer...
    assert injected["corrupted_columns"] == 1
    assert injected["target_column_fraction"] == 1.0
    # ...blanketing the next layer's tensor.
    assert downstream["corrupted_fraction"] > 0.9
