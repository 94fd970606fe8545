"""Figure 6: computational-fault propagation (single row, contained)."""

from repro.harness.experiments import fig06_computational_propagation


def test_bench_fig06(ctx, emit):
    result = fig06_computational_propagation(ctx)
    emit(result)
    injected = result.rows[0]
    next_layer = result.rows[1]
    assert injected["corrupted_rows"] == 1
    assert next_layer["corrupted_rows"] == 1  # still one token
    # Containment: far below the memory fault's near-total corruption.
    assert next_layer["corrupted_fraction"] < 0.5
