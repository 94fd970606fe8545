"""Figure 15: memory faults restricted to MoE gate (router) layers."""

from repro.harness.experiments import fig15_gate_faults


def test_bench_fig15(ctx, emit):
    result = fig15_gate_faults(ctx)
    emit(result)
    row = result.rows[0]
    # Router faults frequently flip expert selections (paper: 78.6%) -
    # require a clearly nonzero rate; exact value depends on substrate.
    assert row["selection_changed_rate"] > 0.2
    # Quality degrades only mildly (paper: ~2%).
    assert row["bleu_normalized"] > 0.5
