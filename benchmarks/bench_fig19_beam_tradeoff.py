"""Figure 19: resilience vs runtime across beam counts."""

from repro.harness.experiments import fig19_beam_tradeoff


def test_bench_fig19(ctx, emit):
    result = fig19_beam_tradeoff(ctx)
    emit(result)
    by_beams = {r["num_beams"]: r for r in result.rows}
    # Runtime grows with beam count (the trade-off's cost side).
    assert (
        by_beams[max(by_beams)]["runtime_per_trial_ms"]
        > by_beams[1]["runtime_per_trial_ms"]
    )
