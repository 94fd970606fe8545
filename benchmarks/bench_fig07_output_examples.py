"""Figures 7/12: concrete subtle-wrong and distorted output examples."""

from repro.harness.experiments import fig07_output_examples


def test_bench_fig07(ctx, emit):
    result = fig07_output_examples(ctx)
    emit(result)
    # At least one SDC example should surface from a memory campaign.
    assert len(result.rows) >= 1
    for row in result.rows:
        assert row["kind"] in ("sdc-subtle", "sdc-distorted")
