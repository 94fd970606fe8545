"""Table 2: floating-point format layouts and ranges."""

from repro.harness.experiments import table2_formats


def test_bench_table2(ctx, emit):
    result = table2_formats(ctx)
    emit(result)
    by_name = {row["format"]: row for row in result.rows}
    assert by_name["FP16"]["max_finite"] == 65504.0
    assert by_name["BF16"]["exp_bits"] == by_name["FP32"]["exp_bits"] == 8
