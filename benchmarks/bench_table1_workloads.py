"""Table 1: the workload roster (tasks x datasets x metrics x models)."""

from repro.harness.experiments import table1_workloads


def test_bench_table1(ctx, emit):
    result = table1_workloads(ctx)
    emit(result)
    assert len(result.rows) == 9
    kinds = {row["kind"] for row in result.rows}
    assert kinds == {"multiple_choice", "generative"}
