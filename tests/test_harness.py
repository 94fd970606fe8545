"""Tests for the experiment harness (context, results, static tables)."""

import importlib.util
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.fi import FaultModel
from repro.harness import ExperimentContext, ExperimentResult, format_table
from repro.harness import experiments as E
from repro.harness.experiments import (
    TASK_MODELS,
    table1_workloads,
    table2_formats,
)

SCRIPTS = Path(__file__).parents[1] / "scripts"


class TestExperimentResult:
    def test_add_and_column(self):
        result = ExperimentResult("x", "title")
        result.add(a=1, b=2.5)
        result.add(a=3, b=4.5)
        assert result.column("a") == [1, 3]

    def test_format_table(self):
        result = ExperimentResult("fig0", "demo")
        result.add(model="m", value=0.123456)
        result.note("a note")
        text = format_table(result)
        assert "fig0" in text and "model" in text and "0.1235" in text
        assert "note: a note" in text

    def test_format_handles_ragged_rows(self):
        result = ExperimentResult("x", "t")
        result.add(a=1)
        result.add(b=2)
        text = format_table(result)
        assert "a" in text and "b" in text

    def test_str(self):
        assert "demo" in str(ExperimentResult("id", "demo"))


class TestStaticTables:
    def test_table1_lists_all_nine(self):
        ctx = ExperimentContext()
        result = table1_workloads(ctx)
        assert len(result.rows) == 9
        assert set(result.column("task")) == set(TASK_MODELS)
        for row in result.rows:
            assert row["metrics"]
            assert row["models"]

    def test_table2_matches_paper(self):
        result = table2_formats()
        by_name = {row["format"]: row for row in result.rows}
        assert by_name["FP16"]["exp_bits"] == 5
        assert by_name["BF16"]["exp_bits"] == 8
        assert by_name["FP16"]["max_finite"] == 65504.0
        assert by_name["BF16"]["max_finite"] > 1e38


class TestContext:
    def test_world_and_tokenizer_cached(self):
        ctx = ExperimentContext()
        assert ctx.world is ctx.world
        assert ctx.tokenizer is ctx.tokenizer

    def test_tasks_lookup(self):
        ctx = ExperimentContext()
        assert ctx.task("gsm8k").name == "gsm8k"
        with pytest.raises(KeyError):
            ctx.task("nope")

    def test_examples_sized(self):
        ctx = ExperimentContext(n_examples=5)
        assert len(ctx.examples("mmlu")) == 5
        assert len(ctx.examples("mmlu", 3)) == 3

    def test_generation_config(self):
        ctx = ExperimentContext()
        cfg = ctx.generation(ctx.task("wmt16"), num_beams=2)
        assert cfg.num_beams == 2
        assert cfg.eos_id == ctx.tokenizer.vocab.eos_id

    def test_task_models_cover_table1(self):
        assert set(TASK_MODELS) == {
            "mmlu", "arc", "truthfulqa", "winogrande", "hellaswag",
            "gsm8k", "wmt16", "xlsum", "squadv2",
        }


def _script(name: str):
    path = SCRIPTS / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_session(monkeypatch, tmp_path, *ids: str) -> None:
    """Run ``benchmarks/bench_study.py`` for ``ids`` in this process, so
    the session sees the caller's stubs; tables go under ``tmp_path``."""
    monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
    for knob in ("REPRO_BENCH_TRIALS", "REPRO_BENCH_EXAMPLES"):
        monkeypatch.delenv(knob, raising=False)
    code = pytest.main([
        str(SCRIPTS.parent / "benchmarks" / "bench_study.py"),
        "-p", "no:cacheprovider", "-k", " or ".join(ids),
    ])
    assert code == 0


class TestStudyDriver:
    def test_study_is_the_one_list(self):
        """The bench session, the CLI and the report cite the same ids."""
        from benchmarks.bench_study import SHAPE_CHECKS

        sections = _script("write_experiments_md").SECTIONS
        assert [s for s in sections if s.startswith(("table", "fig"))] == list(
            E.STUDY
        )
        assert set(SHAPE_CHECKS) == set(E.STUDY)
        for entry in E.STUDY.values():
            assert entry.aggregates is None or entry.aggregates in E.STUDY

    def test_figure3_is_swept_once(self, tmp_path, monkeypatch):
        """Figures 4 and 11 aggregate Figure 3's rows: the bench session
        hands them that result instead of letting each repeat the sweep."""
        sweeps = []

        def fig03(ctx):
            sweeps.append(ctx)
            result = ExperimentResult("fig03", "stub sweep")
            for task in TASK_MODELS:
                for fault in FaultModel.all():
                    result.add(task=task, fault=fault.value, normalized=0.9)
            return result

        monkeypatch.setitem(E.STUDY, "fig03", E.StudyEntry(fig03))
        _bench_session(monkeypatch, tmp_path, "fig03", "fig04", "fig11")
        assert len(sweeps) == 1
        assert sorted(p.name for p in (tmp_path / "results").iterdir()) == [
            "fig03.txt", "fig04.txt", "fig11.txt",
        ]

    def test_figure9_runs_90_trials_from_every_caller(
        self, tmp_path, monkeypatch
    ):
        """The bit-position boost is the table's, not a caller's: the
        bench session and ``repro experiment`` both hand ``run_cell`` a
        90-trial context (the script runs the bench session)."""
        from repro.cli import main

        trials = []

        def run_cell(self, model_name, task_name, fault_model, n_trials=None, **_):
            trials.append(n_trials or self.n_trials)
            return SimpleNamespace(outcomes_by_highest_bit=lambda: {})

        monkeypatch.delenv("REPRO_BENCH_BIT_TRIALS", raising=False)
        monkeypatch.setattr(ExperimentContext, "run_cell", run_cell)
        _bench_session(monkeypatch, tmp_path, "fig09")
        from_bench = len(trials)
        assert main(["experiment", "fig09", "--trials", "5"]) == 0
        assert len(trials) == 2 * from_bench > 0
        assert set(trials) == {90}

    def test_script_runs_the_bench_session_then_the_report(
        self, tmp_path, monkeypatch
    ):
        """``run_full_study.py`` is the bench session plus the report: it
        forwards unknown arguments to pytest, passes the scale through the
        bench's own environment knobs and writes no table itself."""
        study = _script("run_full_study")
        calls = []

        def run(command, env=None, **kwargs):
            calls.append((command, env))
            return SimpleNamespace(returncode=0)

        monkeypatch.setattr(study.subprocess, "run", run)
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        monkeypatch.delenv("REPRO_BENCH_BIT_TRIALS", raising=False)
        monkeypatch.setattr(
            sys, "argv", ["run_full_study.py", "--trials", "4", "-k", "fig05"]
        )
        assert study.main() == 0
        (bench, bench_env), (report, _) = calls
        assert bench[1:3] == ["-m", "pytest"]
        assert str(SCRIPTS.parent / "benchmarks") in bench
        assert f"--ignore={SCRIPTS.parent / 'benchmarks' / 'ledger'}" in bench
        assert bench[-2:] == ["-k", "fig05"]
        assert bench_env["REPRO_BENCH_TRIALS"] == "4"
        assert "REPRO_BENCH_EXAMPLES" not in bench_env
        assert "REPRO_BENCH_BIT_TRIALS" not in bench_env
        assert report[1:] == [str(SCRIPTS / "write_experiments_md.py")]
        assert list(tmp_path.iterdir()) == []


class TestExperimentsReport:
    def test_refresh_replaces_tables_and_nothing_else(self, tmp_path):
        report = _script("write_experiments_md")
        committed = (SCRIPTS.parent / "EXPERIMENTS.md").read_text()
        results = SCRIPTS.parent / "artifacts" / "results"
        assert report.refresh(committed, results) == committed

        for path in results.glob("*.txt"):
            (tmp_path / path.name).write_text(path.read_text())
        (tmp_path / "fig05.txt").write_text("== fig05: rerun ==\nrow\n")
        (tmp_path / "fig06.txt").unlink()
        refreshed = report.refresh(committed, tmp_path)
        assert "```\n== fig05: rerun ==\nrow\n```" in refreshed
        assert report.refresh(refreshed, results) == committed

    def test_refresh_names_a_table_the_document_lacks(self, tmp_path):
        report = _script("write_experiments_md")
        with pytest.raises(SystemExit, match="fig21"):
            report.refresh("# no tables here\n", tmp_path)
