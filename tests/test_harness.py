"""Tests for the experiment harness (context, results, static tables)."""

import importlib.util
import math
import sys
from pathlib import Path

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


class TestStudyDriver:
    def test_figure3_is_swept_once(self, tmp_path, monkeypatch):
        """Figures 4 and 11 aggregate Figure 3's rows: the driver hands
        them that result instead of letting each repeat the sweep."""
        sweeps = []

        def fig03(ctx):
            sweeps.append(ctx)
            result = ExperimentResult("fig03", "stub sweep")
            for task in TASK_MODELS:
                for fault in FaultModel.all():
                    result.add(task=task, fault=fault.value, normalized=0.5)
            return result

        monkeypatch.setattr(E, "fig03_overall", fig03)
        script = Path(__file__).parents[1] / "scripts" / "run_full_study.py"
        spec = importlib.util.spec_from_file_location("run_full_study", script)
        study = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(study)
        monkeypatch.setattr(
            study, "EXPERIMENTS", [fig03, E.fig04_fault_models, E.fig11_per_task]
        )
        monkeypatch.setattr(study.subprocess, "run", lambda *args, **kw: None)
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        monkeypatch.setattr(sys, "argv", [script.name, "--skip-build"])
        assert study.main() == 0
        assert len(sweeps) == 1
        assert sorted(p.name for p in (tmp_path / "results").iterdir()) == [
            "fig03.txt", "fig04.txt", "fig11.txt",
        ]
