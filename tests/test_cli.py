"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro.cli import build_parser, main
from repro.harness import STUDY
from repro.zoo import ZOO
from repro.zoo.registry import ZooSpec


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_models(self):
        args = build_parser().parse_args(["list-models"])
        assert args.command == "list-models"

    def test_campaign_args(self):
        args = build_parser().parse_args(
            ["campaign", "qwenlike-base", "wmt16", "2bits-mem",
             "--trials", "50", "--policy", "int4"]
        )
        assert args.trials == 50
        assert args.policy == "int4"

    def test_workers_auto_counts_the_cpus_it_may_run_on(self, monkeypatch):
        """A container or an affinity mask can confine the process to
        fewer CPUs than the machine has."""
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        monkeypatch.setattr(
            "os.sched_getaffinity", lambda pid: {0, 5, 9}, raising=False
        )
        args = build_parser().parse_args(
            ["campaign", "qwenlike-base", "wmt16", "2bits-mem", "--workers", "auto"]
        )
        assert args.workers == 3
        monkeypatch.delattr("os.sched_getaffinity")
        args = build_parser().parse_args(
            ["campaign", "qwenlike-base", "wmt16", "2bits-mem", "--workers", "auto"]
        )
        assert args.workers == 64

    def test_unknown_fault_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "qwenlike-base", "wmt16", "3bits-mem"]
            )

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_experiment_ids_cover_all_figures(self):
        parser = build_parser()
        assert len(STUDY) == 20
        for fig in STUDY:
            args = parser.parse_args(["experiment", fig])
            assert args.id == fig


class TestCommands:
    def test_list_models_runs(self, capsys):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        assert "qwenlike-base" in out
        assert "moelike-base" in out

    def test_build_nothing_errors(self, capsys):
        assert main(["build"]) == 2

    def test_build_tiny_spec(self, tmp_path, monkeypatch, capsys):
        spec = dataclasses.replace(
            ZOO["qwenlike-tiny"], steps=20, corpus_docs=200
        )
        monkeypatch.setitem(ZOO, "qwenlike-tiny", spec)
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        assert main(["build", "qwenlike-tiny"]) == 0
        assert "ready" in capsys.readouterr().out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "FP16" in out and "BF16" in out
