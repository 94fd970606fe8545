"""Tests for the command-line interface."""

import dataclasses
import importlib
from types import SimpleNamespace

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


class TestKeptFlags:
    """Each flag ``serve`` and ``obs watch`` keep reaches its callee;
    no model loads and nothing is served (the callees are stand-ins)."""

    @pytest.fixture
    def served(self, monkeypatch):
        """What ``repro serve`` handed its server, load generator and
        equivalence gate."""
        import repro.harness.context
        import repro.serve
        import repro.serve.loadgen
        from repro.serve.loadgen import PromptSpec

        calls = {}
        vocab = SimpleNamespace(eos_id=2)

        class Context:
            def __init__(self, seed):
                self.world, self.tokenizer = None, SimpleNamespace(vocab=vocab)

            def engine(self, name):
                return name

        class Server:
            def __init__(self, engine, config, **kwargs):
                calls["server"] = kwargs
                self.prompt_cache = SimpleNamespace(tokens=0)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        def run_load(server, prompts, **kwargs):
            calls["load"] = prompts
            latency = {"p50": 1.0, "p99": 2.0}
            return SimpleNamespace(
                offered_rps=kwargs["offered_rps"], completed=len(prompts), rejected=0,
                throughput_tps=1.0, ttft_ms=latency, latency_ms=latency, to_dict=dict,
            )

        def gate(engine, config, prompts, max_batch, **kwargs):
            calls["gate"] = config, prompts, max_batch
            return len(prompts)

        prompts = [PromptSpec("gsm8k", (5, 6), 9), PromptSpec("wmt16", (7,), 30)]
        monkeypatch.setattr(repro.harness.context, "ExperimentContext", Context)
        monkeypatch.setattr(repro.serve, "InferenceServer", Server)
        monkeypatch.setattr(repro.serve.loadgen, "run_load", run_load)
        monkeypatch.setattr(repro.serve.loadgen, "equivalence_gate", gate)
        monkeypatch.setattr(
            repro.serve.loadgen, "mixed_task_prompts", lambda **kwargs: prompts
        )
        return calls

    def test_serve_max_batch_reaches_the_server_and_the_gate(self, served, capsys):
        assert main(["serve", "qwenlike-tiny", "--max-batch", "3"]) == 0
        assert served["server"]["max_batch"] == 3
        assert served["gate"][2] == 3
        assert "equivalence gate: 2 prompts" in capsys.readouterr().out

    def test_serve_max_new_tokens_sets_every_prompts_budget(self, served):
        assert main(["serve", "qwenlike-tiny"]) == 0
        assert [p.max_new for p in served["load"]] == [9, 30]
        assert main(["serve", "qwenlike-tiny", "--max-new-tokens", "4"]) == 0
        assert [p.max_new for p in served["load"]] == [4, 4]
        config, gated, _ = served["gate"]
        assert [p.max_new for p in gated] == [4, 4] and config.max_new_tokens == 4

    @pytest.fixture
    def watched(self, monkeypatch):
        """The keyword arguments ``repro obs watch`` called ``watch`` with."""
        calls = {}

        def watch(path, **kwargs):
            calls[path] = kwargs
            return 0

        # ``repro.obs.watch`` names the function re-exported there.
        monkeypatch.setattr(importlib.import_module("repro.obs.watch"), "watch", watch)
        return calls

    def test_watch_interval_reaches_watch(self, watched):
        assert main(["obs", "watch", "run.jsonl", "--interval", "0.25"]) == 0
        assert watched["run.jsonl"]["interval"] == 0.25

    def test_watch_total_reaches_watch(self, watched):
        assert main(["obs", "watch", "run.jsonl"]) == 0
        assert watched["run.jsonl"]["total"] is None
        assert main(["obs", "watch", "run.jsonl", "--total", "7"]) == 0
        assert watched["run.jsonl"]["total"] == 7
