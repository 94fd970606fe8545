"""The traced campaign smoke's serial/2-worker pairs, read back from the
run files they export.

Each pair runs ``scripts/smoke_campaign.py`` twice in this process —
serially and on two workers (one fork plus this process) — on the
script's one tiny model, trained once.  Every run must pass the
script's own checks (trial count, layer timing, outcome tallies and,
on a multiple-choice task, the untraced re-run's equal records), and
the two run files, read through :func:`repro.obs.export.read_run`,
must show:

* no trial of these greedy campaigns running alone
  (``campaign.lone_trials.*``);
* equal golden-pass and per-trial counters serially and on two workers;
* one fault-free pass per example: a multiple-choice campaign builds
  ``examples`` option passes; generative campaigns back to back on one
  engine build ``examples`` golden runs and the later ones reuse them
  (``campaign.golden.shared``);
* under ``--max-fault-iterations 1``, every trial prefilled: no trial
  resumed a golden run.

The pairs: ``mc`` (a multiple-choice ``2bits-mem`` campaign keys each
trial's weight fault to its own option rows), ``mc-comp`` (``1bit-comp``
pins each trial's hook to its own option row), ``mc-kv`` (``2bits-kv``
keys each trial's KV fault to its row), ``comp0`` (every ``2bits-comp``
trial struck at iteration 0) and ``shared`` (three fault-model
campaigns back to back on one engine, the ``2bits-mem`` one's wave rows
prefilled under their row-keyed weight faults).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.obs import flight_recorder, telemetry
from repro.obs.export import read_run

SCRIPT = Path(__file__).parent.parent / "scripts" / "smoke_campaign.py"

PAIRS = {
    "mc": ["--task", "mmlu", "--fault", "2bits-mem"],
    "mc-comp": ["--task", "mmlu", "--fault", "1bit-comp"],
    "mc-kv": ["--task", "mmlu", "--fault", "2bits-kv"],
    "comp0": ["--fault", "2bits-comp", "--max-fault-iterations", "1"],
    "shared": ["--fault", "1bit-comp", "--fault", "2bits-comp", "--fault", "2bits-mem"],
}


@pytest.fixture(scope="module")
def smoke():
    spec = importlib.util.spec_from_file_location("smoke_campaign", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def clean_obs():
    yield
    tel, recorder = telemetry(), flight_recorder()
    tel.reset(), tel.disable()
    recorder.reset(), recorder.disarm()


def science(path: Path) -> tuple[dict, dict]:
    """The counters a pair must agree on, and the run's config."""
    run = read_run(path)
    counters = {
        name: int(counter.value) for name, counter in run.metrics.counters.items()
    }
    alone = {
        name: n for name, n in counters.items()
        if name.startswith("campaign.lone_trials.") and n
    }
    # No trial of these greedy campaigns keeps to itself.
    assert not alone, (path, alone)
    kept = {
        name: n for name, n in counters.items()
        if name in (
            "campaign.golden.builds", "campaign.golden.shared",
            "campaign.mc_golden.builds",
        )
        or name.startswith(("campaign.outcome.", "engine.prefill_cache_"))
    }
    return kept, run.manifest["config"]


@pytest.mark.parametrize("pair", PAIRS)
def test_a_smoke_pair_counts_alike_serially_and_on_two_workers(
    smoke, tmp_path, pair
):
    runs = {}
    for leg, workers in (("serial", []), ("par", ["--workers", "2"])):
        runs[leg] = tmp_path / f"smoke-{pair}-{leg}.jsonl"
        assert smoke.main([str(runs[leg]), *PAIRS[pair], *workers]) == 0
    serial, config = science(runs["serial"])
    pooled, _ = science(runs["par"])
    assert serial == pooled, (serial, pooled)
    if pair.startswith("mc"):
        assert serial["campaign.mc_golden.builds"] == config["examples"], serial
        return
    campaigns = len(config["fault"].split(","))
    assert serial["campaign.golden.builds"] == config["examples"], serial
    assert serial["campaign.golden.shared"] == (campaigns - 1) * config["examples"], serial
    if pair == "comp0":
        # A row that prefilled resumed nothing.
        assert serial["engine.prefill_cache_misses"] == config["trials"], serial
