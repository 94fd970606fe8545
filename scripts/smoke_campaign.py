"""Quick traced-campaign smoke: train a tiny model in-memory, run a
fault-injection campaign with telemetry enabled, export the run JSONL
and render its report.

Used by CI (and handy locally) to prove the full observability path —
engine per-layer timing, decode metrics, campaign trial spans, worker
merge, manifest, reporter — without depending on cached zoo artifacts.

``--flight`` additionally arms the per-trial flight recorder and
asserts one forensic record per trial lands in the exported run — the
input for ``repro obs explain`` / ``repro obs export-trace`` in the CI
forensics job.  ``--fault`` picks the fault model: the default weight
fault never resumes a golden run, a transient one (``2bits-comp``) does,
in waves.  Given more than once, the campaigns run back to back on the
one engine in the one telemetry run, as a study's fault-model cells do:
the first decodes the golden runs, the others start from them
(``campaign.golden.shared``).  ``--max-fault-iterations 1`` strikes
every trial at iteration 0 — the wave rows that prefill under their
injector instead of resuming.

Usage::

    PYTHONPATH=src python scripts/smoke_campaign.py [out.jsonl] \
        [--workers N] [--flight] [--fault MODEL]... [--max-fault-iterations K]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.fi import FaultModel, FICampaign
from repro.generation import GenerationConfig
from repro.inference import InferenceEngine
from repro.model import ModelConfig, TransformerLM
from repro.obs import flight_recorder, report_path, telemetry
from repro.tasks import TranslationTask, World, all_tasks, standardized_subset
from repro.training import (
    TrainConfig,
    build_mixed_corpus,
    build_tokenizer,
    corpus_to_stream,
    train_lm,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default=None, help="run JSONL path")
    parser.add_argument("--trials", type=int, default=12)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument(
        "--fault",
        action="append",
        choices=[model.value for model in FaultModel],
        help="fault model to inject; repeat for one campaign each, back to"
        f" back on one engine (default: {FaultModel.MEM_2BIT.value})",
    )
    parser.add_argument(
        "--max-fault-iterations",
        type=int,
        default=None,
        help="strike transient faults at iterations below this bound only",
    )
    parser.add_argument(
        "--flight",
        action="store_true",
        help="arm the per-trial flight recorder and assert its records",
    )
    args = parser.parse_args(argv)
    faults = args.fault or [FaultModel.MEM_2BIT.value]
    n_trials = args.trials * len(faults)
    out = Path(
        args.out or Path(tempfile.gettempdir()) / "repro_smoke_run.jsonl"
    )

    world = World(seed=2025)
    tokenizer = build_tokenizer(world)
    rng = np.random.default_rng(99)
    docs = build_mixed_corpus(all_tasks(world), rng, 1500)
    stream = corpus_to_stream(docs, tokenizer)
    model = TransformerLM(
        ModelConfig(
            vocab_size=len(tokenizer),
            d_model=48,
            n_heads=4,
            n_blocks=3,
            d_ff=96,
            max_seq=160,
        ),
        seed=7,
    )

    tel = telemetry()
    tel.enable(out)
    train_lm(
        model,
        stream,
        TrainConfig(steps=160, batch_size=12, seq_len=56, seed=3, lr=4e-3),
    )
    engine = InferenceEngine(model.to_store(), weight_policy="bf16")

    task = TranslationTask(world)
    examples = standardized_subset(task, 4)
    recorder = flight_recorder()
    if args.flight:
        recorder.reset()
        recorder.arm()
    results = []
    for fault in faults:
        campaign = FICampaign(
            engine=engine,
            tokenizer=tokenizer,
            task_name=task.name,
            metrics=task.metrics,
            examples=examples,
            fault_model=FaultModel(fault),
            seed=11,
            generation=GenerationConfig(
                max_new_tokens=task.max_new_tokens,
                eos_id=tokenizer.vocab.eos_id,
            ),
            max_fault_iterations=args.max_fault_iterations,
        )
        try:
            results.append(campaign.run(args.trials, n_workers=args.workers))
        finally:
            campaign.close_pool()
    flight_records = recorder.drain() if args.flight else []
    recorder.disarm()
    tel.flush(
        seed=11,
        config={
            "task": task.name,
            "trials": args.trials,
            "fault": ",".join(faults),
            "max_fault_iterations": args.max_fault_iterations,
            "examples": len(examples),
            "smoke": True,
        },
        command="smoke-campaign",
        extra_records=flight_records,
    )
    print(report_path(out))

    # The smoke fails loudly if the telemetry stream is missing any of
    # the signals the acceptance criteria require.
    counters = tel.metrics.counters
    assert counters["campaign.trials"].value == n_trials
    assert [result.n_trials for result in results] == [args.trials] * len(faults)
    assert any(
        name.startswith("engine.layer_ms.") for name in tel.metrics.histograms
    ), "per-layer timing missing"
    assert tel.metrics.histogram("campaign.trial_ms").count == n_trials
    # Trials decode through ``generate_ids`` or, every one of a
    # wave-capable campaign's, as rows of a wave's shared forwards.
    assert (
        "decode.tokens" in counters
        or tel.metrics.histogram("campaign.wave.width").count > 0
    ), "decode metrics missing"
    assert any(
        name.startswith("campaign.outcome.") for name in counters
    ), "outcome tallies missing"
    if args.flight:
        assert len(flight_records) == n_trials, (
            f"expected {n_trials} flight records,"
            f" got {len(flight_records)}"
        )
        assert all(r.get("front") for r in flight_records), (
            "flight records missing corruption fronts"
        )
        print(
            f"flight: {len(flight_records)} records"
            f" ({sum(1 for r in flight_records if r['outcome'] != 'masked')}"
            " non-masked)",
            file=sys.stderr,
        )
    print(f"\nsmoke ok: {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
