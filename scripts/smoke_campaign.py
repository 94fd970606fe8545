"""Quick traced-campaign smoke: train a tiny model in-memory, run a
fault-injection campaign with telemetry enabled, export the run JSONL
and render its report.

Used by CI (and handy locally) to prove the full observability path —
engine per-layer timing, decode metrics, campaign trial spans, worker
merge, manifest, reporter — without depending on cached zoo artifacts.

``--flight`` additionally arms the per-trial flight recorder and
asserts one forensic record per trial lands in the exported run — the
input for ``repro obs explain`` / ``repro obs export-trace`` in the CI
forensics job.  ``--fault`` picks the fault model; every one's trials
run in waves: the default weight fault never resumes a golden run (its
wave rows prefill under it), a transient one (``2bits-comp``,
``2bits-kv``, ``2bits-acc``) does.  Given more than once, the campaigns run back to back on the
one engine in the one telemetry run, as a study's fault-model cells do:
the first decodes the golden runs, the others start from them
(``campaign.golden.shared``).  ``--max-fault-iterations 1`` strikes
every trial at iteration 0 — the wave rows that prefill under their
injector instead of resuming.  ``--task`` picks the task (default
``wmt16``): a multiple-choice one (``--task mmlu``) scores option rows
instead of decoding, and under any fault model its trials share those
forwards in waves; such a run is then repeated with telemetry off and
must record the same trials (untraced, nothing observes the last block,
so option rows compute only the positions they score).  ``--beams K``
decodes with beam search of width ``K``: every trial runs alone through
the reference, the one beam loop, whose batched leg steps the hypotheses
under a computational fault.

``main(argv)`` may run many times in one process (the tier-1 test
``tests/test_smoke_campaign.py`` runs the campaign pairs this way): the
tiny model trains once per process, each run builds its own engine and
starts from reset telemetry.

Usage::

    PYTHONPATH=src python scripts/smoke_campaign.py [out.jsonl] \
        [--workers N] [--flight] [--fault MODEL]... [--max-fault-iterations K] \
        [--task NAME] [--beams K]
"""

from __future__ import annotations

import argparse
import functools
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.fi import CampaignResult, FaultModel, FICampaign, assert_results_equal
from repro.fi.golden import forget
from repro.generation import GenerationConfig
from repro.inference import InferenceEngine
from repro.model import ModelConfig, TransformerLM
from repro.obs import flight_recorder, report_path, telemetry
from repro.tasks import (
    TaskKind,
    TranslationTask,
    World,
    all_tasks,
    standardized_subset,
)
from repro.training import (
    TrainConfig,
    build_mixed_corpus,
    build_tokenizer,
    corpus_to_stream,
    train_lm,
)


@functools.cache
def smoke_model():
    """``(world, tokenizer, store)``: the tiny model every run decodes,
    trained in memory once per process."""
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
    train_lm(
        model,
        stream,
        TrainConfig(steps=160, batch_size=12, seq_len=56, seed=3, lr=4e-3),
    )
    return world, tokenizer, model.to_store()


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
    parser.add_argument(
        "--task",
        default=TranslationTask.name,
        help=f"task to run the campaigns on (default: {TranslationTask.name})",
    )
    parser.add_argument(
        "--beams",
        type=int,
        default=1,
        help="beam width of the generative decode (default: 1, greedy)",
    )
    args = parser.parse_args(argv)
    faults = args.fault or [FaultModel.MEM_2BIT.value]
    n_trials = args.trials * len(faults)
    out = Path(
        args.out or Path(tempfile.gettempdir()) / "repro_smoke_run.jsonl"
    )

    world, tokenizer, store = smoke_model()
    tasks = {task.name: task for task in all_tasks(world)}
    if args.task not in tasks:
        parser.error(f"--task must be one of {sorted(tasks)}, got {args.task!r}")
    task = tasks[args.task]
    engine = InferenceEngine(store, weight_policy="bf16")

    tel = telemetry()
    tel.reset()
    tel.enable(out)

    examples = standardized_subset(task, 4)
    recorder = flight_recorder()
    if args.flight:
        recorder.reset()
        recorder.arm()

    def make(fault: str) -> FICampaign:
        return FICampaign(
            engine=engine,
            tokenizer=tokenizer,
            task_name=task.name,
            metrics=task.metrics,
            examples=examples,
            fault_model=FaultModel(fault),
            seed=11,
            generation=GenerationConfig(
                max_new_tokens=task.max_new_tokens,
                num_beams=args.beams,
                eos_id=tokenizer.vocab.eos_id,
            ),
            max_fault_iterations=args.max_fault_iterations,
        )

    def run(fault: str) -> CampaignResult:
        campaign = make(fault)
        try:
            return campaign.run(args.trials, n_workers=args.workers)
        finally:
            campaign.close_pool()

    results = [run(fault) for fault in faults]
    flight_records = recorder.drain() if args.flight else []
    recorder.disarm()
    tel.flush(
        seed=11,
        config={
            "task": task.name,
            "trials": args.trials,
            "fault": ",".join(faults),
            "max_fault_iterations": args.max_fault_iterations,
            "beams": args.beams,
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
    # Trials decode through ``generate_ids``, or, every one of a
    # campaign whose ``trial_plan()`` says ``wave``, as rows of a wave's
    # shared forwards; a multiple-choice trial scores option rows.
    assert (
        "decode.tokens" in counters
        or tel.metrics.histogram("campaign.wave.width").count > 0
        or any(name.startswith("decode.plan.option_rows.") for name in counters)
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
    if task.kind is TaskKind.MULTIPLE_CHOICE:
        # The layer-timing probes of the traced runs above sit on the
        # last block, so their option rows ran it whole; untraced, the
        # rows take the read window (``read_from``).  Both must record
        # the same trials, the golden passes rebuilt untraced too.
        tel.disable()
        forget(engine)
        for fault, traced in zip(faults, results):
            assert_results_equal(run(fault), traced, "untraced", "traced")
        print("untraced re-run: records equal", file=sys.stderr)
    print(f"\nsmoke ok: {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
