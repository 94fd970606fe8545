"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-models``
    Show the zoo roster, parameter counts and cache status.
``build [NAME ...] [--all]``
    Train-and-cache zoo models (everything the experiments need).
``eval MODEL TASK [--examples N] [--beams K]``
    Fault-free evaluation of one model on one task.
``campaign MODEL TASK FAULT [--trials N ...]``
    One statistical fault-injection campaign; prints normalized
    performance with 95% CIs and the SDC breakdown.  Durable execution
    via ``--checkpoint PATH`` (trial-granular JSONL journal),
    ``--resume`` (skip already-journalled trials; bit-identical to an
    uninterrupted run), ``--trial-timeout SECONDS`` and ``--retries N``
    (crashing trials retry, then quarantine as ``FAILED``).
``serve MODEL [--rps R ...] [--duration S]``
    Run the multi-tenant streaming inference server under an open-loop
    Poisson load sweep (mixed gsm8k/wmt16/xlsum/squadv2 prompt shapes);
    prints per-point throughput and p50/p99 TTFT / end-to-end latency
    (traced, also the point's ``prompt cache:`` hit counts) after a
    served-vs-serial token-identity gate that serves every prompt
    twice, prefilled and from the prompt cache.  ``--draft-model NAME
    --spec-depth GAMMA`` serves batched-speculative rounds (the gate
    then covers the composed path too).
``experiment ID [...]``
    Reproduce one paper table/figure (e.g. ``fig17``, ``table2``) — one
    row of ``repro.harness.STUDY``, at that row's trial count where it
    has one (``fig08``/``fig09``/``fig10``/``fig21`` run
    ``REPRO_BENCH_BIT_TRIALS``, default 90, trials per cell whatever
    ``--trials`` says).
``obs report RUN.jsonl [RUN2.jsonl ...]``
    Summarize telemetry runs written by ``--trace``/``--metrics-out``;
    several runs add a side-by-side counter/histogram diff.
``obs explain RUN.jsonl [TRIAL]``
    Render a trial's fault-propagation story from a flight-recorded
    run (``campaign --flight``).
``obs export-trace RUN.jsonl [-o trace.json]``
    Convert a run to Chrome trace-event JSON (Perfetto-loadable).
``obs watch CHECKPOINT.jsonl``
    Live progress view over a running campaign's trial journal.

The run commands (``build``/``eval``/``campaign``/``experiment``) accept
``--trace`` to record spans and metrics and ``--metrics-out PATH`` to
choose where the JSONL run (manifest first line) is written; ``--trace``
alone defaults to ``artifacts/runs/<command>.jsonl``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.fi.fault_models import FaultModel
from repro.harness import STUDY, ExperimentContext, format_table, run_study
from repro.zoo import ZOO, cache_path, load_model, zoo_names

__all__ = ["main", "build_parser"]


def _workers_arg(value: str) -> int:
    """``--workers`` parser: an int, or ``auto`` for one per CPU this
    process may run on — a container or an affinity mask can confine it
    to fewer than the machine has."""
    if value.strip().lower() == "auto":
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        return int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"--workers expects an integer or 'auto', got {value!r}"
        ) from exc


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record tracing spans and metrics for this run",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the telemetry run JSONL here (implies --trace)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="End-to-end LLM inference resilience study (SC'25 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="show the zoo roster and cache status")

    build = sub.add_parser("build", help="train-and-cache zoo models")
    build.add_argument("names", nargs="*", help="model names (default: none)")
    build.add_argument("--all", action="store_true", help="build every model")
    _add_obs_flags(build)

    evaluate = sub.add_parser("eval", help="fault-free model evaluation")
    evaluate.add_argument("model", choices=zoo_names())
    evaluate.add_argument("task")
    evaluate.add_argument("--examples", type=int, default=20)
    evaluate.add_argument("--beams", type=int, default=1)
    _add_obs_flags(evaluate)

    campaign = sub.add_parser("campaign", help="one fault-injection campaign")
    campaign.add_argument("model", choices=zoo_names())
    campaign.add_argument("task")
    campaign.add_argument(
        "fault", choices=[fm.value for fm in FaultModel.extended()]
    )
    campaign.add_argument("--trials", type=int, default=100)
    campaign.add_argument("--examples", type=int, default=12)
    campaign.add_argument("--policy", default="bf16")
    campaign.add_argument("--beams", type=int, default=1)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument(
        "--workers",
        type=_workers_arg,
        default=0,
        metavar="N|auto",
        help="persistent-pool size (0 = serial; 'auto' = one per usable CPU)",
    )
    campaign.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="journal completed trials to this JSONL file",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted campaign from --checkpoint",
    )
    campaign.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abandon (and retry) any trial exceeding this wall clock",
    )
    campaign.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retries before a crashing trial is quarantined as FAILED",
    )
    campaign.add_argument(
        "--flight",
        action="store_true",
        help="arm the per-trial flight recorder (forensic propagation"
        " records in the telemetry run; implies --trace)",
    )
    _add_obs_flags(campaign)

    serve = sub.add_parser(
        "serve",
        help="run the streaming inference server under a Poisson load"
        " sweep and print SLO statistics",
    )
    serve.add_argument("model", choices=zoo_names())
    serve.add_argument(
        "--rps",
        type=float,
        nargs="+",
        default=[4.0],
        metavar="R",
        help="offered load point(s) in requests/sec (several: a sweep)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="submission window per offered-load point",
    )
    serve.add_argument("--max-batch", type=int, default=8)
    serve.add_argument(
        "--per-task",
        type=int,
        default=4,
        metavar="N",
        help="prompt shapes drawn per generative task"
        " (gsm8k/wmt16/xlsum/squadv2)",
    )
    serve.add_argument(
        "--max-new-tokens",
        type=int,
        default=None,
        help="override per-task token budgets with a fixed budget",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--draft-model",
        choices=zoo_names(),
        default=None,
        help="zoo model drafting for the server's batched-speculative"
        " decode rounds (streams stay token-identical to serial)",
    )
    serve.add_argument(
        "--spec-depth",
        type=int,
        default=4,
        metavar="GAMMA",
        help="draft tokens proposed per speculative verify round",
    )
    serve.add_argument(
        "--skip-equivalence",
        action="store_true",
        help="skip the served-vs-serial token-identity gate before the"
        " load sweep",
    )
    _add_obs_flags(serve)

    experiment = sub.add_parser(
        "experiment", help="reproduce one paper table/figure"
    )
    experiment.add_argument("id", choices=sorted(STUDY))
    experiment.add_argument("--trials", type=int, default=36)
    experiment.add_argument("--examples", type=int, default=8)
    experiment.add_argument("--seed", type=int, default=20251116)
    _add_obs_flags(experiment)

    obs = sub.add_parser("obs", help="telemetry utilities")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report", help="summarize a telemetry run JSONL"
    )
    report.add_argument(
        "paths",
        nargs="+",
        help="run files to summarize (several: adds a side-by-side diff)",
    )
    explain = obs_sub.add_parser(
        "explain",
        help="render one trial's fault-propagation story from a"
        " flight-recorded run",
    )
    explain.add_argument("run", help="telemetry run JSONL (campaign --flight)")
    explain.add_argument(
        "trial",
        nargs="?",
        type=int,
        default=None,
        help="trial index (omit to list all recorded trials)",
    )
    export_trace = obs_sub.add_parser(
        "export-trace",
        help="convert a telemetry run to Chrome trace-event JSON"
        " (chrome://tracing / Perfetto)",
    )
    export_trace.add_argument("run", help="telemetry run JSONL")
    export_trace.add_argument(
        "-o",
        "--out",
        default=None,
        help="output path (default: <run>.trace.json)",
    )
    watch = obs_sub.add_parser(
        "watch",
        help="live progress view over a running campaign's checkpoint"
        " journal",
    )
    watch.add_argument("journal", help="campaign --checkpoint JSONL path")
    watch.add_argument(
        "--interval", type=float, default=1.0, help="poll period in seconds"
    )
    watch.add_argument(
        "--total",
        type=int,
        default=None,
        help="expected trial count (default: the journal header's)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="render one snapshot and exit (scripting/CI)",
    )
    watch.add_argument(
        "--no-clear",
        action="store_true",
        help="append snapshots instead of clearing the screen",
    )
    return parser


# ----------------------------------------------------------------------------
# Telemetry lifecycle around a traced command.
# ----------------------------------------------------------------------------


def _telemetry_start(args: argparse.Namespace) -> None:
    flight = getattr(args, "flight", False)
    if not (
        getattr(args, "trace", False)
        or getattr(args, "metrics_out", None)
        or flight
    ):
        return
    from repro.obs import enable
    from repro.zoo import artifacts_dir

    out = args.metrics_out or (
        artifacts_dir() / "runs" / f"{args.command}.jsonl"
    )
    enable(Path(out))
    if flight:
        from repro.obs.flight import flight_recorder

        flight_recorder().arm()


def _telemetry_finish(args: argparse.Namespace) -> None:
    from repro.obs import telemetry
    from repro.obs.flight import flight_recorder

    tel = telemetry()
    if not tel.active:
        return
    config = {
        k: v
        for k, v in vars(args).items()
        if k not in ("trace", "metrics_out") and not callable(v)
    }
    recorder = flight_recorder()
    flight_records = recorder.drain() if recorder.active else []
    path = tel.flush(
        seed=getattr(args, "seed", None),
        config=config,
        command=args.command,
        extra_records=flight_records,
    )
    recorder.disarm()
    tel.disable()
    if path is not None:
        print(f"telemetry: {path}", file=sys.stderr)
        print(
            f"telemetry: summarize with `python -m repro obs report {path}`",
            file=sys.stderr,
        )
        if flight_records:
            print(
                f"telemetry: {len(flight_records)} flight records —"
                f" inspect with `python -m repro obs explain {path}`",
                file=sys.stderr,
            )


def _cmd_list_models() -> int:
    from repro.model.params import arena_valid
    from repro.zoo import sidecar_path

    print(f"{'name':18s} {'params':>9s} {'kind':12s} {'cached':6s} {'shared':6s}")
    tokenizer_len = None
    from repro.zoo.build import default_tokenizer

    tokenizer_len = len(default_tokenizer())
    for name in zoo_names():
        spec = ZOO[name]
        config = spec.model_config(tokenizer_len)
        kind = "moe" if config.is_moe else (
            "fine-tuned" if spec.base else "general"
        )
        cached = "yes" if cache_path(name).exists() else "no"
        # "shared" = the mmap arena sidecar exists and is intact; a
        # cached model without one regenerates it on next load.
        shared = "yes" if arena_valid(sidecar_path(name)) else "no"
        print(
            f"{name:18s} {config.n_params():9d} {kind:12s} {cached:6s}"
            f" {shared:6s}"
        )
    return 0


def _cmd_build(names: list[str], build_all: bool) -> int:
    targets = zoo_names() if build_all else names
    if not targets:
        print("nothing to build: pass model names or --all", file=sys.stderr)
        return 2
    for name in targets:
        store = load_model(name)
        print(f"{name}: ready ({store.n_params()} params)")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from repro.fi.campaign import FICampaign
    from repro.harness.context import ExperimentContext

    ctx = ExperimentContext(n_examples=args.examples)
    task = ctx.task(args.task)
    campaign = FICampaign(
        engine=ctx.engine(args.model),
        tokenizer=ctx.tokenizer,
        task_name=task.name,
        metrics=task.metrics,
        examples=ctx.examples(args.task),
        fault_model=FaultModel.MEM_2BIT,  # unused: baseline only
        generation=ctx.generation(task, num_beams=args.beams),
    )
    for metric, value in campaign.compute_baseline().items():
        print(f"{metric:12s} {value:8.3f}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.fi.campaign import FICampaign

    ctx = ExperimentContext(n_examples=args.examples, seed=args.seed)
    task = ctx.task(args.task)
    campaign = FICampaign(
        engine=ctx.engine(args.model, args.policy),
        tokenizer=ctx.tokenizer,
        task_name=task.name,
        metrics=task.metrics,
        examples=ctx.examples(args.task),
        fault_model=FaultModel(args.fault),
        seed=args.seed,
        generation=ctx.generation(task, num_beams=args.beams),
    )
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    result = campaign.run(
        args.trials,
        n_workers=args.workers,
        checkpoint=args.checkpoint,
        resume=args.resume,
        trial_timeout=args.trial_timeout,
        max_retries=args.retries,
    )
    from repro.harness.results import format_campaign
    from repro.obs import telemetry

    tel = telemetry()
    print(f"model={args.model} policy={args.policy}")
    print(format_campaign(result))
    for metric in result.baseline:
        ci = result.normalized[metric]
        tel.record(
            "campaign_metric",
            metric=metric,
            baseline=result.baseline[metric],
            faulty=result.faulty[metric],
            normalized=ci.ratio,
            ci_low=ci.lower,
            ci_high=ci.upper,
        )
    breakdown = result.sdc_breakdown()
    tel.record(
        "campaign_summary",
        model=args.model,
        task=args.task,
        fault=args.fault,
        policy=args.policy,
        trials=result.n_trials,
        sdc_rate=result.sdc_rate,
        quarantined=result.quarantined,
        **breakdown,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.generation.decode import GenerationConfig
    from repro.harness.context import ExperimentContext
    from repro.obs import telemetry
    from repro.obs.report import prompt_cache_line
    from repro.serve import InferenceServer
    from repro.serve.loadgen import equivalence_gate, mixed_task_prompts, run_load

    ctx = ExperimentContext(seed=args.seed)
    engine = ctx.engine(args.model)
    prompts = mixed_task_prompts(
        world=ctx.world, tokenizer=ctx.tokenizer, per_task=args.per_task
    )
    if args.max_new_tokens is not None:
        from dataclasses import replace as _replace

        prompts = [
            _replace(p, max_new=args.max_new_tokens) for p in prompts
        ]
    config = GenerationConfig(
        max_new_tokens=max(p.max_new for p in prompts),
        eos_id=ctx.tokenizer.vocab.eos_id,
    )
    draft = ctx.engine(args.draft_model) if args.draft_model else None
    if not args.skip_equivalence:
        checked = equivalence_gate(
            engine, config, prompts, max_batch=args.max_batch,
            draft=draft, speculation_depth=args.spec_depth,
        )
        print(f"equivalence gate: {checked} prompts served token-identical"
              f" to serial greedy_decode, prefilled and again from the"
              f" prompt cache")
    tel = telemetry()

    def cache_counters() -> dict[str, float]:
        return {
            name: counter.value
            for name, counter in tel.metrics.counters.items()
            if name.startswith("serve.prompt_cache.")
        }

    header = (f"{'rps':>8s} {'done':>6s} {'shed':>5s} {'tok/s':>8s}"
              f" {'ttft p50':>9s} {'ttft p99':>9s} {'e2e p50':>9s}"
              f" {'e2e p99':>9s}")
    print(header)
    for rps in args.rps:
        before = cache_counters()
        with InferenceServer(
            engine, config, max_batch=args.max_batch,
            draft=draft, speculation_depth=args.spec_depth,
        ) as srv:
            report = run_load(
                srv,
                prompts,
                offered_rps=rps,
                duration_s=args.duration,
                seed=args.seed,
            )
        print(
            f"{report.offered_rps:8.2f} {report.completed:6d}"
            f" {report.rejected:5d} {report.throughput_tps:8.1f}"
            f" {report.ttft_ms['p50']:8.1f}ms {report.ttft_ms['p99']:8.1f}ms"
            f" {report.latency_ms['p50']:8.1f}ms"
            f" {report.latency_ms['p99']:8.1f}ms"
        )
        # This load point's share of the run's counters (each point has
        # its own server, so its own cold cache); none untraced.
        line = prompt_cache_line(
            {
                name: value - before.get(name, 0)
                for name, value in cache_counters().items()
                if value != before.get(name, 0)
            },
            srv.prompt_cache.tokens,
        )
        if line:
            print(line)
        tel.record("serve_load_point", **report.to_dict())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.obs import telemetry

    ctx = ExperimentContext(
        n_examples=args.examples, n_trials=args.trials, seed=args.seed
    )
    tel = telemetry()
    with tel.span(f"experiment.{args.id}"):
        result = run_study(args.id, ctx)
    print(format_table(result))
    for row in result.rows:
        tel.record("experiment_row", experiment=result.experiment_id, **row)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "report":
        from repro.obs.report import main as report_main

        return report_main(args.paths)
    if args.obs_command == "explain":
        from repro.obs.flight import main as explain_main

        argv = [args.run] + ([str(args.trial)] if args.trial is not None else [])
        return explain_main(argv)
    if args.obs_command == "export-trace":
        from repro.obs.traceview import main as trace_main

        return trace_main(args.run, args.out)
    if args.obs_command == "watch":
        from repro.obs.watch import main as watch_main

        return watch_main(
            args.journal,
            interval=args.interval,
            total=args.total,
            once=args.once,
            no_clear=args.no_clear,
        )
    raise AssertionError(f"unhandled obs command {args.obs_command}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list-models":
        return _cmd_list_models()
    if args.command == "obs":
        return _cmd_obs(args)
    _telemetry_start(args)
    try:
        if args.command == "build":
            return _cmd_build(args.names, args.all)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
    finally:
        _telemetry_finish(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
