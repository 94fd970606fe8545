"""One experiment per paper table/figure (see DESIGN.md §4).

Every function takes an :class:`~repro.harness.context.ExperimentContext`
(which sets trial/example budgets — bench-scale by default, paper-scale
by parameter) and returns an :class:`ExperimentResult` whose rows are
the table/figure's series.  Absolute values differ from the paper (our
substrate is a tiny trained-from-scratch model suite), but the
*shapes* — who wins, orderings, where the crossovers are — are the
reproduction targets recorded in EXPERIMENTS.md.

:data:`STUDY`, at the end of the module, is the one list of them: the
bench session (``benchmarks/bench_study.py``, which
``scripts/run_full_study.py`` runs) and ``repro experiment`` both go
through :func:`run_study`.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Callable

import numpy as np

from repro.fi.fault_models import FaultModel
from repro.fi.outcomes import Outcome
from repro.fi.propagation import trace_fault
from repro.fi.sites import FaultSite
from repro.harness.context import ExperimentContext
from repro.harness.results import ExperimentResult
from repro.inference.recorder import Recorder
from repro.numerics.formats import FORMATS
from repro.numerics.stats import wilson_interval
from repro.tasks import GSM8kTask, all_tasks
from repro.zoo.registry import ZOO

__all__ = ["GENERAL_MODELS", "TASK_MODELS", "STUDY", "StudyEntry", "run_study"]

GENERAL_MODELS = ("qwenlike-base", "llamalike-base", "falconlike-base")

# Paper Table 1: which models are evaluated on which task.
TASK_MODELS: dict[str, tuple[str, ...]] = {
    "mmlu": GENERAL_MODELS,
    "arc": GENERAL_MODELS,
    "truthfulqa": GENERAL_MODELS,
    "winogrande": GENERAL_MODELS,
    "hellaswag": GENERAL_MODELS,
    "gsm8k": ("qwenlike-base", "falconlike-base"),
    "wmt16": ("qwenlike-base", "llamalike-base", "alma-base"),
    "xlsum": ("llamalike-base", "qwenlike-base", "summarizer-base"),
    "squadv2": GENERAL_MODELS,
}


def _primary_metric(metrics: tuple[str, ...]) -> str:
    return metrics[0]


# ----------------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------------


def table1_workloads(ctx: ExperimentContext) -> ExperimentResult:
    """Table 1: tasks, datasets, metrics and test models."""
    result = ExperimentResult("table1", "Selected LLM workloads and metrics")
    for task in all_tasks(ctx.world):
        result.add(
            task=task.name,
            kind=task.kind.value,
            metrics="/".join(task.metrics),
            models=", ".join(TASK_MODELS[task.name]),
        )
    return result


def table2_formats(_: ExperimentContext | None = None) -> ExperimentResult:
    """Table 2: floating-point storage formats."""
    result = ExperimentResult("table2", "Format of floating-point data types")
    for fmt in FORMATS.values():
        result.add(
            format=fmt.name.upper(),
            total_bits=fmt.bits,
            exp_bits=fmt.exp_bits,
            max_finite=fmt.max_finite,
            min_normal=fmt.min_normal,
        )
    return result


# ----------------------------------------------------------------------------
# Overall resilience (Figs 3, 4, 11)
# ----------------------------------------------------------------------------


def fig03_overall(
    ctx: ExperimentContext,
    models: tuple[str, ...] | None = None,
    tasks: tuple[str, ...] | None = None,
    fault_models: tuple[FaultModel, ...] = FaultModel.all(),
) -> ExperimentResult:
    """Figure 3: normalized performance for every task/model/fault cell."""
    result = ExperimentResult(
        "fig03", "LLM performance change after fault injection (normalized)"
    )
    task_names = tasks or tuple(TASK_MODELS)
    for task_name in task_names:
        task = ctx.task(task_name)
        metric = _primary_metric(task.metrics)
        for model_name in models or TASK_MODELS[task_name]:
            for fault_model in fault_models:
                cell = ctx.run_cell(model_name, task_name, fault_model)
                ci = cell.normalized[metric]
                result.add(
                    task=task_name,
                    model=model_name,
                    fault=fault_model.value,
                    metric=metric,
                    normalized=ci.ratio,
                    ci_low=ci.lower,
                    ci_high=ci.upper,
                    baseline=cell.baseline[metric],
                    sdc_rate=cell.sdc_rate,
                )
    return result


def fig04_fault_models(
    ctx: ExperimentContext, overall: ExperimentResult
) -> ExperimentResult:
    """Figure 4: average normalized performance per fault model, from
    Figure 3's rows."""
    result = ExperimentResult(
        "fig04", "Average performance change under different fault models"
    )
    for fault_model in FaultModel.all():
        values = [
            row["normalized"]
            for row in overall.rows
            if row["fault"] == fault_model.value
            and np.isfinite(row["normalized"])
        ]
        result.add(
            fault=fault_model.value,
            mean_normalized=float(np.mean(values)),
            n_cells=len(values),
        )
    result.note("expected shape: 2bits-mem lowest (memory faults dominate)")
    return result


def fig11_per_task(
    ctx: ExperimentContext, overall: ExperimentResult
) -> ExperimentResult:
    """Figure 11: per-task normalized performance (all faults pooled),
    from Figure 3's rows."""
    result = ExperimentResult("fig11", "Performance change per downstream task")
    mc_tasks = {"mmlu", "arc", "truthfulqa", "winogrande", "hellaswag"}
    for task_name in TASK_MODELS:
        values = [
            row["normalized"]
            for row in overall.rows
            if row["task"] == task_name and np.isfinite(row["normalized"])
        ]
        if not values:
            continue
        result.add(
            task=task_name,
            kind="multiple-choice" if task_name in mc_tasks else "generative",
            mean_normalized=float(np.mean(values)),
        )
    mc = [r["mean_normalized"] for r in result.rows if r["kind"] == "multiple-choice"]
    gen = [r["mean_normalized"] for r in result.rows if r["kind"] == "generative"]
    result.note(
        f"multiple-choice mean {np.mean(mc):.4f} vs generative mean"
        f" {np.mean(gen):.4f} (paper: generative degrades more)"
    )
    return result


# ----------------------------------------------------------------------------
# Propagation traces (Figs 5, 6)
# ----------------------------------------------------------------------------


def _trace_prompt(ctx: ExperimentContext) -> list[int]:
    example = ctx.examples("wmt16", 1)[0]
    return ctx.tokenizer.encode(example.prompt)


def fig05_memory_propagation(
    ctx: ExperimentContext, model_name: str = "qwenlike-base"
) -> ExperimentResult:
    """Figure 5: memory fault corrupts a column, then the whole tensor."""
    engine = ctx.engine(model_name)
    block = engine.config.n_blocks // 2
    layer = f"blocks.{block}.up_proj"
    site = FaultSite(
        fault_model=FaultModel.MEM_2BIT,
        layer_name=layer,
        row=20 % engine.weight_store(layer).shape[0],
        col=20 % engine.weight_store(layer).shape[1],
        bits=(30, 22),  # MSB of the fp32 exponent + one mantissa bit
    )
    trace = trace_fault(engine, site, _trace_prompt(ctx))
    result = ExperimentResult(
        "fig05", "Propagation trace of a memory fault (column -> tensor)"
    )
    injected_cols = trace.column_profile(layer)
    next_layer = f"blocks.{block}.down_proj"
    result.add(
        layer=layer,
        corrupted_fraction=trace.corrupted_fraction(layer),
        corrupted_columns=int((injected_cols > 0.5).sum()),
        target_column_fraction=float(injected_cols[site.col]),
    )
    result.add(
        layer=next_layer,
        corrupted_fraction=trace.corrupted_fraction(next_layer),
        corrupted_columns=int((trace.column_profile(next_layer) > 0.5).sum()),
        target_column_fraction=float("nan"),
    )
    result.note(
        "expected shape: injected layer corrupt only in the faulty column;"
        " next layer corrupt across (nearly) the whole tensor"
    )
    return result


def fig06_computational_propagation(
    ctx: ExperimentContext, model_name: str = "qwenlike-base"
) -> ExperimentResult:
    """Figure 6: computational fault corrupts one row, then is contained."""
    engine = ctx.engine(model_name)
    block = engine.config.n_blocks // 2
    layer = f"blocks.{block}.up_proj"
    prompt = _trace_prompt(ctx)
    site = FaultSite(
        fault_model=FaultModel.COMP_2BIT,
        layer_name=layer,
        row=0,
        col=20 % engine.weight_store(layer).shape[1],
        bits=(30, 22),
        iteration=0,
        row_frac=min(0.99, 20 / max(1, len(prompt))),
    )
    trace = trace_fault(engine, site, prompt)
    result = ExperimentResult(
        "fig06", "Propagation trace of a computational fault (row, contained)"
    )
    next_layer = f"blocks.{block}.down_proj"
    after_block = f"blocks.{min(block + 1, engine.config.n_blocks - 1)}.up_proj"
    for name in (layer, next_layer, after_block):
        rows = trace.row_profile(name)
        result.add(
            layer=name,
            corrupted_fraction=trace.corrupted_fraction(name),
            corrupted_rows=int((rows > 0).sum()),
            max_row_fraction=float(rows.max()) if rows.size else 0.0,
        )
    result.note(
        "expected shape: corruption confined to one token row inside the"
        " faulty block; spread stays row-local into the next block"
    )
    return result


# ----------------------------------------------------------------------------
# SDC anatomy (Figs 7-10, 12)
# ----------------------------------------------------------------------------


def fig08_sdc_breakdown(
    ctx: ExperimentContext,
    models: tuple[str, ...] = ("qwenlike-base", "falconlike-base"),
) -> ExperimentResult:
    """Figure 8: subtle vs distorted SDCs on GSM8k."""
    result = ExperimentResult(
        "fig08", "SDC breakdown (subtle vs distorted) on GSM8k"
    )
    for model_name in models:
        for fault_model in FaultModel.all():
            cell = ctx.run_cell(model_name, "gsm8k", fault_model)
            breakdown = cell.sdc_breakdown()
            total_sdc = breakdown["subtle"] + breakdown["distorted"]
            result.add(
                model=model_name,
                fault=fault_model.value,
                sdc_rate=total_sdc,
                subtle=breakdown["subtle"],
                distorted=breakdown["distorted"],
                distorted_share=(
                    breakdown["distorted"] / total_sdc if total_sdc else 0.0
                ),
            )
    result.note(
        "expected shape: subtle wrong dominates; distorted far more common"
        " under 2bits-mem than computational faults"
    )
    return result


def _bit_position_rows(
    ctx: ExperimentContext,
    outcome: Outcome,
    models: tuple[str, ...],
    fault_models: tuple[FaultModel, ...],
) -> ExperimentResult:
    result = ExperimentResult(
        "fig09" if outcome is Outcome.SDC_SUBTLE else "fig10",
        f"Proportion of {outcome.value} outputs by highest flipped bit",
    )
    for model_name in models:
        for fault_model in fault_models:
            cell = ctx.run_cell(model_name, "gsm8k", fault_model)
            table = cell.outcomes_by_highest_bit()
            key = "subtle" if outcome is Outcome.SDC_SUBTLE else "distorted"
            total = sum(row[key] for row in table.values())
            for bit in sorted(table):
                counts = table[bit]
                result.add(
                    model=model_name,
                    fault=fault_model.value,
                    highest_bit=bit,
                    count=counts[key],
                    proportion=counts[key] / total if total else 0.0,
                    trials_at_bit=sum(counts.values()),
                )
    return result


def fig09_bit_positions_subtle(
    ctx: ExperimentContext,
    models: tuple[str, ...] = ("qwenlike-base", "falconlike-base"),
) -> ExperimentResult:
    """Figure 9: subtle-SDC share by highest flipped bit (MSB dominates)."""
    res = _bit_position_rows(ctx, Outcome.SDC_SUBTLE, models, FaultModel.all())
    res.note(
        "expected shape: bit 14 (the MSB of the 16-bit stored value) leads"
    )
    return res


def fig10_bit_positions_distorted(
    ctx: ExperimentContext,
    models: tuple[str, ...] = ("qwenlike-base", "falconlike-base"),
) -> ExperimentResult:
    """Figure 10: distorted outputs come only from top exponent bits."""
    res = _bit_position_rows(
        ctx, Outcome.SDC_DISTORTED, models, (FaultModel.MEM_2BIT,)
    )
    res.note("expected shape: mantissa bits contribute zero distorted outputs")
    return res


def fig07_output_examples(
    ctx: ExperimentContext, model_name: str = "qwenlike-base"
) -> ExperimentResult:
    """Figures 7/12: concrete subtle-wrong and distorted outputs."""
    cell = ctx.run_cell(model_name, "gsm8k", FaultModel.MEM_2BIT)
    result = ExperimentResult("fig07", "Example distorted / subtly wrong outputs")
    examples = ctx.examples("gsm8k")
    shown: set[Outcome] = set()
    for trial in cell.trials:
        if trial.outcome is Outcome.MASKED or trial.outcome in shown:
            continue
        shown.add(trial.outcome)
        ex = examples[trial.example_index]
        result.add(
            kind=trial.outcome.value,
            reference=ex.meta.get("final_answer", ex.reference),
            output=trial.prediction[:120],
        )
        if len(shown) == 2:
            break
    return result


# ----------------------------------------------------------------------------
# Model studies (Figs 13-17)
# ----------------------------------------------------------------------------


def fig13_weight_distributions(
    ctx: ExperimentContext, models: tuple[str, ...] = GENERAL_MODELS
) -> ExperimentResult:
    """Figure 13: weight/activation spreads of down_proj, last block."""
    result = ExperimentResult(
        "fig13", "Value distributions of weights and neurons per family"
    )
    prompt = _trace_prompt(ctx)
    for model_name in models:
        engine = ctx.engine(model_name)
        layer = f"blocks.{engine.config.n_blocks - 1}.down_proj"
        weights = engine.weight_store(layer).array
        with Recorder(engine, [layer]) as recorder:
            engine.forward_full(prompt)
        activations = recorder.layer_outputs[layer]
        result.add(
            model=model_name,
            weight_std=float(weights.std()),
            weight_p99=float(np.percentile(np.abs(weights), 99)),
            neuron_std=float(activations.std()),
            neuron_p99=float(np.percentile(np.abs(activations), 99)),
        )
    result.note("families show distinct spreads (drives Observation #3)")
    return result


def fig14_moe_vs_dense(
    ctx: ExperimentContext,
    tasks: tuple[str, ...] = ("mmlu", "arc", "wmt16", "squadv2"),
    fault_model: FaultModel = FaultModel.MEM_2BIT,
) -> ExperimentResult:
    """Figure 14: MoE vs its dense twin per task type."""
    result = ExperimentResult("fig14", "MoE vs dense normalized performance")
    for task_name in tasks:
        task = ctx.task(task_name)
        metric = _primary_metric(task.metrics)
        for model_name in ("moelike-base", "denselike-base"):
            cell = ctx.run_cell(model_name, task_name, fault_model)
            result.add(
                task=task_name,
                kind=task.kind.value,
                model=model_name,
                normalized=cell.normalized[metric].ratio,
                baseline=cell.baseline[metric],
            )
    result.note(
        "expected shape: MoE worse on multiple-choice, better on generative"
    )
    return result


def fig15_gate_faults(
    ctx: ExperimentContext, n_trials: int | None = None
) -> ExperimentResult:
    """Figure 15: 2bits-mem faults restricted to MoE gate (router) layers."""
    cell = ctx.run_cell(
        "moelike-base",
        "wmt16",
        FaultModel.MEM_2BIT,
        n_trials=n_trials,
        layer_filter=_router_only,
        track_expert_selection=True,
    )
    changed = [t for t in cell.trials if t.selection_changed]
    n = len(cell.trials)
    output_changed = sum(t.changed for t in changed)
    result = ExperimentResult(
        "fig15", "Memory faults in gate layers: selection & output changes"
    )
    lo, hi = wilson_interval(len(changed), n)
    result.add(
        trials=n,
        selection_changed_rate=len(changed) / n,
        ci_low=lo,
        ci_high=hi,
        output_changed_given_selection=(
            output_changed / len(changed) if changed else 0.0
        ),
        bleu_normalized=cell.normalized["bleu"].ratio,
        chrf_normalized=cell.normalized["chrf"].ratio,
    )
    result.note(
        "paper: 78.6% selections changed, 47.4% of those changed >=1 token;"
        " BLEU/chrF++ degrade ~2%"
    )
    return result


def _router_only(layer_name: str) -> bool:
    """Module-level so the campaign stays picklable for process pools."""
    return layer_name.endswith("router")


def fig16_model_scale(
    ctx: ExperimentContext,
    sizes: tuple[str, ...] = (
        "qwenlike-tiny",
        "qwenlike-small",
        "qwenlike-base",
        "qwenlike-large",
        "qwenlike-xl",
    ),
    tasks: tuple[str, ...] = ("mmlu", "gsm8k"),
) -> ExperimentResult:
    """Figure 16: resilience across model scales (no clear trend)."""
    result = ExperimentResult("fig16", "Normalized performance vs model scale")
    for model_name in sizes:
        params = ZOO[model_name]
        for task_name in tasks:
            task = ctx.task(task_name)
            metric = _primary_metric(task.metrics)
            for fault_model in (FaultModel.COMP_2BIT, FaultModel.MEM_2BIT):
                cell = ctx.run_cell(model_name, task_name, fault_model)
                result.add(
                    model=model_name,
                    d_model=params.d_model,
                    n_blocks=params.n_blocks,
                    task=task_name,
                    fault=fault_model.value,
                    normalized=cell.normalized[metric].ratio,
                )
    result.note("expected shape: no monotone scale-resilience relationship")
    return result


def fig17_quantization(
    ctx: ExperimentContext,
    tasks: tuple[str, ...] = ("mmlu", "wmt16"),
    model_name: str = "qwenlike-base",
) -> ExperimentResult:
    """Figure 17: GPTQ-4/8bit vs BF16 under 2-bit memory faults."""
    result = ExperimentResult(
        "fig17", "Quantized vs non-quantized resilience (2bits-mem)"
    )
    for policy, label in (("bf16", "BF16"), ("int8", "GPTQ-8bit"), ("int4", "GPTQ-4bit")):
        for task_name in tasks:
            task = ctx.task(task_name)
            metric = _primary_metric(task.metrics)
            cell = ctx.run_cell(
                model_name, task_name, FaultModel.MEM_2BIT, policy=policy
            )
            result.add(
                variant=label,
                task=task_name,
                baseline=cell.baseline[metric],
                normalized=cell.normalized[metric].ratio,
            )
    result.note(
        "expected shape: quantized variants ~1.0 normalized; BF16 lower"
    )
    return result


# ----------------------------------------------------------------------------
# Inference-setting studies (Figs 18-21)
# ----------------------------------------------------------------------------


def fig18_beam_vs_greedy(
    ctx: ExperimentContext,
    cells: tuple[tuple[str, str], ...] = (
        ("alma-base", "wmt16"),
        ("qwenlike-base", "wmt16"),
        ("summarizer-base", "xlsum"),
        ("llamalike-base", "xlsum"),
    ),
    beam_size: int = 6,
) -> ExperimentResult:
    """Figure 18: beam search vs greedy under 2-bit computational faults."""
    result = ExperimentResult("fig18", "Beam search vs greedy (2bits-comp)")
    for model_name, task_name in cells:
        task = ctx.task(task_name)
        metric = _primary_metric(task.metrics)
        for beams in (1, beam_size):
            cell = ctx.run_cell(
                model_name, task_name, FaultModel.COMP_2BIT, num_beams=beams
            )
            result.add(
                model=model_name,
                task=task_name,
                num_beams=beams,
                strategy="greedy" if beams == 1 else "beam",
                normalized=cell.normalized[metric].ratio,
                baseline=cell.baseline[metric],
            )
    result.note("expected shape: beam >= greedy, clearest for fine-tuned models")
    return result


def fig19_beam_tradeoff(
    ctx: ExperimentContext,
    model_name: str = "alma-base",
    task_name: str = "wmt16",
    beam_sizes: tuple[int, ...] = (1, 2, 4, 6),
) -> ExperimentResult:
    """Figure 19: resilience vs runtime across beam counts."""
    result = ExperimentResult("fig19", "Beam-count resilience/runtime trade-off")
    task = ctx.task(task_name)
    metric = _primary_metric(task.metrics)
    for beams in beam_sizes:
        t0 = time.perf_counter()
        cell = ctx.run_cell(
            model_name, task_name, FaultModel.COMP_2BIT, num_beams=beams
        )
        elapsed = time.perf_counter() - t0
        result.add(
            num_beams=beams,
            normalized=cell.normalized[metric].ratio,
            runtime_s=elapsed,
            runtime_per_trial_ms=1000.0 * elapsed / cell.n_trials,
        )
    result.note(
        "expected shape: resilience jumps 1->2 beams then flattens;"
        " runtime keeps growing (optimal trade-off at 2 beams)"
    )
    return result


def fig20_chain_of_thought(
    ctx: ExperimentContext,
    models: tuple[str, ...] = ("qwenlike-base", "falconlike-base"),
) -> ExperimentResult:
    """Figure 20: CoT vs direct answering under both fault classes."""
    result = ExperimentResult("fig20", "Chain-of-Thought resilience on GSM8k")
    for model_name in models:
        for use_cot in (True, False):
            task = GSM8kTask(ctx.world, use_cot=use_cot)
            for fault_model in (FaultModel.COMP_2BIT, FaultModel.MEM_2BIT):
                # Computational faults strike during reasoning-token
                # generation for CoT (paper injects only there); the
                # direct mode has no reasoning segment.
                max_iter = 16 if use_cot else None
                cell = ctx.run_cell(
                    model_name,
                    "gsm8k",
                    fault_model,
                    task=task,
                    max_fault_iterations=(
                        max_iter if fault_model.is_computational else None
                    ),
                )
                result.add(
                    model=model_name,
                    mode="cot" if use_cot else "direct",
                    fault=fault_model.value,
                    baseline=cell.baseline["accuracy"],
                    normalized=cell.normalized["accuracy"].ratio,
                )
    result.note("expected shape: CoT >= direct, esp. computational faults ~1.0")
    return result


def fig21_dtypes(
    ctx: ExperimentContext,
    tasks: tuple[str, ...] = ("mmlu", "wmt16"),
    model_name: str = "qwenlike-base",
) -> ExperimentResult:
    """Figure 21: FP16 vs FP32 vs BF16 storage resilience."""
    result = ExperimentResult("fig21", "Datatype resilience (2bits-mem)")
    for policy in ("fp16", "fp32", "bf16"):
        for task_name in tasks:
            task = ctx.task(task_name)
            metric = _primary_metric(task.metrics)
            cell = ctx.run_cell(
                model_name, task_name, FaultModel.MEM_2BIT, policy=policy
            )
            result.add(
                dtype=policy.upper(),
                task=task_name,
                baseline=cell.baseline[metric],
                normalized=cell.normalized[metric].ratio,
            )
    result.note("expected shape: FP16 most resilient, BF16 least")
    return result


# ----------------------------------------------------------------------------
# The study: the paper's twenty tables and figures, in paper order
# ----------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StudyEntry:
    """One table/figure of the study: how to produce it."""

    run: Callable[..., ExperimentResult]
    n_trials: int | None = None
    """Trials per cell where the figure needs more than the context's."""
    aggregates: str | None = None
    """Id of the result this one is computed from, which ``run`` takes
    as its second argument."""


# Breakdown rates, bit-position histograms and the dtype ordering need a
# larger sample than the per-cell default (EXPERIMENTS.md: 90 vs 36).
_BIT_TRIALS = int(os.environ.get("REPRO_BENCH_BIT_TRIALS", 90))

STUDY: dict[str, StudyEntry] = {
    "table1": StudyEntry(table1_workloads),
    "table2": StudyEntry(table2_formats),
    "fig03": StudyEntry(fig03_overall),
    "fig04": StudyEntry(fig04_fault_models, aggregates="fig03"),
    "fig05": StudyEntry(fig05_memory_propagation),
    "fig06": StudyEntry(fig06_computational_propagation),
    "fig07": StudyEntry(fig07_output_examples),
    "fig08": StudyEntry(fig08_sdc_breakdown, n_trials=_BIT_TRIALS),
    "fig09": StudyEntry(fig09_bit_positions_subtle, n_trials=_BIT_TRIALS),
    "fig10": StudyEntry(fig10_bit_positions_distorted, n_trials=_BIT_TRIALS),
    "fig11": StudyEntry(fig11_per_task, aggregates="fig03"),
    "fig13": StudyEntry(fig13_weight_distributions),
    "fig14": StudyEntry(fig14_moe_vs_dense),
    "fig15": StudyEntry(fig15_gate_faults),
    "fig16": StudyEntry(fig16_model_scale),
    "fig17": StudyEntry(fig17_quantization),
    "fig18": StudyEntry(fig18_beam_vs_greedy),
    "fig19": StudyEntry(fig19_beam_tradeoff),
    "fig20": StudyEntry(fig20_chain_of_thought),
    "fig21": StudyEntry(fig21_dtypes, n_trials=_BIT_TRIALS),
}


def run_study(
    experiment_id: str,
    ctx: ExperimentContext,
    source: ExperimentResult | None = None,
) -> ExperimentResult:
    """Run one :data:`STUDY` entry on ``ctx`` at the entry's trial count.

    ``source`` is the result the entry aggregates, when the caller has
    already produced it (a bench session hands Figure 3 to Figures 4
    and 11 instead of letting each repeat the 78-cell sweep); without
    it that result is produced first.
    """
    entry = STUDY[experiment_id]
    args = ()
    if entry.aggregates is not None:
        if source is None:
            source = run_study(entry.aggregates, ctx)
        args = (source,)
    if entry.n_trials is not None:
        ctx = dataclasses.replace(ctx, n_trials=entry.n_trials)
    return entry.run(ctx, *args)
