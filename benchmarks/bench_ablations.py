"""Ablation benches for the design decisions called out in DESIGN.md §5.

1. activation-format — computational faults corrupt activations in the
   engine's activation format; flipping the format must reproduce the
   FP16 < FP32 < BF16 vulnerability ordering independently of weight
   storage (validates the storage-vs-compute split, decision #2).
2. router top-k — top-1 routing exposes every affected token to a
   single (possibly faulty) expert; top-2 dilutes it (decision #4).
3. beam length normalization — the length penalty is part of why beam
   search can abandon a corrupted path (decision #3).
4. statistical-FI sample count — CI width must shrink ~1/sqrt(n),
   justifying the campaign sizes (decision #5).
"""

import dataclasses

import numpy as np

from repro.fi import FaultModel
from repro.harness.results import ExperimentResult
from repro.inference import InferenceEngine
from repro.model import ParamStore
from repro.zoo import load_model


def test_bench_ablation_activation_format(ctx, emit):
    store = load_model("qwenlike-base", verbose=False)

    def run():
        result = ExperimentResult(
            "ablation-activation-format",
            "Computational-fault resilience vs activation storage format",
        )
        for fmt in ("fp16", "fp32", "bf16"):
            engine = InferenceEngine(store, weight_policy="fp32")
            engine.activation_format = fmt
            cell = ctx.campaign(engine, "wmt16", FaultModel.COMP_2BIT).run(
                ctx.n_trials
            )
            result.add(
                activation_format=fmt.upper(),
                normalized=cell.normalized["bleu"].ratio,
                sdc_rate=cell.sdc_rate,
            )
        return result

    result = run()
    emit(result)
    by_fmt = {r["activation_format"]: r["normalized"] for r in result.rows}
    assert by_fmt["FP16"] >= by_fmt["BF16"] - 0.05


def test_bench_ablation_router_topk(ctx, emit):
    base = load_model("moelike-base", verbose=False)

    def run():
        result = ExperimentResult(
            "ablation-router-topk",
            "MoE resilience vs routing top-k (2bits-mem, translation)",
        )
        for top_k in (1, 2):
            config = dataclasses.replace(base.config, top_k=top_k)
            store = ParamStore(config, dict(base.items()))
            engine = InferenceEngine(store)
            cell = ctx.campaign(engine, "wmt16", FaultModel.MEM_2BIT).run(
                ctx.n_trials
            )
            result.add(
                top_k=top_k,
                baseline_bleu=cell.baseline["bleu"],
                normalized=cell.normalized["bleu"].ratio,
                sdc_rate=cell.sdc_rate,
            )
        return result

    result = run()
    emit(result)
    assert len(result.rows) == 2


def test_bench_ablation_beam_length_penalty(ctx, emit):
    store = load_model("alma-base", verbose=False)

    def run():
        import dataclasses as dc

        result = ExperimentResult(
            "ablation-beam-length-penalty",
            "Beam-search resilience with vs without length normalization",
        )
        engine = InferenceEngine(store)
        for penalty in (0.0, 1.0):
            campaign = ctx.campaign(
                engine, "wmt16", FaultModel.COMP_2BIT, num_beams=4
            )
            campaign.generation = dc.replace(
                campaign.generation, length_penalty=penalty
            )
            cell = campaign.run(ctx.n_trials)
            result.add(
                length_penalty=penalty,
                normalized=cell.normalized["bleu"].ratio,
                baseline_bleu=cell.baseline["bleu"],
            )
        return result

    result = run()
    emit(result)
    assert len(result.rows) == 2


def test_bench_ablation_trial_count_ci(ctx, emit):
    store = load_model("qwenlike-base", verbose=False)

    def run():
        result = ExperimentResult(
            "ablation-trial-count",
            "Statistical-FI CI width vs number of trials",
        )
        # GSM8k under bf16 memory faults has enough SDC mass for the
        # CI width to be meaningfully nonzero at small trial counts.
        engine = InferenceEngine(store, weight_policy="bf16")
        for n_trials in (24, 48, 96, 192):
            cell = ctx.campaign(engine, "gsm8k", FaultModel.MEM_2BIT).run(
                n_trials
            )
            ci = cell.normalized["accuracy"]
            result.add(
                n_trials=n_trials,
                normalized=ci.ratio,
                ci_width=(ci.upper - ci.lower),
                sdc_rate=cell.sdc_rate,
            )
        return result

    result = run()
    emit(result)
    widths = [r["ci_width"] for r in result.rows if np.isfinite(r["ci_width"])]
    if len(widths) == 4 and all(w > 0 for w in widths):
        assert widths[-1] < widths[0], "CI must narrow with more trials"
