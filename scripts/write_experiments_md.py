"""Generate EXPERIMENTS.md from archived bench results.

Run after ``pytest benchmarks/ --ignore=benchmarks/ledger``: reads the
tables in ``artifacts/results/`` and interleaves them with the
paper-vs-measured commentary below.
"""

from __future__ import annotations

from pathlib import Path

from repro.zoo import artifacts_dir

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation, the *shape* it
claims, and what this reproduction measures.  The tables below are the
verbatim output of `pytest benchmarks/ --ignore=benchmarks/ledger`
(also archived under `artifacts/results/`), run at bench scale — 8 standardized
examples and 36 trials per cell (90 for the breakdown / bit-position /
dtype studies).  The paper uses 100 examples and 500–3000 trials per
cell; `REPRO_BENCH_TRIALS` / `REPRO_BENCH_EXAMPLES` scale the harness
up to that regime.

Substrate reminder (DESIGN.md §2): models are ~0.2–1 M-parameter
Llama-architecture transformers trained from scratch on a synthetic
nine-task world; campaign cells store weights in BF16 (the paper's
evaluation dtype) unless the experiment varies the format.  Absolute
numbers therefore differ from the paper; orderings, gaps and mechanisms
are the reproduction targets.
"""

# (result-file id, paper reference, commentary)
SECTIONS: list[tuple[str, str, str]] = [
    (
        "table1",
        "Table 1 — selected workloads and metrics",
        "Paper: 9 datasets across 5 task groups, each with its metric and"
        " model roster. Measured: the synthetic suite enumerates the same"
        " 9 datasets, metric assignments and per-task model rosters.",
    ),
    (
        "table2",
        "Table 2 — floating-point formats",
        "Paper: FP16 = 1/5/10 bits with range 6e-5..65504; BF16 = 1/8/7"
        " with FP32's ~1e-38..3e38 range. Measured: bit-exact match —"
        " these values come straight from the format registry that the"
        " injectors flip bits in.",
    ),
    (
        "fig03",
        "Figure 3 — overall normalized performance",
        "Paper: average degradation 2.28%, worst 13.09% (memory faults);"
        " degradation varies by task/model/fault. Measured: the table"
        " below spans every task x model x fault cell; memory-fault cells"
        " sit lowest, average degradation is a few percent, and"
        " multiple-choice cells are near 1.0 — the paper's overall shape.",
    ),
    (
        "fig04",
        "Figure 4 — average per fault model",
        "Paper: 2bits-mem degrades most; computational faults are largely"
        " masked (Observation #1). Measured: same ordering — the"
        " 2bits-mem mean normalized performance is the lowest of the"
        " three fault models.",
    ),
    (
        "fig05",
        "Figure 5 — memory-fault propagation trace",
        "Paper: a flipped weight corrupts one **column** of the injected"
        " layer's output, then the whole next-layer tensor. Measured:"
        " exactly one corrupted column (fraction 1.0 in the faulty"
        " column, 0 elsewhere) in up_proj, >90% of down_proj corrupted.",
    ),
    (
        "fig06",
        "Figure 6 — computational-fault propagation trace",
        "Paper: a flipped activation corrupts one **row** (token) and is"
        " contained by normalization. Measured: exactly one corrupted row"
        " in the injected and next layer; corruption entering the next"
        " block stays orders of magnitude below the memory-fault case"
        " (fractions in the table).",
    ),
    (
        "fig07",
        "Figures 7 & 12 — example outputs",
        "Paper: SDCs split into distorted (repeated/meaningless tokens)"
        " and subtly-wrong (fluent but incorrect reasoning). Measured:"
        " campaign trials surface both kinds; the examples below are"
        " actual generations from memory-fault trials on GSM8k.",
    ),
    (
        "fig08",
        "Figure 8 — SDC breakdown (subtle vs distorted)",
        "Paper: subtly-wrong outputs are the majority of SDCs *except*"
        " Qwen2.5 under memory faults; distorted outputs are driven by"
        " memory faults (13.28% vs 0.89–1.21%). Measured: distorted"
        " outputs concentrate under 2bits-mem (computational faults"
        " produce mostly subtle SDCs); as in the paper's Qwen/memory"
        " cell, memory faults at tiny scale skew distorted because a"
        " single corrupted weight is proportionally much larger.",
    ),
    (
        "fig09",
        "Figure 9 — subtle SDCs by highest flipped bit",
        "Paper: bit 14 (the 16-bit value's exponent MSB) is the most"
        " vulnerable position. Measured: SDC-producing trials concentrate"
        " at bits 13–15 with bit 14 leading; low mantissa bits contribute"
        " ~nothing.",
    ),
    (
        "fig10",
        "Figure 10 — distorted outputs by highest flipped bit",
        "Paper: only the top exponent bits produce distorted outputs;"
        " mantissa bits produce zero. Measured: every distorted trial has"
        " its highest flipped bit in the exponent/sign range; all"
        " mantissa-bit rows are zero.",
    ),
    (
        "fig11",
        "Figure 11 — per-task degradation",
        "Paper: TruthfulQA most resilient (~0.04% change), GSM8k most"
        " vulnerable (~3.85% drop); generative tasks degrade more than"
        " multiple-choice (3.2% vs 1.65%, Observation #2). Measured: the"
        " generative-task mean normalized performance is below the"
        " multiple-choice mean (note line under the table); math is among"
        " the most affected tasks.",
    ),
    (
        "fig13",
        "Figure 13 — weight/neuron value distributions",
        "Paper: the three families' down_proj distributions differ"
        " visibly; Falcon3's is widest, correlating with its stability"
        " (Observation #3). Measured: the falconlike family (trained with"
        " the largest init gain and no weight decay) shows the widest"
        " weight and activation spreads; llamalike the narrowest.",
    ),
    (
        "fig14",
        "Figure 14 — MoE vs dense",
        "Paper: MoE slightly worse on multiple-choice, better on"
        " generative tasks (Observation #5). Measured: the generative"
        " cells follow the paper's direction (MoE above its dense twin"
        " on both wmt16 and squadv2; confirmed at 200 trials/cell:"
        " 0.91 vs 0.86 and 0.95 vs 0.84). The multiple-choice cells do"
        " *not* reproduce the paper's direction — our MoE is more"
        " resilient there too (200-trial check: 0.98 vs 0.95 mmlu,"
        " 0.96 vs 0.89 arc). Plausible cause: a fault confined to one of"
        " 8 small experts perturbs option log-likelihoods less than a"
        " fault in the dense twin's only MLP, and the paper's"
        " counter-mechanism (router-mediated whole-tensor corruption"
        " changing expert selections) needs its 18B-scale expert"
        " specialization to dominate.",
    ),
    (
        "fig15",
        "Figure 15 — gate-layer faults",
        "Paper: with 2bits-mem restricted to routers, 78.6% of trials"
        " change the expert selection, 47.4% of those change at least one"
        " output token, BLEU/chrF++ drop ~2% (Observation #6). Measured:"
        " 47% of gate faults flip expert selections, a small subset of"
        " those change the output, and BLEU/chrF++ drop ~1-2% — the same"
        " three-step funnel at somewhat smaller magnitudes (our routers"
        " are 64x8 matrices, so a random 2-bit flip more often lands in"
        " a logit margin too wide to cross).",
    ),
    (
        "fig16",
        "Figure 16 — model scale",
        "Paper: no clear relation between model size and resilience"
        " (Observation #7). Measured: across the 5-point qwenlike sweep"
        " normalized performance shows no monotone trend with d_model.",
    ),
    (
        "fig17",
        "Figure 17 — quantized vs BF16",
        "Paper: GPTQ-4/8-bit variants stay near 100% normalized"
        " performance while BF16 degrades (Observation #8). Measured:"
        " both INT variants sit at 1.0; BF16 degrades by a few percent —"
        " a flipped integer code moves a weight at most ~2^nbits"
        " quantization steps, a flipped BF16 exponent scales it by up to"
        " ~2^128.",
    ),
    (
        "fig18",
        "Figure 18 — beam search vs greedy",
        "Paper: beam search (6 beams) is consistently more resilient than"
        " greedy for the fine-tuned models under 2-bit computational"
        " faults (Observation #9). Measured: beam cells are at or above"
        " the greedy cells on average, with the fine-tuned models showing"
        " the clearest gap.",
    ),
    (
        "fig19",
        "Figure 19 — beam count trade-off",
        "Paper: resilience jumps from 1 to 2 beams then flattens while"
        " runtime keeps growing; optimal trade-off at 2 beams. Measured:"
        " per-trial runtime grows steadily with beam count while"
        " normalized performance saturates after 2 beams.",
    ),
    (
        "fig20",
        "Figure 20 — Chain-of-Thought",
        "Paper: computational faults injected during reasoning barely"
        " change the final answer (normalized ~1.0); with memory faults"
        " CoT still beats direct answering (~0.9) because the model can"
        " recover from corrupted reasoning tokens (Observation #10)."
        " Measured: CoT's memory-fault cells land at 0.92–0.94, close to"
        " the paper's ~0.9; its computational-fault cells land at"
        " 0.83–0.86 rather than ~1.0 — with only ~16 reasoning tokens, a"
        " corrupted intermediate digit leaves less room for recovery"
        " than in the paper's long CoT traces. The *direct* cells are a"
        " documented substrate limit:"
        " our ~0.2M-parameter models cannot do two-step arithmetic"
        " without emitting intermediate tokens (baseline accuracy at"
        " floor, normalized undefined) — an extreme form of the very"
        " effect the paper measures (the no-CoT baseline is worse), but"
        " it means the direct-mode resilience column is not reachable at"
        " this scale.",
    ),
    (
        "fig21",
        "Figure 21 — datatypes",
        "Paper: FP16 most resilient, BF16 most vulnerable; representable"
        " range dominates (Observation #11). Measured: the worst single"
        " cell is BF16's, and the mechanism is bit-exact (a top-exponent"
        " flip takes 0.5 to ~1.7e38 in BF16 but only to 32768 in FP16 —"
        " see examples/storage_formats_study.py). The FP16-vs-BF16 gap"
        " does not separate at this substrate scale (checked up to 300"
        " trials/cell: FP16 0.898 vs BF16 0.901 mean normalized, FP32"
        " 0.961): a 65504-magnitude FP16 blowup already saturates 64-dim"
        " activations just as a 1e38 BF16 one does, so only the"
        " exponent-hit *probability* (which favours FP32's 32-bit"
        " dilution) shows through. The paper's full ordering needs the"
        " magnitude headroom of real-scale models. The activation-format"
        " ablation (below) does show FP16 strictly best for"
        " computational faults.",
    ),
    (
        "layer-vulnerability",
        "Extension — layer/block/bit-role vulnerability profile",
        "Not a paper figure: AVF-style aggregation of campaign trials."
        " Exponent/sign bit faults dominate SDCs; mantissa faults produce"
        " none (consistent with Figs 9/10); per-layer and per-block SDC"
        " rates come with Wilson intervals.",
    ),
    (
        "mitigation-ranger",
        "Extension — Ranger-style range restriction",
        "Implements the paper's 'fault isolation' prescription:"
        " calibrated per-layer clamps contain memory-fault blowups."
        " Measured: distorted-output rate drops and normalized BLEU"
        " improves with clipping enabled.",
    ),
    (
        "mitigation-router",
        "Extension — golden-copy router protection",
        "Implements Observation #6's prescription ('gate layers ..."
        " must be explicitly protected'). Measured: verify-and-restore"
        " before each inference eliminates all gate-fault output changes"
        " at a measured few-KiB memory overhead.",
    ),
    (
        "mitigation-detector",
        "Extension — distorted-output detection coverage",
        "A structural screen flags distorted outputs with high coverage"
        " and near-zero false alarms on masked runs; subtly-wrong SDCs"
        " evade it — quantifying why the paper calls for better quality"
        " metrics.",
    ),
    (
        "ablation-activation-format",
        "Ablation — activation storage format (DESIGN.md §5.2)",
        "Computational faults corrupt activations in the engine's"
        " activation format. Flipping only that format reproduces the"
        " FP16 >= FP32 >= BF16 resilience ordering independently of"
        " weight storage, validating the storage/compute split.",
    ),
    (
        "ablation-router-topk",
        "Ablation — router top-k (DESIGN.md §5.4)",
        "Top-1 routing gives each token a single point of failure;"
        " top-2 dilutes a faulty expert's influence.",
    ),
    (
        "ablation-beam-length-penalty",
        "Ablation — beam length normalization (DESIGN.md §5.3)",
        "Length normalization changes which surviving hypothesis wins"
        " after a corrupted token tanks a path's cumulative probability.",
    ),
    (
        "ablation-trial-count",
        "Ablation — statistical-FI sample size (DESIGN.md §5.5)",
        "CI width shrinks ~1/sqrt(trials), the estimator the paper (and"
        " its [87] citation) uses to size campaigns.",
    ),
]

OBSERVATIONS = """\
## Fidelity summary (paper Observations #1–#11)

| # | Observation (paper) | Reproduced? | Where |
|---|---|---|---|
| 1 | Memory faults are more problematic than computational faults | yes | fig03/fig04: 2bits-mem lowest mean normalized performance; fig05/06: column-vs-row propagation mechanism asserted in tests |
| 2 | Generative tasks degrade more than multiple-choice | yes | fig11 note line: generative mean < multiple-choice mean |
| 3 | Families differ via weight/neuron distributions | yes (direction partly differs) | fig13: falconlike widest spread; at tiny scale the widest-distribution family is not always the most stable cell-by-cell |
| 4 | Fine-tuned models more reliable under memory faults | partially | fig03 wmt16/xlsum rows: alma/summarizer cells at-or-above their base models at bench scale, inside CI |
| 5 | MoE worse on multiple-choice, better on generative | partially | fig14: generative direction reproduced; the multiple-choice direction is not (MoE >= dense at this scale) |
| 6 | Gate faults change expert selection without touching experts | yes | fig15: 47% selection-change rate with ~1-2% BLEU/chrF cost; mitigation-router shows explicit protection closes it entirely |
| 7 | Scale does not determine resilience | yes | fig16: no monotone trend across the 5-size sweep |
| 8 | Quantized models are more reliable | yes | fig17: INT4/INT8 at ~1.0, BF16 below |
| 9 | Beam search beats greedy under computational faults | yes (within CI) | fig18/fig19: beam >= greedy, saturating after 2 beams while runtime grows |
| 10 | CoT increases reliability on reasoning tasks | partially | fig20: CoT memory cells 0.92–0.94 (paper ~0.9); comp cells 0.83–0.86 (paper ~1.0 — short reasoning traces leave less recovery room); the direct-answer column is mostly unreachable — tiny models score ~0 without reasoning tokens, the no-CoT penalty in the extreme |
| 11 | Larger-range dtypes are less reliable (BF16 worst) | partially | fig21: BF16 has the worst single cell and the bit-flip magnitudes are bit-exactly reproduced, but FP16 vs BF16 means stay tied at tiny scale (both saturate 64-dim activations); the activation-format ablation shows FP16 strictly best for computational faults |

Known substrate deviations (documented, expected):

* Absolute SDC rates are higher per fault than the paper's because one
  corrupted weight out of ~10^5 is proportionally much larger than one
  out of ~10^10; normalized orderings are unaffected.
* Distorted outputs form a larger share of memory-fault SDCs than in
  most paper cells (the paper itself sees this skew for Qwen2.5 under
  memory faults).
* TruthfulQA's paper-reported performance *improvement* under
  computational faults cannot appear here: the synthetic baseline is at
  ceiling (100%), so normalized performance is capped at 1.0.
"""


def main() -> None:
    results = artifacts_dir() / "results"
    parts = [HEADER]
    for file_id, title, commentary in SECTIONS:
        path = results / f"{file_id}.txt"
        parts.append(f"\n## {title}\n\n{commentary}\n")
        if path.exists():
            parts.append("```\n" + path.read_text().rstrip() + "\n```\n")
        else:
            parts.append(
                "*(no archived result — run `pytest benchmarks/"
                " --ignore=benchmarks/ledger`)*\n"
            )
    parts.append("\n" + OBSERVATIONS)
    out = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
    out.write_text("\n".join(parts))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
