"""Extension benches: the protection mechanisms the paper prescribes.

Not a paper figure — these quantify the prescriptions in the paper's
conclusions on the same campaign machinery: Ranger-style range
restriction against memory faults, golden-copy router protection
against gate faults (Observation #6), and distorted-output detection
coverage.
"""

import numpy as np

from repro.fi import FaultModel
from repro.harness.results import ExperimentResult
from repro.inference import InferenceEngine
from repro.mitigation import RangeRestrictor, SelectiveProtection, router_layers
from repro.zoo import load_model


def test_bench_mitigation_range_restriction(ctx, emit):
    store = load_model("qwenlike-base", verbose=False)

    def run():
        result = ExperimentResult(
            "mitigation-ranger",
            "Range restriction vs unprotected under 2bits-mem (bf16)",
        )
        calibration = [
            ctx.tokenizer.encode(ex.prompt) for ex in ctx.examples("wmt16", 6)
        ]
        for protected in (False, True):
            engine = InferenceEngine(store, weight_policy="bf16")
            guard = None
            if protected:
                guard = RangeRestrictor(margin=0.25)
                guard.calibrate(engine, calibration)
                guard.install(engine)
            cell = ctx.campaign(engine, "wmt16", FaultModel.MEM_2BIT).run(
                ctx.n_trials
            )
            if guard is not None:
                guard.uninstall()
            result.add(
                variant="ranger" if protected else "unprotected",
                normalized_bleu=cell.normalized["bleu"].ratio,
                sdc_rate=cell.sdc_rate,
                distorted=cell.sdc_breakdown()["distorted"],
                clip_events=(guard.clip_events if guard else 0),
            )
        return result

    result = run()
    emit(result)
    by_variant = {r["variant"]: r for r in result.rows}
    # Range restriction must not hurt, and should cut distorted outputs.
    assert (
        by_variant["ranger"]["distorted"]
        <= by_variant["unprotected"]["distorted"] + 1.0 / ctx.n_trials
    )


def test_bench_mitigation_router_protection(ctx, emit):
    store = load_model("moelike-base", verbose=False)

    def router_only(name: str) -> bool:
        return name.endswith("router")

    def run():
        result = ExperimentResult(
            "mitigation-router",
            "Golden-copy router protection vs unprotected (gate-only faults)",
        )
        for protected in (False, True):
            engine = InferenceEngine(store, weight_policy="bf16")
            campaign = ctx.campaign(
                engine, "wmt16", FaultModel.MEM_2BIT, layer_filter=router_only
            )
            if protected:
                # ``_reference`` is each trial's decode on the one-trial
                # reference path only: a wave decodes its rows without it.
                campaign.decode_strategy = "serial"
                protection = SelectiveProtection(engine, router_layers(engine))
                original = campaign._reference

                def guarded_eval(*args, _orig=original, _p=protection):
                    _p.verify_and_restore()
                    return _orig(*args)

                campaign._reference = guarded_eval
            cell = campaign.run(ctx.n_trials)
            result.add(
                variant="protected" if protected else "unprotected",
                normalized_bleu=cell.normalized["bleu"].ratio,
                changed_outputs=float(np.mean([t.changed for t in cell.trials])),
                overhead_bytes=(
                    protection.overhead_bytes if protected else 0
                ),
            )
        return result

    result = run()
    emit(result)
    by_variant = {r["variant"]: r for r in result.rows}
    # With verify/restore before every inference, gate faults are
    # repaired before they can act: no output may change.
    assert by_variant["protected"]["changed_outputs"] == 0.0
    assert by_variant["protected"]["normalized_bleu"] >= 0.999


def test_bench_mitigation_detector_coverage(ctx, emit):
    store = load_model("qwenlike-base", verbose=False)

    def run():
        result = ExperimentResult(
            "mitigation-detector",
            "LogitAnomalyDetector coverage by SDC type (gsm8k, 2bits-mem)",
        )
        from repro.mitigation import output_structure_flags

        engine = InferenceEngine(store, weight_policy="bf16")
        cell = ctx.campaign(engine, "gsm8k", FaultModel.MEM_2BIT).run(
            ctx.n_trials * 2
        )
        counts = {"masked": [0, 0], "sdc-subtle": [0, 0], "sdc-distorted": [0, 0]}
        for trial in cell.trials:
            flagged = output_structure_flags(trial.prediction)
            bucket = counts[trial.outcome.value]
            bucket[0] += int(flagged)
            bucket[1] += 1
        for outcome, (hits, total) in counts.items():
            result.add(
                outcome=outcome,
                flagged=hits,
                total=total,
                coverage=hits / total if total else float("nan"),
            )
        return result

    result = run()
    emit(result)
    rows = {r["outcome"]: r for r in result.rows}
    # Structural detection catches distorted outputs...
    if rows["sdc-distorted"]["total"]:
        assert rows["sdc-distorted"]["coverage"] >= 0.5
    # ...but masked (clean) runs raise (almost) no false alarms.
    if rows["masked"]["total"]:
        assert rows["masked"]["coverage"] <= 0.1
