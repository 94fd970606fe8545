"""Mitigation study: acting on the paper's prescriptions.

The paper tells HPC designers to protect memory over compute, and
singles out MoE gate layers for explicit protection.  This example
turns those prescriptions into measurements:

1. Ranger-style range restriction under 2-bit memory faults,
2. weight scan-and-scrub repairing an injected blowup in place,
3. golden-copy router protection neutralizing gate faults.

Run:  python examples/mitigation_study.py
"""

import numpy as np

from repro import FaultModel, FICampaign, GenerationConfig, InferenceEngine
from repro.fi import FaultSite, MemoryFaultInjector
from repro.mitigation import (
    RangeRestrictor,
    SelectiveProtection,
    WeightGuard,
    router_layers,
)
from repro.tasks import TranslationTask, standardized_subset
from repro.zoo import default_tokenizer, default_world, load_model

N_TRIALS = 36


def _campaign(engine, tokenizer, task, **kw):
    return FICampaign(
        engine=engine,
        tokenizer=tokenizer,
        task_name=task.name,
        metrics=task.metrics,
        examples=standardized_subset(task, 8),
        fault_model=FaultModel.MEM_2BIT,
        seed=61,
        generation=GenerationConfig(
            max_new_tokens=task.max_new_tokens, eos_id=tokenizer.vocab.eos_id
        ),
        **kw,
    )


def range_restriction(store, tokenizer, world) -> None:
    print("=== Ranger-style range restriction (2bits-mem, bf16) ===")
    task = TranslationTask(world)
    calibration = [
        tokenizer.encode(ex.prompt) for ex in standardized_subset(task, 6)
    ]
    for protect in (False, True):
        engine = InferenceEngine(store, weight_policy="bf16")
        guard = None
        if protect:
            guard = RangeRestrictor(margin=0.25)
            guard.calibrate(engine, calibration)
            guard.install(engine)
        result = _campaign(engine, tokenizer, task).run(N_TRIALS)
        if guard:
            guard.uninstall()
        label = "ranger     " if protect else "unprotected"
        print(
            f"{label}: normalized BLEU {result.normalized['bleu'].ratio:.3f}"
            f"  distorted {result.sdc_breakdown()['distorted']:.2f}"
            + (f"  (clipped {guard.clip_events} values)" if guard else "")
        )


def scan_and_scrub(store) -> None:
    print("\n=== weight scan & scrub ===")
    engine = InferenceEngine(store)
    guard = WeightGuard(headroom=4.0)
    guard.profile(engine)
    site = FaultSite(
        FaultModel.MEM_2BIT, "blocks.1.up_proj", 7, 3, bits=(30, 29)
    )
    with MemoryFaultInjector(engine, site):
        anomalies = guard.scan(engine)
        print(f"injected blowup at {site.layer_name}({site.row},{site.col});"
              f" scan found {len(anomalies)} anomaly(ies)")
        for a in anomalies:
            print(f"  -> {a.layer_name}[{a.row},{a.col}] = {a.value:.3g}"
                  f" (threshold {a.threshold:.3g})")
        repaired = guard.scrub(engine)
        print(f"scrubbed {len(repaired)}; rescan finds"
              f" {len(guard.scan(engine))}")


def router_protection(tokenizer, world) -> None:
    print("\n=== golden-copy router protection (gate-only faults) ===")
    store = load_model("moelike-base")
    task = TranslationTask(world)
    for protect in (False, True):
        engine = InferenceEngine(store, weight_policy="bf16")
        campaign = _campaign(
            engine, tokenizer, task,
            layer_filter=lambda name: name.endswith("router"),
        )
        if protect:
            protection = SelectiveProtection(engine, router_layers(engine))
            original = campaign._eval_gen
            campaign._eval_gen = lambda *args: protection.guarded(
                lambda: original(*args)
            )
        result = campaign.run(N_TRIALS)
        changed = float(np.mean([t.changed for t in result.trials]))
        label = "protected  " if protect else "unprotected"
        extra = (
            f"  (overhead {protection.overhead_bytes / 1024:.1f} KiB,"
            f" {protection.corrections} corrections)" if protect else ""
        )
        print(f"{label}: normalized BLEU"
              f" {result.normalized['bleu'].ratio:.3f}  outputs changed"
              f" {changed:.2f}{extra}")


def main() -> None:
    world = default_world()
    tokenizer = default_tokenizer(world)
    store = load_model("qwenlike-base")
    range_restriction(store, tokenizer, world)
    scan_and_scrub(store)
    router_protection(tokenizer, world)


if __name__ == "__main__":
    main()
