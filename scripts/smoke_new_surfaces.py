"""Runtime-surface fault-model smoke: KV cache, accumulator, speculation.

Runs one tiny campaign per new fault model — serial and under a
2-worker pool — and holds the two executions bit-identical via the
differential oracle; runs a ``1bit-kv`` campaign attached to a live
``InferenceServer`` (every trial one tenant request carrying its KV
fault) and holds it bit-identical to the same campaign detached; then
runs the draft-vs-target speculation study and asserts the masking
theorem on the measured rates (draft-side faults never produce SDCs;
the masking rate over fired trials is 1.0).

Everything is built in-memory (untrained tiny models): the smoke
proves mechanics and execution-path equivalence, not model quality.

Usage::

    PYTHONPATH=src python scripts/smoke_new_surfaces.py [--trials N]
"""

from __future__ import annotations

import argparse
import sys

from repro.fi import (
    FaultModel,
    FICampaign,
    assert_results_equal,
    by_surface,
    speculation_masking,
)
from repro.generation import GenerationConfig
from repro.inference import InferenceEngine
from repro.model import ModelConfig, TransformerLM
from repro.obs import telemetry
from repro.serve import InferenceServer
from repro.tasks import TranslationTask, World, standardized_subset
from repro.training import build_tokenizer

NEW_MODELS = (
    FaultModel.KV_1BIT,
    FaultModel.KV_2BIT,
    FaultModel.ACC_1BIT,
    FaultModel.ACC_2BIT,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=6)
    args = parser.parse_args(argv)

    world = World(seed=2025)
    tokenizer = build_tokenizer(world)
    config = ModelConfig(
        vocab_size=len(tokenizer),
        d_model=32,
        n_heads=4,
        n_blocks=2,
        d_ff=48,
        max_seq=160,
    )
    target_store = TransformerLM(config, seed=5).to_store()
    draft_store = TransformerLM(config, seed=21).to_store()
    task = TranslationTask(world)

    def campaign(fault_model: FaultModel, **kw) -> FICampaign:
        return FICampaign(
            engine=InferenceEngine(target_store),
            tokenizer=tokenizer,
            task_name=task.name,
            metrics=task.metrics,
            examples=standardized_subset(task, 3),
            fault_model=fault_model,
            seed=9,
            generation=GenerationConfig(
                max_new_tokens=task.max_new_tokens,
                eos_id=tokenizer.vocab.eos_id,
            ),
            **kw,
        )

    for fault_model in NEW_MODELS:
        serial = campaign(fault_model).run(args.trials)
        pooled = campaign(fault_model).run(args.trials, n_workers=2)
        assert_results_equal(pooled, serial, "pooled", "serial")
        (group,) = by_surface(serial)
        fired = sum(t.fired for t in serial.trials)
        print(
            f"{fault_model.value}: {serial.n_trials} trials on"
            f" {group.group}, {fired} fired,"
            f" sdc_rate={serial.sdc_rate:.2f} (serial == 2 workers)"
        )

    # The live-server mode: the campaign's trials are tenant requests,
    # each KV fault pinned to its request's slot; its baseline stays the
    # local golden sweep.  Traced, so the served requests are counted.
    attached = campaign(FaultModel.KV_1BIT)
    tel = telemetry()
    tel.reset()
    with InferenceServer(attached.engine, attached.generation, max_batch=4) as server:
        attached.attach_server(server)
        tel.enable()
        try:
            served = attached.run(args.trials)
            counters = tel.metrics.snapshot()["counters"]
        finally:
            tel.disable()
            tel.reset()
        attached.detach_server()
    local = attached.run(args.trials)
    assert_results_equal(served, local, "served", "detached")
    requests = int(counters.get("serve.tenant.campaign.requests", 0))
    if requests != args.trials:
        print(
            f"FAIL: {requests} campaign requests served for {args.trials} trials",
            file=sys.stderr,
        )
        return 1
    print(
        f"live server: {args.trials} {FaultModel.KV_1BIT.value} trials served"
        f" as {requests} tenant requests (served == detached)"
    )

    for side in ("draft", "target"):
        spec = dict(
            draft_model=InferenceEngine(draft_store),
            spec_fault_side=side,
        )
        serial = campaign(FaultModel.KV_1BIT, **spec).run(args.trials)
        pooled = campaign(FaultModel.KV_1BIT, **spec).run(
            args.trials, n_workers=2
        )
        assert_results_equal(pooled, serial, "pooled", "serial")
        row = speculation_masking(serial)[side]
        print(
            f"speculation/{side}: {row['fired']}/{row['trials']} fired,"
            f" masking_rate={row['masking_rate']:.2f}, sdc={row['sdc']}"
        )
        if side == "draft" and row["fired"] and row["masking_rate"] != 1.0:
            print("FAIL: draft-side fault escaped verification", file=sys.stderr)
            return 1

    print("new-surface smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
