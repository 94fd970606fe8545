"""Runtime-surface fault-model smoke: KV cache and accumulator.

Runs one tiny campaign per new fault model — serial and under a
2-worker pool — and holds the two executions bit-identical via the
differential oracle.

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
)
from repro.generation import GenerationConfig
from repro.inference import InferenceEngine
from repro.model import ModelConfig, TransformerLM
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
    task = TranslationTask(world)

    def campaign(fault_model: FaultModel) -> FICampaign:
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

    print("new-surface smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
