"""The auto-vs-serial differential matrix: every fast path a campaign
can take records the serial reference's trials, bit for bit.

A case is one cell — a fault model, a storage policy, a dense or MoE
model, a task (``wmt16``, generative and greedy, or ``mmlu``,
multiple-choice) and 0 or 2 workers — run with the default
``decode_strategy="auto"`` at the case's workers and compared by
:func:`repro.fi.differential.assert_records_equal` against the same cell
with ``decode_strategy="serial"`` (in-process; one serial run serves both
worker counts).  The models are two small ones trained in memory once
per process, dense and MoE, so no zoo cache is read or written.

The whole matrix is 7 fault models x fp32/fp16/bf16/int8/int4 x dense
and MoE x two tasks x workers {0, 2}: 280 auto campaigns of
``TRIALS`` (48) trials each.  ``--sample N --seed S`` runs N
cases drawn by ``S`` instead.  Each case prints one line; the exit
status is 1 if any case differed, with every differing case named.

Usage::

    PYTHONPATH=src python scripts/differential_matrix.py [--sample N --seed S]
"""

from __future__ import annotations

import argparse
import functools
import itertools
import random
import sys
import time

import numpy as np

from repro.fi import FaultModel, FICampaign, assert_records_equal
from repro.generation import GenerationConfig
from repro.inference import InferenceEngine
from repro.model import ModelConfig, TransformerLM
from repro.tasks import MMLUTask, TranslationTask, World, all_tasks, standardized_subset
from repro.training import (
    TrainConfig,
    build_mixed_corpus,
    build_tokenizer,
    corpus_to_stream,
    train_lm,
)

POLICIES = ("fp32", "fp16", "bf16", "int8", "int4")
TASKS = (TranslationTask, MMLUTask)
WORKERS = (0, 2)
EXAMPLES = 4
TRIALS = 48


def cases() -> list[tuple]:
    """Every ``(fault model, policy, moe, task, workers)`` of the matrix."""
    return list(itertools.product(FaultModel, POLICIES, (False, True), TASKS, WORKERS))


@functools.cache
def world_and_tokenizer():
    world = World(seed=2025)
    return world, build_tokenizer(world)


@functools.cache
def trained(moe: bool):
    """A small model trained in memory (seconds), dense or MoE."""
    world, tokenizer = world_and_tokenizer()
    docs = build_mixed_corpus(all_tasks(world), np.random.default_rng(99), 2500)
    extra = dict(d_ff=48, n_experts=4, top_k=2) if moe else dict(d_ff=96)
    config = ModelConfig(
        vocab_size=len(tokenizer), d_model=48, n_heads=4, n_blocks=3, max_seq=160,
        **extra,
    )
    model = TransformerLM(config, seed=7)
    train_lm(
        model,
        corpus_to_stream(docs, tokenizer),
        TrainConfig(steps=320, batch_size=12, seq_len=56, seed=3, lr=4e-3),
    )
    return model.to_store()


def campaign(fault: FaultModel, policy: str, moe: bool, task_cls, strategy: str):
    world, tokenizer = world_and_tokenizer()
    task = task_cls(world)
    generation = None
    if task_cls is TranslationTask:
        generation = GenerationConfig(
            max_new_tokens=task.max_new_tokens, eos_id=tokenizer.vocab.eos_id
        )
    return FICampaign(
        engine=InferenceEngine(trained(moe), weight_policy=policy),
        tokenizer=tokenizer,
        task_name=task.name,
        metrics=task.metrics,
        examples=standardized_subset(task, EXAMPLES),
        fault_model=fault,
        seed=9,
        generation=generation,
        decode_strategy=strategy,
    )


@functools.cache
def reference(fault, policy, moe, task_cls):
    """The serial records of a cell, run once for both worker counts."""
    return campaign(fault, policy, moe, task_cls, "serial").run(TRIALS).trials


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sample", type=int, default=None, help="run N drawn cases")
    parser.add_argument("--seed", type=int, default=0, help="seed of the draw")
    args = parser.parse_args(argv)
    todo = cases()
    if args.sample is not None:
        todo = sorted(
            random.Random(args.seed).sample(todo, min(args.sample, len(todo))),
            key=todo.index,
        )
    failed = []
    t0 = time.perf_counter()
    for fault, policy, moe, task_cls, workers in todo:
        name = (
            f"{fault.value} {policy} {'moe' if moe else 'dense'} {task_cls.name}"
            f" workers={workers}"
        )
        want = reference(fault, policy, moe, task_cls)
        got = campaign(fault, policy, moe, task_cls, "auto").run(TRIALS, workers)
        try:
            assert_records_equal(got.trials, want, "auto", "serial")
        except AssertionError as exc:
            failed.append(name)
            print(f"DIFFERS {name}: {str(exc).splitlines()[0]}", flush=True)
        else:
            print(f"equal   {name}", flush=True)
    print(
        f"{len(todo) - len(failed)} of {len(todo)} cases equal serial"
        f" ({time.perf_counter() - t0:.0f} s)"
    )
    for name in failed:
        print(f"  differs: {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
