"""The reference inputs every workload and probe shares: the zoo's own
target/draft pair, loaded from the ledger's weight cache."""

from __future__ import annotations

import resource
import time
from dataclasses import replace

import common

from repro.generation import GenerationConfig, greedy_decode
from repro.inference import InferenceEngine
from repro.zoo import default_tokenizer, default_world, draft_for, load_model
from repro.zoo.build import cache_path


def build_pair(spec: dict) -> dict:
    """Load (building on a cold cache) the reference pair: input generation,
    reported as ``zoo.build_s`` and never part of ``setup_s``."""
    draft = draft_for(common.TARGET).name
    cold = not (cache_path(common.TARGET).exists() and cache_path(draft).exists())
    t0 = time.perf_counter()
    target_store = load_model(common.TARGET, verbose=False)
    draft_store = load_model(draft, verbose=False)
    elapsed = time.perf_counter() - t0
    return {
        "cold": cold,
        "build_s": elapsed if cold else 0.0,
        "fingerprints": {
            common.TARGET: target_store.fingerprint(),
            draft: draft_store.fingerprint(),
        },
    }


class Inputs:
    """Everything a workload's set-up builds before its first timed call."""

    def __init__(self, policy: str, with_draft: bool) -> None:
        draft_name = draft_for(common.TARGET).name
        self.target_store = load_model(common.TARGET, verbose=False)
        self.draft_store = load_model(draft_name, verbose=False) if with_draft else None
        self.engine = InferenceEngine(self.target_store, weight_policy=policy)
        self.draft = (
            InferenceEngine(self.draft_store) if self.draft_store is not None else None
        )
        self.world = default_world()
        self.tokenizer = default_tokenizer(self.world)
        self.fingerprints = {common.TARGET: self.target_store.fingerprint()}
        if self.draft_store is not None:
            self.fingerprints[draft_name] = self.draft_store.fingerprint()

    def generation(self, max_new: int = 32) -> GenerationConfig:
        return GenerationConfig(max_new_tokens=max_new, eos_id=self.tokenizer.vocab.eos_id)


def serial_references(inputs: Inputs, prompts) -> list[list[int]]:
    """What the serial reference decoder emits for each prompt shape."""
    config = inputs.generation()
    return [
        greedy_decode(
            inputs.engine,
            list(shape.ids),
            replace(config, max_new_tokens=shape.max_new),
            strategy="serial",
        )
        for shape in prompts
    ]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
