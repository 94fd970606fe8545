"""Shared fixtures: a tiny world/tokenizer and small trained models.

The trained model is session-scoped and deliberately tiny (a few
hundred training steps) — enough that generations are structured and
fault effects are measurable, while keeping the suite fast.  Tests of
pure mechanics (injection, propagation, decoding) use an *untrained*
model, which exercises identical code paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fi import executor
from repro.inference import InferenceEngine
from repro.model import ModelConfig, TransformerLM
from repro.tasks import World, all_tasks
from repro.text.tokenizer import Tokenizer
from repro.training import (
    TrainConfig,
    build_mixed_corpus,
    build_tokenizer,
    corpus_to_stream,
    train_lm,
)


@pytest.fixture()
def no_backoff(monkeypatch):
    """Retries without the executor's backoff sleep.  Set before any
    pool forks, so its workers inherit it."""
    monkeypatch.setattr(executor, "_RETRY_BACKOFF", 0.0)


@pytest.fixture(scope="session")
def world() -> World:
    return World(seed=2025)


@pytest.fixture(scope="session")
def tokenizer(world: World) -> Tokenizer:
    return build_tokenizer(world)


def _tiny_config(tokenizer: Tokenizer, **overrides) -> ModelConfig:
    defaults = dict(
        vocab_size=len(tokenizer),
        d_model=32,
        n_heads=4,
        n_blocks=2,
        d_ff=48,
        max_seq=160,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


@pytest.fixture(scope="session")
def tiny_config(tokenizer: Tokenizer) -> ModelConfig:
    return _tiny_config(tokenizer)


@pytest.fixture(scope="session")
def untrained_store(tiny_config: ModelConfig):
    return TransformerLM(tiny_config, seed=5).to_store()


@pytest.fixture()
def untrained_engine(untrained_store) -> InferenceEngine:
    return InferenceEngine(untrained_store)


@pytest.fixture(scope="session")
def moe_store(tokenizer: Tokenizer):
    config = _tiny_config(tokenizer, d_ff=32, n_experts=4, top_k=2)
    return TransformerLM(config, seed=6).to_store()


@pytest.fixture()
def moe_engine(moe_store) -> InferenceEngine:
    return InferenceEngine(moe_store)


@pytest.fixture(scope="session")
def trained_store(world: World, tokenizer: Tokenizer):
    """A briefly trained tiny model shared by integration tests."""
    rng = np.random.default_rng(99)
    docs = build_mixed_corpus(all_tasks(world), rng, 2500)
    stream = corpus_to_stream(docs, tokenizer)
    model = TransformerLM(
        _tiny_config(tokenizer, d_model=48, n_blocks=3, d_ff=96), seed=7
    )
    train_lm(
        model,
        stream,
        TrainConfig(steps=320, batch_size=12, seq_len=56, seed=3, lr=4e-3),
    )
    return model.to_store()


@pytest.fixture()
def trained_engine(trained_store) -> InferenceEngine:
    return InferenceEngine(trained_store)
