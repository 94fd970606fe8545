"""Build-and-cache pipeline for zoo models.

``load_model(name)`` returns a trained :class:`ParamStore`, building it
(pretraining from scratch or fine-tuning from its base) on first use
and caching the weights as an ``.npz`` under the artifacts directory,
keyed by a hash of everything that determines the result — so a cache
hit is bit-identical to a rebuild.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zipfile
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.model.params import ParamStore, arena_valid
from repro.model.transformer import TransformerLM
from repro.obs.runtime import telemetry as _telemetry
from repro.tasks import World, all_tasks
from repro.text.tokenizer import Tokenizer
from repro.training.data import (
    build_mixed_corpus,
    build_tokenizer,
    corpus_to_stream,
)
from repro.training.trainer import train_lm
from repro.zoo.registry import ZooSpec, get_spec

__all__ = [
    "WORLD_SEED",
    "artifacts_dir",
    "default_world",
    "default_tokenizer",
    "load_model",
    "build_model",
    "cache_path",
    "sidecar_path",
]

WORLD_SEED = 2025
_CORPUS_SEED = 31337
CORPUS_VERSION = 2
"""Bump when task generators change: the cache key must capture corpus
*content*, which is code-derived and invisible to the spec hash."""

# What ``ParamStore.load`` raises on a file that is not the archive
# ``ParamStore.save`` wrote: not a zip / truncated (BadZipFile, EOFError,
# OSError), a damaged member (zlib.error), a missing ``__config__`` entry
# (KeyError), bytes numpy takes for a pickle or a config that does not
# parse (ValueError).
_UNREADABLE_ARCHIVE = (
    zipfile.BadZipFile, zlib.error, EOFError, OSError, KeyError, ValueError
)


def artifacts_dir() -> Path:
    """Weight-cache directory (override with ``REPRO_ARTIFACTS``)."""
    env = os.environ.get("REPRO_ARTIFACTS")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "artifacts"


def default_world() -> World:
    return World(seed=WORLD_SEED)


def default_tokenizer(world: World | None = None) -> Tokenizer:
    return build_tokenizer(world or default_world())


def _spec_hash(spec: ZooSpec, vocab_size: int) -> str:
    spec_payload = asdict(spec)
    # Pairing metadata cannot change trained weights, so it must not
    # change the cache key (adding a draft_of pairing would otherwise
    # invalidate every cached build of that model).
    spec_payload.pop("draft_of", None)
    payload = json.dumps(
        {
            "spec": spec_payload,
            "vocab": vocab_size,
            "world": WORLD_SEED,
            "corpus": CORPUS_VERSION,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def cache_path(name: str, directory: Path | None = None) -> Path:
    world = default_world()
    tokenizer = default_tokenizer(world)
    spec = get_spec(name)
    directory = directory or artifacts_dir()
    return directory / f"{name}-{_spec_hash(spec, len(tokenizer))}.npz"


def sidecar_path(name: str, directory: Path | None = None) -> Path:
    """The model's mmap-arena sidecar directory, next to its ``.npz``.

    Same stem as :func:`cache_path` (the spec hash keys both), so the
    cache naming scheme is unchanged — the sidecar is an *additional*
    representation of the same bytes, preferred on load because
    attaching a memory map skips ``.npz`` decompression entirely and
    lets concurrent campaigns share one physical copy of the weights.
    """
    return cache_path(name, directory).with_suffix(".arena")


def _build_stream(
    spec: ZooSpec, world: World, tokenizer: Tokenizer
) -> np.ndarray:
    tasks = all_tasks(world)
    rng = np.random.default_rng([_CORPUS_SEED, spec.init_seed])
    if spec.corpus == "mixed":
        docs = build_mixed_corpus(tasks, rng, spec.corpus_docs)
    else:
        matching = [t for t in tasks if t.name == spec.corpus]
        if not matching:
            raise KeyError(f"no task named {spec.corpus!r} for {spec.name}")
        docs = matching[0].training_texts(rng, spec.corpus_docs)
    return corpus_to_stream(docs, tokenizer)


def build_model(
    name: str,
    directory: Path | None = None,
    verbose: bool = True,
) -> ParamStore:
    """Train the named model (recursively building its base first)."""
    spec = get_spec(name)
    world = default_world()
    tokenizer = default_tokenizer(world)
    if spec.base is not None:
        base_store = load_model(spec.base, directory=directory, verbose=verbose)
        model = TransformerLM.from_store(base_store)
    else:
        config = spec.model_config(len(tokenizer))
        model = TransformerLM(config, seed=spec.init_seed)
    stream = _build_stream(spec, world, tokenizer)
    tel = _telemetry()
    # perf_counter, not time.time: durations must come from the
    # monotonic clock (wall clock jumps under NTP corrections).
    t0 = time.perf_counter()

    def log(step: int, loss: float) -> None:
        tel.log(
            f"[zoo:{name}] step {step:5d} loss {loss:6.3f}"
            f" ({time.perf_counter() - t0:6.1f}s)",
            echo=verbose,
            model=name,
            step=step,
            loss=loss,
        )

    with tel.span("zoo.build", model=name):
        result = train_lm(model, stream, spec.train_config(), on_step=log)
    elapsed = time.perf_counter() - t0
    if tel.active:
        tel.metrics.histogram("zoo.build_s").observe(elapsed)
        tel.metrics.gauge(f"zoo.final_loss.{name}").set(result.smoothed_final())
    tel.log(
        f"[zoo:{name}] done: final loss"
        f" {result.smoothed_final():.3f} in {elapsed:.1f}s",
        echo=verbose,
        model=name,
        final_loss=result.smoothed_final(),
        elapsed_s=elapsed,
    )
    return model.to_store()


def load_model(
    name: str,
    directory: Path | None = None,
    verbose: bool = True,
    rebuild: bool = False,
) -> ParamStore:
    """Load the named model from cache, building (and caching) on miss.

    Warm loads prefer the mmap arena sidecar (zero-copy attach, no
    decompression); a cache written before the sidecar existed — or
    with a torn sidecar from an interrupted write — regenerates it
    from the ``.npz`` once and notes the repair.  An ``.npz`` that
    cannot be read (truncated, overwritten, not an archive) is a miss:
    the model is rebuilt over it, and the rebuild noted.
    """
    path = cache_path(name, directory)
    sidecar = path.with_suffix(".arena")
    if path.exists() and not rebuild:
        if arena_valid(sidecar):
            return ParamStore.open_shared(sidecar)
        try:
            store = ParamStore.load(path)
        except _UNREADABLE_ARCHIVE as exc:
            _telemetry().log(
                f"[zoo:{name}] cached {path.name} is unreadable"
                f" ({type(exc).__name__}: {exc}); rebuilding it",
                echo=verbose,
                model=name,
                cache=str(path),
            )
        else:
            store = store.to_shared(sidecar)
            _telemetry().log(
                f"[zoo:{name}] regenerated mmap sidecar {sidecar.name}"
                " (cache predates the shared-arena fast path)",
                echo=verbose,
                model=name,
                sidecar=str(sidecar),
            )
            return store
    store = build_model(name, directory=directory, verbose=verbose)
    store.save(path)
    return store.to_shared(sidecar)
