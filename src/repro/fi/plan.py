"""A campaign cell as a value: what its trials are, not how they run.

A (model, task, fault model) cell of the study (paper §3.2) is a
:class:`CellPlan`: everything a trial's record is a function of besides
the engine, and nothing of how trials run (``decode_strategy``, chaos,
workers).  Every trial's RNG derives from a *stable trial key* —
``(example identity, trial index, fault model)`` — never from
enumeration order, so a cell is bit-reproducible, embarrassingly
parallel and restartable, and rows of two cells can share a forward
while each draws its own sites.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.fi.fault_models import FaultModel
from repro.fi.golden import weights_digest
from repro.fi.sites import FaultSite, LayerFilter, sample_site
from repro.generation.decode import GenerationConfig
from repro.inference.engine import InferenceEngine
from repro.tasks.base import MCExample
from repro.text.tokenizer import Tokenizer

__all__ = ["CellPlan", "example_id"]


def example_id(ex) -> str:
    """Content hash identifying an example across runs and reorders."""
    if isinstance(ex, MCExample):
        payload = ["mc", ex.prompt, list(ex.options), ex.answer_index]
    else:
        payload = ["gen", ex.prompt, ex.reference]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class CellPlan:
    """One cell's identity: built once (:meth:`build`), never changed."""

    task_name: str
    metrics: tuple[str, ...]
    examples: tuple
    fault_model: FaultModel
    seed: int
    generation: GenerationConfig
    layer_filter: LayerFilter | None
    track_expert_selection: bool
    max_fault_iterations: int | None
    """Restrict computational-fault timing to iterations below this
    bound (the paper's CoT study injects only during reasoning-token
    generation)."""
    example_ids: tuple[str, ...]
    token_ids: tuple
    """Per example, its token ids: the prompt's, or ``(prompt, options)``
    for multiple choice — the cell's only encoding, as tuples."""
    is_mc: bool

    @classmethod
    def build(
        cls,
        tokenizer: Tokenizer,
        task_name: str,
        metrics: tuple[str, ...],
        examples: list,
        fault_model: FaultModel,
        seed: int = 0,
        generation: GenerationConfig | None = None,
        layer_filter: LayerFilter | None = None,
        track_expert_selection: bool = False,
        max_fault_iterations: int | None = None,
    ) -> "CellPlan":
        """The plan of a cell over ``examples``, encoded with ``tokenizer``."""
        examples = tuple(examples)
        if not examples:
            raise ValueError("campaign needs at least one example")
        is_mc = isinstance(examples[0], MCExample)

        def encode(text: str) -> tuple[int, ...]:
            return tuple(tokenizer.encode(text))

        token_ids = tuple(
            (encode(ex.prompt), tuple(map(encode, ex.options))) if is_mc
            else encode(ex.prompt)
            for ex in examples
        )
        return cls(
            task_name, tuple(metrics), examples, fault_model, seed,
            generation or GenerationConfig(), layer_filter,
            track_expert_selection, max_fault_iterations,
            tuple(map(example_id, examples)), token_ids, is_mc,
        )

    def key(self, trial: int) -> tuple[str, int, str]:
        """The stable ``(example id, trial index, fault model)`` key.

        This is the identity a checkpoint journal records and the sole
        source of a trial's RNG entropy (besides the seed) — enumeration
        order, worker scheduling and resume boundaries can never shift
        which site a trial samples.
        """
        idx = trial % len(self.examples)
        return (self.example_ids[idx], trial, self.fault_model.value)

    def rng(self, trial: int) -> np.random.Generator:
        """The trial's generator, seeded with the seed's 32-bit words
        (little-endian, at least one) and the first 16 bytes of its
        key's SHA-256 as four more: the entropy pool numpy builds from
        the list ``[seed, *words]``, from one array."""
        digest = hashlib.sha256(json.dumps(self.key(trial)).encode()).digest()
        seed = int(self.seed)
        head = seed.to_bytes(4 * (-(-seed.bit_length() // 32) or 1), "little")
        return np.random.default_rng(np.frombuffer(head + digest[:16], "<u4"))

    @property
    def max_fault_iter(self) -> int:
        """Exclusive bound on the iteration a trial's fault may strike."""
        max_iter = 1 if self.is_mc else self.generation.max_new_tokens
        if self.max_fault_iterations is not None:
            max_iter = min(max_iter, self.max_fault_iterations)
        return max_iter

    def site(self, engine: InferenceEngine, trial: int) -> FaultSite:
        """The site ``trial`` strikes on ``engine``."""
        return sample_site(
            engine, self.fault_model, self.rng(trial),
            max_iterations=self.max_fault_iter, layer_filter=self.layer_filter,
        )

    def golden_key(self, engine: InferenceEngine) -> tuple:
        """Everything the cell's fault-free passes on ``engine``, the
        baseline read off them and its scores are a function of: the
        weights as stored now, every example's token ids, the decoding
        config, and the examples' content (references, answers) and
        metric names the scores were computed against
        (:func:`repro.fi.golden.take_shared`)."""
        return (
            weights_digest(engine), self.token_ids, self.generation,
            self.example_ids, self.metrics,
        )

    def fingerprint(self) -> dict:
        """Result-determining configuration, hashed into checkpoints.

        How trials run is not in it: ``decode_strategy`` cannot change a
        record (the differential suite holds it to that), so a journal
        written under one execution strategy may be resumed under the
        other.
        """
        return {
            "task": self.task_name,
            "fault_model": self.fault_model.value,
            "seed": self.seed,
            "is_mc": self.is_mc,
            "metrics": list(self.metrics),
            "example_ids": list(self.example_ids),
            "generation": {
                "max_new_tokens": self.generation.max_new_tokens,
                "num_beams": self.generation.num_beams,
                "length_penalty": self.generation.length_penalty,
                "eos_id": self.generation.eos_id,
            },
            "max_fault_iterations": self.max_fault_iterations,
            "track_expert_selection": self.track_expert_selection,
            "layer_filter": (
                getattr(self.layer_filter, "__name__", repr(self.layer_filter))
                if self.layer_filter is not None
                else None
            ),
        }
