"""Fault-site addressing and uniform statistical sampling (paper §3.2).

A fault-injection target is identified exactly the way the paper
specifies: block ID, layer ID (the type of linear layer), a weight or
neuron position inside the target tensor, the flipped bit positions,
and — for computational faults in generative tasks — the token
generation iteration during which the fault strikes.

Sampling is uniform over the FI-targetable linear layers of the model
("statistical fault injection"): block uniform, layer type uniform,
position uniform within the tensor, bit positions uniform without
replacement over the storage width.

The runtime-state fault models extend the same two-stage scheme:

* **KV faults** sample (block, plane, head, channel, bits) statically
  plus a *position fraction* — the struck token position is resolved
  against the live cache's occupied prefix at strike time, so sampling
  is uniform over occupied positions only and always in-bounds for the
  actual cache geometry (prompt lengths differ per example).  Pooled
  slots need no slot coordinate: the fault binds to one sequence's
  cache views (the serial trial's only sequence, or a pinned slot).
* **Accumulator faults** sample the layer and output column like a
  computational fault, plus a *reduction split fraction* choosing how
  many of the GEMM's K products have accumulated when the flip lands.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.fi.fault_models import FaultModel
from repro.inference.engine import InferenceEngine
from repro.numerics.formats import get_format

__all__ = ["FaultSite", "sample_site", "LayerFilter", "KV_LAYER_SUFFIX"]

LayerFilter = Callable[[str], bool]

KV_LAYER_SUFFIX = "kv"
"""Pseudo layer-type suffix naming a block's K/V cache as a fault
surface (``blocks.3.kv`` — not a linear layer, but addressed the same
way so block/layer analyses group naturally)."""


@dataclass(frozen=True)
class FaultSite:
    """One fully resolved fault-injection location."""

    fault_model: FaultModel
    layer_name: str
    """Full layer name, e.g. ``"blocks.3.up_proj"`` (KV faults use the
    pseudo layer ``"blocks.3.kv"`` — the block's cache, not a linear)."""
    row: int
    col: int
    """Weight coordinates (memory faults), the output neuron/token
    position (computational/accumulator faults), or head/channel
    coordinates (KV faults: ``row`` is the attention head, ``col`` the
    head-dim channel)."""
    bits: tuple[int, ...]
    iteration: int = 0
    """Token generation iteration for transient faults (0 = prefill).
    KV faults latch: the flip lands at the first append reaching this
    iteration (speculative chunks may skip exact values)."""
    row_frac: float = 0.0
    """For computational/accumulator faults: fraction in [0, 1)
    mapping to a token row of the output tensor.  For KV faults:
    fraction mapping to a token *position* within the cache's occupied
    prefix at strike time."""
    engine_side: str = "target"
    """Always ``"target"``: a campaign strikes its one engine.  The field
    stays only because the ledger's campaign digests
    (``benchmarks/ledger/expected.json``) hash a site's ``repr``; it
    goes when those digests are next recorded."""
    plane: str = "k"
    """KV faults: which cache plane is struck (``"k"`` or ``"v"``)."""
    acc_frac: float = 0.0
    """Accumulator faults: fraction in [0, 1) choosing the reduction
    split — how many of the K products have accumulated when the
    partial sum is corrupted."""

    @property
    def block(self) -> int:
        """Decoder-block index parsed from the layer name."""
        return int(self.layer_name.split(".")[1])

    @property
    def layer_type(self) -> str:
        """Layer name without the block prefix (e.g. ``up_proj``)."""
        return self.layer_name.split(".", 2)[2]

    @property
    def highest_bit(self) -> int:
        """The most significant flipped bit (Figs 9/10 group by this)."""
        return max(self.bits)

    @property
    def surface(self) -> str:
        """Which runtime state the fault lands in (analysis grouping)."""
        return self.fault_model.surface


def _sample_bits(
    rng: np.random.Generator, n_bits: int, width: int
) -> tuple[int, ...]:
    return tuple(int(b) for b in rng.choice(width, size=n_bits, replace=False))


def _sample_kv_site(
    engine: InferenceEngine,
    fault_model: FaultModel,
    rng: np.random.Generator,
    max_iterations: int,
    layer_filter: LayerFilter | None,
) -> FaultSite:
    """Uniform KV site: block, plane, head, channel, bits, strike time.

    The token *position* is sampled as a fraction (``row_frac``) and
    resolved against the live cache's occupied length at strike time —
    the only way a pre-sampled site can be uniform over occupied
    positions when prompt lengths vary per example.
    """
    cfg = engine.config
    kv_layers = [
        f"blocks.{b}.{KV_LAYER_SUFFIX}" for b in range(cfg.n_blocks)
    ]
    if layer_filter is not None:
        kv_layers = [name for name in kv_layers if layer_filter(name)]
    if not kv_layers:
        raise ValueError("layer filter excluded every KV-cache block")
    layer_name = kv_layers[int(rng.integers(0, len(kv_layers)))]
    # K/V buffers are stored float32 regardless of the weight policy.
    return FaultSite(
        fault_model=fault_model,
        layer_name=layer_name,
        row=int(rng.integers(0, cfg.n_heads)),
        col=int(rng.integers(0, cfg.head_dim)),
        bits=_sample_bits(rng, fault_model.n_bits, 32),
        iteration=int(rng.integers(0, max(1, max_iterations))),
        row_frac=float(rng.random()),
        plane="k" if int(rng.integers(0, 2)) == 0 else "v",
    )


@dataclass(frozen=True)
class _LinearTables:
    """What a linear-layer site is drawn from on one engine under one
    layer filter: the faultable layers grouped by block (in block order)
    and each layer's ``(rows, cols, storage bits)``."""

    by_block: list[list[str]]
    geometry: dict[str, tuple[int, int, int]]

    @classmethod
    def build(
        cls, engine: InferenceEngine, layer_filter: LayerFilter | None
    ) -> "_LinearTables":
        layers = engine.linear_layer_names()
        if layer_filter is not None:
            layers = [name for name in layers if layer_filter(name)]
        if not layers:
            raise ValueError("layer filter excluded every fault-targetable layer")
        blocks = sorted({name.split(".")[1] for name in layers})
        by_block = [[n for n in layers if n.split(".")[1] == b] for b in blocks]
        geometry = {}
        for name in layers:
            store = engine.weight_store(name)
            geometry[name] = (*store.shape, store.n_storage_bits)
        return cls(by_block, geometry)


_TABLES: "weakref.WeakKeyDictionary[InferenceEngine, tuple]" = (
    weakref.WeakKeyDictionary()
)
"""Engine -> ``(layer filter, its _LinearTables)``: the tables of the
filter last sampled under.  A campaign samples every trial under one
filter, so they are built once per campaign; an engine's layers and
their shapes never change."""


def _linear_tables(
    engine: InferenceEngine, layer_filter: LayerFilter | None
) -> _LinearTables:
    cached = _TABLES.get(engine)
    if cached is None or cached[0] is not layer_filter:
        cached = _TABLES[engine] = (
            layer_filter, _LinearTables.build(engine, layer_filter)
        )
    return cached[1]


def sample_site(
    engine: InferenceEngine,
    fault_model: FaultModel,
    rng: np.random.Generator,
    max_iterations: int = 1,
    layer_filter: LayerFilter | None = None,
) -> FaultSite:
    """Draw one uniform fault site for ``fault_model`` on ``engine``.

    Parameters
    ----------
    max_iterations:
        Upper bound (exclusive) for the token-generation iteration a
        transient fault strikes in; pass the task's
        ``max_new_tokens`` for generative tasks and 1 for
        multiple-choice (single forward pass).
    layer_filter:
        Optional predicate restricting target layers (e.g. only MoE
        ``router`` layers for the paper's Fig. 15 gate-layer study).
    """
    if fault_model.is_kv:
        return _sample_kv_site(
            engine, fault_model, rng, max_iterations, layer_filter
        )
    tables = _linear_tables(engine, layer_filter)
    # Uniform over blocks first, then layer types within the block,
    # following the paper's two-stage selection.
    in_block = tables.by_block[int(rng.integers(0, len(tables.by_block)))]
    layer_name = in_block[int(rng.integers(0, len(in_block)))]

    rows, cols, storage_bits = tables.geometry[layer_name]
    if fault_model.is_memory:
        return FaultSite(
            fault_model=fault_model,
            layer_name=layer_name,
            row=int(rng.integers(0, rows)),
            col=int(rng.integers(0, cols)),
            bits=_sample_bits(rng, fault_model.n_bits, storage_bits),
        )
    width = get_format(engine.activation_format).bits
    if fault_model.is_accumulator:
        # Accumulator fault: output column like a computational fault,
        # plus a uniform reduction split over the K products feeding it.
        return FaultSite(
            fault_model=fault_model,
            layer_name=layer_name,
            row=0,
            col=int(rng.integers(0, cols)),
            bits=_sample_bits(rng, fault_model.n_bits, width),
            iteration=int(rng.integers(0, max(1, max_iterations))),
            row_frac=float(rng.random()),
            acc_frac=float(rng.random()),
        )
    # Computational fault: neuron = output column; the activation is
    # corrupted in the engine's activation float format.
    return FaultSite(
        fault_model=fault_model,
        layer_name=layer_name,
        row=0,
        col=int(rng.integers(0, cols)),
        bits=_sample_bits(rng, fault_model.n_bits, width),
        iteration=int(rng.integers(0, max(1, max_iterations))),
        row_frac=float(rng.random()),
    )
