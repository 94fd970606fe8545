"""Error-propagation tracing (paper Figs 5 and 6).

These helpers run a fault-free and a faulty forward pass, each under a
:class:`~repro.inference.recorder.Recorder`, and compare per-layer
outputs.  They demonstrate the paper's two propagation geometries:

* a **memory** fault in ``W[r, c]`` of a linear layer corrupts the
  entire **column** ``c`` of that layer's output (every token row uses
  the corrupted weight), and the corruption then spreads across the
  whole output tensor of the next layer;
* a **computational** fault corrupts one element, which spreads along
  the **row** (one token) of the next layer's output and is then
  largely contained by the normalization layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fi.injector import inject
from repro.fi.sites import FaultSite
from repro.inference.engine import InferenceEngine
from repro.inference.recorder import Recorder

__all__ = ["PropagationTrace", "trace_fault"]


@dataclass
class PropagationTrace:
    """Baseline vs faulty layer outputs for one forward pass."""

    site: FaultSite
    baseline: dict[str, np.ndarray]
    faulty: dict[str, np.ndarray]

    def corruption_mask(self, layer_name: str, rtol: float = 1e-4) -> np.ndarray:
        """Boolean mask of elements that differ beyond tolerance."""
        base = self.baseline[layer_name]
        fault = self.faulty[layer_name]
        with np.errstate(invalid="ignore"):
            diff = ~np.isclose(fault, base, rtol=rtol, atol=1e-6)
        # NaN/inf disagreements count as corrupted.
        diff |= np.isnan(fault) != np.isnan(base)
        return diff

    def corrupted_fraction(self, layer_name: str) -> float:
        mask = self.corruption_mask(layer_name)
        return float(mask.mean())

    def column_profile(self, layer_name: str) -> np.ndarray:
        """Fraction of corrupted elements per output column."""
        return self.corruption_mask(layer_name).mean(axis=0)

    def row_profile(self, layer_name: str) -> np.ndarray:
        """Fraction of corrupted elements per token row."""
        return self.corruption_mask(layer_name).mean(axis=1)

    def layers(self) -> list[str]:
        return list(self.baseline)


def trace_fault(
    engine: InferenceEngine, site: FaultSite, prompt_ids: list[int]
) -> PropagationTrace:
    """Record baseline and faulty activations for one prefill forward;
    the faulty recorder registers after the injector's hook, so the
    struck layer's output is the injected one."""
    with Recorder(engine) as baseline:
        engine.forward_full(prompt_ids)
    with inject(engine, site), Recorder(engine) as faulty:
        engine.forward_full(prompt_ids)
    return PropagationTrace(
        site=site, baseline=baseline.layer_outputs, faulty=faulty.layer_outputs
    )
