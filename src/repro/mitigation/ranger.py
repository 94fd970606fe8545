"""Ranger-style activation range restriction (Chen et al., DSN'21).

The paper's conclusions call on algorithm developers to "reduce fault
propagation (i.e., fault isolation)".  The classic low-cost realisation
is range restriction: profile each layer's fault-free output range on
calibration inputs, then clamp outputs into (a slightly widened
version of) that range at inference time.  A bit flip that blows an
activation up to 2^38 is squashed back to the profiled envelope before
it can poison downstream layers.

Implemented as engine forward hooks, so it composes transparently with
the fault injectors (mitigation hooks run for every forward, injector
hooks only at their target site).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.inference.engine import InferenceEngine
from repro.inference.hooks import HookContext
from repro.inference.recorder import Recorder

__all__ = ["LayerRange", "RangeRestrictor"]


@dataclass(frozen=True)
class LayerRange:
    """Calibrated output envelope of one linear layer."""

    low: float
    high: float

    def widen(self, margin: float) -> "LayerRange":
        span = self.high - self.low
        pad = margin * span
        return LayerRange(self.low - pad, self.high + pad)


@dataclass
class RangeRestrictor:
    """Profile-then-clamp activation guard over an engine's linear layers.

    Usage::

        guard = RangeRestrictor(margin=0.1)
        guard.calibrate(engine, calibration_prompts)
        guard.install(engine)
        ...   # run (possibly faulty) inference
        guard.uninstall()
    """

    margin: float = 0.1
    ranges: dict[str, LayerRange] = field(default_factory=dict)
    clip_events: int = 0
    _removers: list[Callable[[], None]] = field(default_factory=list)

    def calibrate(
        self, engine: InferenceEngine, prompts: list[list[int]]
    ) -> None:
        """Record per-layer min/max over fault-free runs of ``prompts``."""
        if not prompts:
            raise ValueError("calibration needs at least one prompt")
        lows: dict[str, float] = {}
        highs: dict[str, float] = {}
        for prompt in prompts:
            with Recorder(engine) as recorder:
                engine.forward_full(prompt)
            for name, output in recorder.layer_outputs.items():
                lo, hi = float(output.min()), float(output.max())
                lows[name] = min(lo, lows.get(name, lo))
                highs[name] = max(hi, highs.get(name, hi))
        self.ranges = {
            name: LayerRange(lows[name], highs[name]).widen(self.margin)
            for name in lows
        }

    def _hook(self, output: np.ndarray, ctx: HookContext) -> np.ndarray | None:
        bounds = self.ranges.get(ctx.full_name)
        if bounds is None:
            return None
        with np.errstate(invalid="ignore"):
            bad = ~((output >= bounds.low) & (output <= bounds.high))
        if bad.any():
            clipped = int(bad.sum())
            self.clip_events += clipped
            from repro.obs.flight import flight_recorder

            recorder = flight_recorder()
            if recorder.active:
                recorder.event(
                    "mitigation.clip",
                    layer=ctx.full_name,
                    iteration=int(ctx.iteration),
                    clipped=clipped,
                )
            # NaNs fail both comparisons; clamp them to the midpoint.
            np.clip(output, bounds.low, bounds.high, out=output)
            nans = np.isnan(output)
            if nans.any():
                output[nans] = 0.5 * (bounds.low + bounds.high)
        return output

    def install(self, engine: InferenceEngine) -> None:
        """Attach the clamp hook to every calibrated layer."""
        if not self.ranges:
            raise RuntimeError("calibrate() before install()")
        if self._removers:
            raise RuntimeError("already installed; uninstall() first")
        for name in self.ranges:
            self._removers.append(engine.hooks.register(name, self._hook))

    def uninstall(self) -> None:
        for remove in self._removers:
            remove()
        self._removers.clear()

    @property
    def installed(self) -> bool:
        return bool(self._removers)
