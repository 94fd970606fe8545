"""Lightweight online SDC detectors.

The paper encourages "performance metrics that characterize the quality
degradation of generated outputs"; a prerequisite is knowing *when* to
suspect an output at all.  Two zero-reference detectors:

* :class:`LogitAnomalyDetector` — flags non-finite logits or a
  collapsed/saturated next-token distribution during generation (the
  signature of a distorted run);
* :func:`output_structure_flags` — post-hoc structural screen of the
  generated text (shares the heuristics of the SDC outcome taxonomy).

Both are detectors, not oracles: subtly-wrong outputs are exactly the
SDCs that evade them, which is the measurement the detection-coverage
bench quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.autograd.functional import log_softmax_np
from repro.fi.outcomes import is_distorted

__all__ = ["LogitAnomalyDetector", "output_structure_flags"]


@dataclass
class LogitAnomalyDetector:
    """Streaming screen over per-step logits.

    ``max_entropy_frac`` flags near-uniform distributions (entropy above
    the given fraction of ``log(vocab)``), which fault-corrupted hidden
    states commonly produce; non-finite logits are always flagged.
    """

    max_entropy_frac: float = 0.98
    flagged_steps: int = 0
    total_steps: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, logits: np.ndarray) -> bool:
        """Inspect one step's logits; returns True when anomalous."""
        self.total_steps += 1
        if not np.isfinite(logits).all():
            self._flag("non-finite")
            return True
        logp = log_softmax_np(logits)
        entropy = float(-(np.exp(logp) * logp).sum())
        if entropy > self.max_entropy_frac * np.log(logits.size):
            self._flag("entropy")
            return True
        return False

    def _flag(self, reason: str) -> None:
        self.flagged_steps += 1
        self.reasons.append(reason)
        from repro.obs.flight import flight_recorder

        recorder = flight_recorder()
        if recorder.active:
            recorder.event(
                "detector.flag", reason=reason, step=self.total_steps - 1
            )

    def reset(self) -> None:
        self.flagged_steps = 0
        self.total_steps = 0
        self.reasons.clear()


def output_structure_flags(text: str, reference_hint: str | None = None) -> bool:
    """Post-hoc structural screen: True when the text looks distorted."""
    return is_distorted(text, reference_hint)
