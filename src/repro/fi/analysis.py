"""Post-campaign vulnerability analysis.

The campaign runner records every trial's fault site and outcome; this
module aggregates them into the architecture-level vulnerability
profiles the paper reasons about: which *layer types* are most
sensitive (its propagation examples single out ``up_proj``/GEMM
inputs), how sensitivity varies with *block depth*, and which *bit
positions* matter (Figs 9/10).  The per-group SDC probability is the
classic Architectural Vulnerability Factor (AVF) estimate with a
Wilson interval.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.fi.campaign import CampaignResult, TrialRecord
from repro.fi.outcomes import Outcome
from repro.numerics.stats import wilson_interval

__all__ = [
    "GroupVulnerability",
    "by_layer_type",
    "by_block",
    "by_bit_role",
    "by_surface",
    "most_vulnerable",
]


@dataclass(frozen=True)
class GroupVulnerability:
    """SDC statistics of one site group (layer type / block / bit role)."""

    group: str
    trials: int
    sdcs: int

    @property
    def sdc_rate(self) -> float:
        return self.sdcs / self.trials if self.trials else 0.0

    @property
    def interval(self) -> tuple[float, float]:
        """Wilson 95% interval of the SDC rate."""
        if self.trials == 0:
            return (0.0, 1.0)
        return wilson_interval(self.sdcs, self.trials)


def _aggregate(
    trials: list[TrialRecord], key_fn
) -> list[GroupVulnerability]:
    counts: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for trial in trials:
        if trial.outcome is Outcome.FAILED:
            # Quarantined trials produced no model output — they carry
            # no masked-vs-SDC information, so AVF estimates skip them.
            continue
        bucket = counts[key_fn(trial)]
        bucket[0] += 1
        bucket[1] += int(trial.outcome.is_sdc)
    return sorted(
        (
            GroupVulnerability(group, total, sdcs)
            for group, (total, sdcs) in counts.items()
        ),
        key=lambda g: g.sdc_rate,
        reverse=True,
    )


def by_layer_type(result: CampaignResult) -> list[GroupVulnerability]:
    """SDC rate per linear-layer type (q/k/v/out/gate/up/down/router...)."""
    return _aggregate(result.trials, lambda t: t.site.layer_type)


def by_block(result: CampaignResult) -> list[GroupVulnerability]:
    """SDC rate per transformer-block depth."""
    return _aggregate(result.trials, lambda t: f"block{t.site.block}")


def by_bit_role(
    result: CampaignResult, n_storage_bits: int, man_bits: int
) -> list[GroupVulnerability]:
    """SDC rate by role of the highest flipped bit (mantissa/exp/sign).

    ``n_storage_bits``/``man_bits`` describe the storage format the
    campaign injected into (e.g. 16/7 for BF16).
    """

    def role(trial: TrialRecord) -> str:
        bit = trial.site.highest_bit
        if bit == n_storage_bits - 1:
            return "sign"
        if bit >= man_bits:
            return "exponent"
        return "mantissa"

    return _aggregate(result.trials, role)


def by_surface(result: CampaignResult) -> list[GroupVulnerability]:
    """SDC rate per corrupted runtime surface.

    Groups trials by which state the fault landed in — ``weights``,
    ``activations``, ``kv-cache`` or ``accumulator`` — the end-to-end
    axis the paper's deployment argument turns on: outcome severity
    depends on *where* in the serving stack the corruption lives, not
    just how many bits flipped.
    """
    return _aggregate(result.trials, lambda t: t.site.surface)


def most_vulnerable(
    groups: list[GroupVulnerability], min_trials: int = 5
) -> GroupVulnerability | None:
    """Highest-SDC-rate group with at least ``min_trials`` samples."""
    eligible = [g for g in groups if g.trials >= min_trials]
    return eligible[0] if eligible else None
