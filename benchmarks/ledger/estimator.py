"""Estimators the ledger reports: pure functions over recorded samples.

Every time-based number is in *host-normalised* units (see :mod:`hostcal`):
a timed interval counts for ``wall x speed`` seconds, where ``speed`` is the
host's mean calibration rate over that interval as a share of the reference
rate.  A rate is total work over total normalised seconds, pooled over the
rounds; a latency is the sample's milliseconds times the speed of its round.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

FINISH_OK = ("eos", "length")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's and
    ``compare.py``'s noise measure).  0 for fewer than two samples."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else math.inf


def normalised_rate(rounds: Iterable[tuple[float, float, float]]) -> float:
    """Work per host-normalised second, pooled over rounds given as
    ``(work, wall seconds, host speed)``: a round on a host at half the
    reference speed counts for half its wall time."""
    rounds = list(rounds)
    seconds = sum(wall * speed for _, wall, speed in rounds)
    if seconds <= 0:
        raise ValueError("no timed seconds")
    return sum(work for work, _, _ in rounds) / seconds


def pooled_cells(rounds: Iterable[tuple[Sequence[dict], float]]) -> dict[str, dict]:
    """Per chunk id, its work and normalised seconds summed over rounds given
    as ``(chunks, host speed)``; a chunk is ``{"id", "work", "time_s"}``."""
    out: dict[str, dict] = {}
    for chunks, speed in rounds:
        for chunk in chunks:
            entry = out.setdefault(chunk["id"], {"work": 0.0, "seconds": 0.0})
            entry["work"] += chunk["work"]
            entry["seconds"] += chunk["time_s"] * speed
    return out


def request_failed(sample: dict) -> bool:
    """Refused, ended for another reason than EOS/length, or a stream that
    differs from the serial ``greedy_decode`` reference."""
    return bool(
        sample.get("refused")
        or sample.get("finish") not in FINISH_OK
        or not sample.get("correct")
    )


def meets_slo(sample: dict, ttft_ms: float, tpot_ms: float, speed: float = 1.0) -> bool:
    """A request counts only if it was served correctly *and* on time, its
    latencies taken in host-normalised milliseconds; a one-token stream has
    no inter-token gap and is judged on TTFT alone."""
    if request_failed(sample):
        return False
    if sample.get("ttft_ms") is None or sample["ttft_ms"] * speed > ttft_ms:
        return False
    gap = sample.get("tpot_ms")
    return gap is None or gap * speed <= tpot_ms


def slo_share(samples: Sequence[dict], ttft_ms: float, tpot_ms: float, speed: float = 1.0) -> float:
    """Share of requests *sent* that met both limits."""
    if not samples:
        raise ValueError("no requests sent")
    return sum(meets_slo(s, ttft_ms, tpot_ms, speed) for s in samples) / len(samples)
