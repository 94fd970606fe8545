"""Metrics registry: counters, gauges, and quantile histograms.

Instruments are created lazily by name (``registry.counter("x")``) so
instrumentation sites need no setup.  Histograms keep raw observations
and compute quantiles over the *sorted* values, which makes merged
results independent of observation order — the property the campaign
runner relies on to merge worker telemetry deterministically.
"""

from __future__ import annotations

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count (trials run, tokens generated)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase (got {amount})")
        self.value += amount


class Gauge:
    """Last-written value (KV-cache occupancy, queue depth)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Raw-observation histogram with order-independent quantiles."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolation quantile over the sorted observations."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def summary(self) -> dict:
        """count/mean/min/p50/p95/p99/max — the reporter's row format."""
        if not self.values:
            return {"count": 0}
        ordered = sorted(self.values)
        return {
            "count": len(ordered),
            "mean": self.mean,
            "min": ordered[0],
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": ordered[-1],
        }


class MetricsRegistry:
    """Named instruments plus snapshot/merge for multiprocess runs."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- lazy instrument access ----------------------------------------------

    def counter(self, name: str) -> Counter:
        try:
            return self.counters[name]
        except KeyError:
            instrument = self.counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        try:
            return self.gauges[name]
        except KeyError:
            instrument = self.gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        try:
            return self.histograms[name]
        except KeyError:
            instrument = self.histograms[name] = Histogram()
            return instrument

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    # -- snapshot / merge -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able dump of every instrument's raw state."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "gauges": {k: g.value for k, g in sorted(self.gauges.items())},
            "histograms": {
                k: list(h.values) for k, h in sorted(self.histograms.items())
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot in: counters sum, gauges last-write-wins,
        histogram observations concatenate (quantiles sort internally,
        so the merged registry is invariant to merge order for
        counters/histograms; callers merge worker snapshots in chunk
        order so gauges are deterministic too)."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += value
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, values in snapshot.get("histograms", {}).items():
            self.histogram(name).values.extend(values)

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
