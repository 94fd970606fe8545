"""Host-speed calibration: a fixed NumPy loop sampled beside every segment.

The seed host is a small VM whose speed follows its neighbours: a fixed loop
ran at 140k-370k iterations/s within one minute, flipping every 20-60 ms
while a noisy spell lasts and staying near the top for minutes when it ends.
Served throughput follows the same curve (correlation 0.90 over 1 s windows,
0.98 over 10 s), so wall-clock rates of two runs differ by up to 1.6x for
reasons that have nothing to do with the program.

While a segment runs, the orchestrator (otherwise idle) runs :func:`burst`
for a millisecond every 25 ms on every CPU and keeps ``(time, iterations per
second, cpu)``.  A timed interval of the segment is then converted into
*host-normalised seconds*: its wall time multiplied by the mean calibration
rate inside the interval over :data:`REF_OPS_PER_S`, i.e. the time the same
work would have taken on a host that runs the loop at the reference rate
throughout.  The rate is per *wall* second on purpose: time the hypervisor
steals from the VM (bursts of ~50 % for a minute were seen) slows the
workload and must slow the loop too; a burst is short enough that the guest's
own scheduler rarely interrupts it.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

import common

REF_OPS_PER_S = 350_000.0
"""Reference rate of the loop: about what the seed host reaches when quiet."""
BURST_S = 0.001
PERIOD_S = 0.025

_A = np.ones((64, 64), dtype=np.float32)
_X = np.ones((8, 64), dtype=np.float32)


def burst(seconds: float = BURST_S) -> float:
    """Iterations of the fixed loop per wall second, over ``seconds``."""
    t0 = time.perf_counter()
    n = 0
    while time.perf_counter() - t0 < seconds:
        for _ in range(10):
            np.maximum(_X @ _A, 0.0)
        n += 10
    return n / (time.perf_counter() - t0)


class Sampler:
    """Background sampler, one thread pinned to each CPU this process may
    use: ``with Sampler() as s: ...; s.samples`` holds ``(time, rate, cpu)``.

    Per CPU because the host's speed is: a core that has been busy reads up
    to 1.5x faster than one that keeps going idle, so a single-threaded
    workload is pinned to one CPU and judged by that CPU's samples, while a
    workload that spreads over all CPUs is judged by all of them.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, int]] = []
        self._stop = threading.Event()
        cpus = sorted(os.sched_getaffinity(0))
        self._threads = [
            threading.Thread(
                target=self._loop, args=(cpu, slot * PERIOD_S / len(cpus)),
                name=f"ledger-hostcal-{cpu}", daemon=True,
            )
            for slot, cpu in enumerate(cpus)
        ]

    def _loop(self, cpu: int, phase_s: float) -> None:
        """Burst at ``phase_s`` past every multiple of the period: the
        threads share one interpreter lock, so their bursts must not overlap
        or one would time its wait for the other."""
        os.sched_setaffinity(0, {cpu})  # pid 0: the calling thread only
        while not self._stop.wait((phase_s - common.now()) % PERIOD_S):
            self.samples.append((common.now(), burst(), cpu))

    def __enter__(self) -> "Sampler":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()


def speed(samples: list, t0: float, t1: float, cpus: list[int] | None = None) -> float:
    """Mean host speed over ``[t0, t1]`` on ``cpus`` (default: all sampled)
    as a share of the reference (1.0 = the reference host).  Falls back to
    the nearest samples for an interval shorter than the sampling period."""
    if cpus is not None:
        samples = [s for s in samples if s[2] in cpus]
    if not samples:
        raise ValueError("no calibration samples")
    inside = [s[1] for s in samples if t0 <= s[0] <= t1]
    if not inside:
        middle = (t0 + t1) / 2
        inside = [s[1] for s in sorted(samples, key=lambda s: abs(s[0] - middle))[:2]]
    return sum(inside) / len(inside) / REF_OPS_PER_S
