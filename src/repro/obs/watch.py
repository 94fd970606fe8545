"""Live campaign watch: tail a checkpoint journal, render progress.

``python -m repro obs watch checkpoint.jsonl`` observes a running (or
finished) campaign purely through its fsynced trial journal (see
:mod:`repro.fi.checkpoint`) — trials/sec, outcome mix, retry and
quarantine counts, and an ETA — without touching the campaign process.

The reader is incremental and torn-line tolerant by construction: each
poll reads only the bytes appended since the last one and buffers any
partial trailing line until the writer finishes it, so watching a
journal mid-``write()`` never misparses.  Unknown record kinds are
skipped, which keeps the watcher forward-compatible with journal
extensions.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

__all__ = ["WatchState", "watch"]

_RATE_WINDOW = 120
"""Progress samples kept for the sliding trials/sec estimate."""


class WatchState:
    """Incremental view over a campaign checkpoint journal."""

    def __init__(self, total: int | None = None) -> None:
        self.header: dict | None = None
        self.outcomes: dict[int, str] = {}
        self.attempts: dict[int, int] = {}
        self.errors: dict[int, str] = {}
        self.last: dict | None = None
        self.total = total
        self._buffer = ""
        self._samples: list[tuple[float, int]] = []

    # -- ingestion -------------------------------------------------------------

    def feed(self, chunk: str) -> None:
        """Consume appended journal text (possibly ending mid-record)."""
        self._buffer += chunk
        while "\n" in self._buffer:
            line, self._buffer = self._buffer.split("\n", 1)
            self._observe_line(line)

    def _observe_line(self, line: str) -> None:
        line = line.strip()
        if not line:
            return
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return  # best-effort observer: skip anything unparseable
        kind = record.get("kind")
        if kind == "campaign-checkpoint":
            self.header = record
            if self.total is None and record.get("n_trials") is not None:
                self.total = int(record["n_trials"])
        elif kind == "trial":
            trial = int(record["trial"])
            payload = record.get("record", {})
            self.outcomes[trial] = str(payload.get("outcome", "?"))
            self.attempts[trial] = int(record.get("attempts", 1))
            error = payload.get("error")
            if error:
                self.errors[trial] = str(error)
            self.last = record

    def sample(self, now: float) -> None:
        """Record a (time, trials done) progress point for rate/ETA."""
        self._samples.append((now, self.done))
        del self._samples[:-_RATE_WINDOW]

    # -- derived ---------------------------------------------------------------

    @property
    def done(self) -> int:
        return len(self.outcomes)

    @property
    def retries(self) -> int:
        return sum(max(0, n - 1) for n in self.attempts.values())

    @property
    def quarantined(self) -> int:
        return sum(1 for o in self.outcomes.values() if o == "failed")

    def outcome_mix(self) -> Counter:
        return Counter(self.outcomes.values())

    def rate(self) -> float | None:
        """Trials/sec over the sampled window (None until measurable)."""
        samples = self._samples
        if len(samples) < 2:
            return None
        (t0, d0), (t1, d1) = samples[0], samples[-1]
        if t1 <= t0 or d1 <= d0:
            return None
        return (d1 - d0) / (t1 - t0)

    def eta(self) -> float | None:
        """Seconds until the campaign finishes, when estimable."""
        rate = self.rate()
        if rate is None or self.total is None:
            return None
        remaining = max(0, self.total - self.done)
        return remaining / rate

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        lines = []
        if self.header is not None:
            fingerprint = self.header.get("campaign", {})
            lines.append(
                f"campaign {self.header.get('campaign_hash', '?')}"
                f" · task {fingerprint.get('task', '?')}"
                f" · fault {fingerprint.get('fault_model', '?')}"
            )
        else:
            lines.append("campaign (waiting for journal header)")
        progress = f"trials   {self.done}"
        if self.total:
            progress += f"/{self.total} ({100.0 * self.done / self.total:.0f}%)"
        rate = self.rate()
        if rate is not None:
            progress += f" · {rate:.2f} trials/s"
        eta = self.eta()
        if eta is not None:
            progress += f" · eta {eta:.0f}s"
        lines.append(progress)
        mix = self.outcome_mix()
        if mix:
            lines.append(
                "outcomes "
                + " · ".join(f"{name} {mix[name]}" for name in sorted(mix))
            )
        lines.append(
            f"retries  {self.retries} · quarantined {self.quarantined}"
        )
        if self.last is not None:
            payload = self.last.get("record", {})
            site = payload.get("site", {})
            lines.append(
                f"last     trial {self.last.get('trial')}"
                f" outcome {payload.get('outcome')}"
                f" site {site.get('layer_name')}"
            )
        return "\n".join(lines)


def watch(
    path: str | Path,
    *,
    interval: float = 1.0,
    total: int | None = None,
    once: bool = False,
    clear: bool | None = None,
    stream=None,
) -> int:
    """Tail ``path`` and render campaign progress until it completes.

    ``once`` renders a single snapshot and returns (tests/CI).  With a
    known ``total`` (flag or journal header) the watch exits when every
    trial is journalled; otherwise it runs until interrupted.
    """
    path = Path(path)
    stream = stream or sys.stdout
    if clear is None:
        clear = stream.isatty()
    state = WatchState(total=total)
    offset = 0
    try:
        while True:
            if path.exists():
                with path.open("rb") as fh:
                    fh.seek(offset)
                    chunk = fh.read()
                offset += len(chunk)
                state.feed(chunk.decode("utf-8", errors="replace"))
            state.sample(time.monotonic())
            text = state.render()
            if clear:
                stream.write("\x1b[2J\x1b[H" + text + "\n")
            else:
                stream.write(text + "\n")
            stream.flush()
            if once:
                return 0
            if state.total is not None and state.done >= state.total:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0

