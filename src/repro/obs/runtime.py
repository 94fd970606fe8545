"""Process-global telemetry: the object instrumented code talks to.

Hot paths call ``telemetry()`` and bail on ``.active`` — one dict-free
attribute check — so a disabled build stays within the overhead budget.
Enabling wires the tracer and registry together and (optionally)
remembers where the run should be exported.

The global is per-process by design: campaign workers enable their own
telemetry in the pool initializer and ship a snapshot back to the
parent, which merges chunks in deterministic order.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.obs.export import write_run
from repro.obs.manifest import build_manifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["Telemetry", "telemetry", "enable", "disable", "log_line"]


class Telemetry:
    """A tracer + metrics registry with one on/off switch."""

    def __init__(self) -> None:
        self.active = False
        self.tracer = Tracer(enabled=False)
        self.metrics = MetricsRegistry()
        self.marks: dict[str, float] = {}
        """Named ``perf_counter`` timestamps (e.g. ``forward_start``)
        shared between instrumented code and timing hooks."""
        self.extra_records: list[dict] = []
        """Result records (campaign rows, experiment tables) appended
        to the exported run so provenance and results travel together."""
        self.manifest_extra: dict = {}
        """Run-level fields merged into the exported manifest (e.g.
        the campaign pool's ``scaleout`` worker-count block), so
        ``repro obs report`` shows execution health."""
        self.out_path: Path | None = None

    # -- lifecycle -------------------------------------------------------------

    def enable(self, out_path: str | Path | None = None) -> "Telemetry":
        self.active = True
        self.tracer.enabled = True
        if out_path is not None:
            self.out_path = Path(out_path)
        return self

    def disable(self) -> None:
        self.active = False
        self.tracer.enabled = False

    def reset(self) -> None:
        self.tracer.reset()
        self.metrics.reset()
        self.marks.clear()
        self.extra_records.clear()
        self.manifest_extra.clear()
        self.out_path = None

    def record(self, kind: str, **fields) -> None:
        """Queue a result record for export alongside the telemetry."""
        if self.active:
            self.extra_records.append({"kind": kind, **fields})

    # -- convenience shims used by instrumented code ---------------------------

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs) -> None:
        self.tracer.event(name, **attrs)

    def log(self, message: str, *, echo: bool = True, **attrs) -> None:
        """Structured log line: an event in the stream + stderr echo."""
        if self.active:
            self.tracer.event("log", message=message, **attrs)
        if echo:
            print(message, file=sys.stderr, flush=True)

    # -- export ----------------------------------------------------------------

    def flush(
        self,
        path: str | Path | None = None,
        seed: int | None = None,
        config: dict | None = None,
        command: str | None = None,
        extra_records: list[dict] = (),
    ) -> Path | None:
        """Write the collected run (manifest + spans + metrics) as JSONL."""
        path = path or self.out_path
        if path is None:
            return None
        manifest = build_manifest(
            seed=seed,
            config=config,
            command=command,
            extra=self.manifest_extra or None,
        )
        return write_run(
            path,
            manifest,
            spans=self.tracer.records,
            metrics=self.metrics,
            extra_records=[*self.extra_records, *extra_records],
        )


_TELEMETRY = Telemetry()


def telemetry() -> Telemetry:
    """The process-wide telemetry instance."""
    return _TELEMETRY


def enable(out_path: str | Path | None = None) -> Telemetry:
    """Switch the global telemetry on (idempotent)."""
    return _TELEMETRY.enable(out_path)


def disable() -> None:
    _TELEMETRY.disable()


def log_line(message: str, *, echo: bool = True, **attrs) -> None:
    """Module-level shortcut for :meth:`Telemetry.log`."""
    _TELEMETRY.log(message, echo=echo, **attrs)
