"""Chrome trace-event export: one stitched timeline per campaign run.

``python -m repro obs export-trace run.jsonl -o trace.json`` converts a
telemetry run's spans into the Chrome/Perfetto trace-event JSON format
(``chrome://tracing`` / https://ui.perfetto.dev), so a campaign's
execution — baseline sweep, checkpointing, every trial, worker
activity — is inspectable on a zoomable timeline.

Worker spans arrive already stitched: the campaign merge adopts them
in trial order with ``(campaign_hash, trial, worker_pid)`` attribution
and rebases their ``perf_counter`` starts into the parent's clock (see
:mod:`repro.fi.executor`), so here each span only needs
mapping onto a (pid, tid) lane — the campaign is the process, the
parent and each worker get one thread lane each.

Output is strict JSON (``allow_nan=False``); timestamps are
microseconds relative to the earliest span.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.obs.export import RunData, read_run

__all__ = ["chrome_trace", "export_trace", "main"]

_PID = 1
"""Single logical process: the stitched campaign timeline."""

_MAIN_TID = 0
"""Thread lane for spans recorded by the parent process."""


def _json_safe(value):
    """Trace args must survive strict JSON (no NaN/Inf, no objects)."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def chrome_trace(run: RunData) -> dict:
    """Build a Chrome trace-event document from a parsed run."""
    spans = sorted(run.spans, key=lambda s: (s.start, s.span_id))
    t0 = spans[0].start if spans else 0.0
    tids: dict[int, str] = {_MAIN_TID: "main"}
    events: list[dict] = []
    for span in spans:
        worker_pid = span.attrs.get("worker_pid")
        if worker_pid is None:
            tid = _MAIN_TID
        else:
            tid = int(worker_pid)
            tids.setdefault(tid, f"worker pid {tid}")
        args = {k: _json_safe(v) for k, v in span.attrs.items()}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": round((span.start - t0) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": _PID,
                "tid": tid,
                "args": args,
            }
        )
    manifest = run.manifest
    process_name = manifest.get("command") or "repro"
    campaign_hashes = sorted(
        {
            str(s.attrs["campaign_hash"])
            for s in spans
            if s.attrs.get("campaign_hash") is not None
        }
    )
    if campaign_hashes:
        process_name = f"{process_name} [{', '.join(campaign_hashes)}]"
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": _MAIN_TID,
            "args": {"name": process_name},
        }
    ]
    metadata += [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": tid,
            "args": {"name": label},
        }
        for tid, label in sorted(tids.items())
    ]
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "command": _json_safe(manifest.get("command")),
            "config_hash": _json_safe(manifest.get("config_hash")),
            "git_rev": _json_safe(manifest.get("git_rev")),
            "created_iso": _json_safe(manifest.get("created_iso")),
        },
    }


def export_trace(run_path: str | Path, out_path: str | Path) -> Path:
    """Read a run file and write its Chrome trace-event JSON."""
    document = chrome_trace(read_run(run_path))
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", encoding="utf-8") as fh:
        json.dump(document, fh, allow_nan=False, sort_keys=True)
        fh.write("\n")
    return out_path


def main(run: str, out: str | None) -> int:
    """Entry point for the ``obs export-trace`` subcommand."""
    import sys

    from repro.obs.manifest import SchemaMismatchError

    out = out or str(Path(run).with_suffix(".trace.json"))
    try:
        path = export_trace(run, out)
    except FileNotFoundError:
        print(f"error: no such run file: {run}", file=sys.stderr)
        return 1
    except (ValueError, SchemaMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"trace: {path} (open in chrome://tracing or ui.perfetto.dev)")
    return 0
