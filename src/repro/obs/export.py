"""JSONL export/import for telemetry runs.

A run file is newline-delimited JSON whose first record is the run
manifest (``kind="manifest"``), followed by ``kind="span"``,
``kind="metrics"`` (one registry snapshot), ``kind="log"`` and
arbitrary result records.  Everything round-trips through
:func:`write_run` / :func:`read_run`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.manifest import check_schema
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanRecord

__all__ = ["JsonlWriter", "write_run", "read_jsonl", "read_run", "RunData"]


class JsonlWriter:
    """Append-per-record JSONL writer (one flush per record).

    ``append=True`` opens an existing file for appending instead of
    truncating — the mode durable journals (campaign checkpoints)
    reopen their files with across restarts.
    """

    def __init__(self, path: str | Path, append: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a" if append else "w", encoding="utf-8")

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_run(
    path: str | Path,
    manifest: dict,
    spans: list[SpanRecord] = (),
    metrics: MetricsRegistry | None = None,
    extra_records: list[dict] = (),
) -> Path:
    """Serialize one run: manifest first, then spans/metrics/extras."""
    path = Path(path)
    with JsonlWriter(path) as writer:
        writer.write(manifest)
        for span in spans:
            writer.write(span.to_dict())
        if metrics is not None and len(metrics):
            writer.write({"kind": "metrics", **metrics.snapshot()})
        for record in extra_records:
            writer.write(record)
    return path


def read_jsonl(path: str | Path) -> list[dict]:
    """Parse every non-empty line of a JSONL file.

    A torn *final* line — the record in flight when the writing
    process died — is tolerated and dropped (campaign checkpoint
    journals are read through here too); corruption anywhere earlier
    raises ``ValueError`` with the offending line number.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    records = []
    for lineno, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if lineno == len(lines) - 1:
                break  # torn final record: mid-write at the kill
            raise ValueError(
                f"{path}: corrupt JSONL record at line {lineno + 1}"
            ) from exc
    return records


class RunData:
    """A parsed run: manifest + spans + merged metrics + other records."""

    def __init__(self, manifest: dict, records: list[dict]) -> None:
        self.manifest = manifest
        self.records = records
        self.spans = [
            SpanRecord.from_dict(r) for r in records if r.get("kind") == "span"
        ]
        self.metrics = MetricsRegistry()
        for record in records:
            if record.get("kind") == "metrics":
                self.metrics.merge(record)

    def of_kind(self, kind: str) -> list[dict]:
        return [r for r in self.records if r.get("kind") == kind]


def read_run(path: str | Path) -> RunData:
    """Load + schema-check a run file written by :func:`write_run`."""
    records = read_jsonl(path)
    if not records or records[0].get("kind") != "manifest":
        raise ValueError(
            f"{path}: not a telemetry run (first record must be a manifest)"
        )
    manifest = check_schema(records[0], path)
    return RunData(manifest, records[1:])
