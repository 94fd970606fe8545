"""Trial-granular campaign checkpoint journal (crash-durable JSONL).

A campaign journal makes :class:`repro.fi.campaign.FICampaign` runs
restartable at trial granularity: every completed (or quarantined)
trial is appended — and flushed — as one self-contained JSONL record,
so a killed run loses at most the batch that was in flight.  Resuming
replays the journal, skips every already-recorded ``(example, trial,
fault)`` key and re-runs only the missing trials; because each trial's
RNG derives from that same stable key (never from enumeration order),
the stitched-together campaign is bit-identical to an uninterrupted
one.

The file layout mirrors the observability run export: a
schema-versioned header record first (``kind="campaign-checkpoint"``),
then one ``kind="trial"`` record per completed trial::

    {"kind": "campaign-checkpoint", "schema_version": 1,
     "campaign_hash": "…", "campaign": {…fingerprint…}, …}
    {"kind": "trial", "trial": 0, "key": ["1f3a…", 0, "2bits-mem"],
     "attempts": 1, "record": {…TrialRecord…}}

The header's ``campaign_hash`` covers only result-determining
configuration (task, fault model, seed, example identities, generation
settings) — the one perf switch, ``decode_strategy``, is deliberately
excluded, so a checkpoint written by a reference (``serial``) run can
be resumed by an ``auto`` one and vice versa.  Loaders assert both the
schema version
and the hash: resuming a journal from a different campaign fails
loudly instead of silently mixing trials.  A torn final line (the
record being written when the process died) is tolerated and dropped.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from repro.fi.fault_models import FaultModel
from repro.fi.outcomes import Outcome
from repro.fi.sites import FaultSite
from repro.obs.export import read_jsonl
from repro.obs.manifest import config_hash, git_revision

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (campaign imports us)
    from repro.fi.campaign import TrialRecord

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "CampaignCheckpoint",
    "load_checkpoint",
    "site_to_dict",
    "site_from_dict",
    "trial_record_to_dict",
    "trial_record_from_dict",
]

CHECKPOINT_SCHEMA_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint journal cannot be written or resumed safely."""


# ----------------------------------------------------------------------------
# TrialRecord <-> JSON. Floats survive exactly (json round-trips IEEE
# doubles via shortest-repr), so a resumed campaign's records compare
# bit-identical to freshly computed ones.
# ----------------------------------------------------------------------------


def site_to_dict(site: FaultSite) -> dict:
    """JSON-able form of a :class:`FaultSite`."""
    payload = asdict(site)
    payload["fault_model"] = site.fault_model.value
    payload["bits"] = list(site.bits)
    return payload


def site_from_dict(payload: dict) -> FaultSite:
    """Inverse of :func:`site_to_dict`."""
    return FaultSite(
        fault_model=FaultModel(payload["fault_model"]),
        layer_name=payload["layer_name"],
        row=int(payload["row"]),
        col=int(payload["col"]),
        bits=tuple(int(b) for b in payload["bits"]),
        iteration=int(payload["iteration"]),
        row_frac=float(payload["row_frac"]),
        # Runtime-surface fields appeared with the KV and accumulator
        # fault models; journals written before them load with the
        # dataclass defaults.  A journal's ``engine_side`` is ignored:
        # every site strikes the campaign's one engine.
        plane=str(payload.get("plane", "k")),
        acc_frac=float(payload.get("acc_frac", 0.0)),
    )


def trial_record_to_dict(record: "TrialRecord") -> dict:
    """JSON-able form of a :class:`TrialRecord`."""
    return {
        "site": site_to_dict(record.site),
        "example_index": record.example_index,
        "prediction": record.prediction,
        "outcome": record.outcome.value,
        "metrics": dict(record.metrics),
        "changed": record.changed,
        "selection_changed": record.selection_changed,
        "fired": record.fired,
        "error": record.error,
    }


def trial_record_from_dict(payload: dict) -> "TrialRecord":
    """Inverse of :func:`trial_record_to_dict`."""
    from repro.fi.campaign import TrialRecord

    return TrialRecord(
        site=site_from_dict(payload["site"]),
        example_index=int(payload["example_index"]),
        prediction=payload["prediction"],
        outcome=Outcome(payload["outcome"]),
        metrics=dict(payload["metrics"]),
        changed=bool(payload["changed"]),
        selection_changed=payload["selection_changed"],
        fired=bool(payload.get("fired", True)),
        error=payload.get("error"),
    )


# ----------------------------------------------------------------------------
# Journal I/O.
# ----------------------------------------------------------------------------


def load_checkpoint(
    path: str | Path, fingerprint: dict | None = None
) -> tuple[dict, dict[int, "TrialRecord"], dict[int, int]]:
    """Read a journal: ``(header, records by trial, attempts by trial)``.

    When ``fingerprint`` is given, the header's ``campaign_hash`` must
    match ``config_hash(fingerprint)`` — a checkpoint can only resume
    the campaign that wrote it.  Duplicate trial records (a crash
    between journal write and driver bookkeeping, then a re-run) are
    harmless: trials are deterministic, so last-write wins.
    """
    path = Path(path)
    try:
        # A torn final line — the trial in flight at the kill — is dropped.
        records = read_jsonl(path)
    except ValueError as exc:  # corruption before the last line
        raise CheckpointError(str(exc)) from exc
    if not records or records[0].get("kind") != "campaign-checkpoint":
        raise CheckpointError(
            f"{path}: not a campaign checkpoint (missing header record)"
        )
    header = records[0]
    version = header.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint schema mismatch in {path}: file has {version!r},"
            f" this build reads {CHECKPOINT_SCHEMA_VERSION} — restart the"
            " campaign or use a matching repro version"
        )
    if fingerprint is not None:
        expected = config_hash(fingerprint)
        found = header.get("campaign_hash")
        if found != expected:
            raise CheckpointError(
                f"{path} was written by a different campaign"
                f" (checkpoint hash {found}, this campaign {expected});"
                " refusing to mix trials"
            )
    completed: dict[int, TrialRecord] = {}
    attempts: dict[int, int] = {}
    for record in records[1:]:
        if record.get("kind") != "trial":
            continue
        trial = int(record["trial"])
        completed[trial] = trial_record_from_dict(record["record"])
        attempts[trial] = int(record.get("attempts", 1))
    return header, completed, attempts


class CampaignCheckpoint:
    """Append-only trial journal bound to one campaign fingerprint.

    Opening with ``resume=False`` on an existing non-empty journal
    raises — an interrupted run must be *resumed*, never silently
    overwritten.  With ``resume=True`` the journal is validated and its
    completed trials exposed via :attr:`completed`; subsequent writes
    append.  Every :meth:`write` flushes and fsyncs so a kill -9 loses
    at most what was in flight.
    """

    def __init__(
        self,
        path: str | Path,
        fingerprint: dict,
        resume: bool = False,
        n_trials: int | None = None,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.completed: dict[int, TrialRecord] = {}
        self.attempts: dict[int, int] = {}
        exists = self.path.exists() and self.path.stat().st_size > 0
        if exists:
            if not resume:
                raise CheckpointError(
                    f"checkpoint {self.path} already exists; resume it"
                    " (FICampaign.resume / --resume) or pick a fresh path"
                )
            _, self.completed, self.attempts = load_checkpoint(
                self.path, fingerprint
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")
        if not exists:
            header = {
                "kind": "campaign-checkpoint",
                "schema_version": CHECKPOINT_SCHEMA_VERSION,
                "campaign": fingerprint,
                "campaign_hash": config_hash(fingerprint),
                "git_rev": git_revision(Path(__file__).resolve().parents[3]),
            }
            if n_trials is not None:
                # Advisory planned-trial count: live observers
                # (``repro obs watch``) use it for progress/ETA.  It is
                # not covered by the campaign hash — a resume may
                # legitimately target a different total.
                header["n_trials"] = int(n_trials)
            self._append(header)

    def _append(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def write(
        self,
        trial: int,
        key: tuple,
        record: "TrialRecord",
        attempts: int = 1,
        worker_pid: int | None = None,
    ) -> None:
        """Journal one completed (or quarantined) trial.

        ``worker_pid`` records which persistent-pool worker served the
        trial (``None`` for serial execution).  It is advisory
        post-mortem metadata like ``attempts`` — not covered by the
        campaign hash, and ignored on resume.
        """
        line = {
            "kind": "trial",
            "trial": trial,
            "key": list(key),
            "attempts": attempts,
            "record": trial_record_to_dict(record),
        }
        if worker_pid is not None:
            line["worker"] = int(worker_pid)
        self._append(line)
        self.completed[trial] = record
        self.attempts[trial] = attempts

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "CampaignCheckpoint":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
