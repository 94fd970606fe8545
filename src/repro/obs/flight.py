"""Per-trial flight recorder: the forensic timeline behind an outcome.

A campaign tells you *that* a trial produced an SDC; the flight
recorder tells you *why*.  When armed it collects, per trial, a
schema-versioned JSON record with the injection event (fault model,
site, bit positions, strike iteration, old/new values), a per-layer
corruption-front sample of the struck forward, any detector/clip
events, the first decode-divergence token against the cached baseline,
and the final outcome — the end-to-end propagation path the paper's
Figures 5/6 describe (injection site → layer front → decode divergence
→ Masked/SDC).

The recorder is a **pure observer** by construction:

* it is off by default and costs exactly one attribute check
  (``flight_recorder().active``) on every instrumented hot path;
* its corruption-front hooks register ``row_scoped=True,
  observer=True`` on the engine's :class:`HookManager`, so
  ``decode_plan`` picks the same path as in a recorder-off run —
  arming it must never change which execution strategy runs;
* the fault-free reference for the corruption front comes from a
  *replay* forward executed after the injector has restored the
  weights, never from perturbing the faulty run itself.

The differential suite holds the recorder to that: TrialRecords with
the recorder armed are bit-identical to a recorder-off campaign.

Records travel inside the telemetry run JSONL (``kind="flight"``, one
record per trial) and are rendered by ``python -m repro obs explain``.
Like :mod:`repro.obs.runtime`, the recorder is a per-process global:
campaign pool workers arm their own and ship drained records back in
the result payload; the parent adopts them in trial order.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = [
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder",
    "flight_recorder",
    "first_divergence",
    "flight_records",
    "explain_trial",
    "explain_run",
]

FLIGHT_SCHEMA_VERSION = 1

_FRONT_RTOL = 1e-4
"""Relative tolerance separating fault corruption from float noise —
the same threshold :mod:`repro.fi.propagation` uses for its
layer-by-layer corruption masks."""

_FRONT_ATOL = 1e-6


def first_divergence(prediction: str, baseline: str) -> dict | None:
    """First whitespace-token position where two outputs disagree.

    Returns ``None`` for identical outputs, else ``{"index", "baseline",
    "faulty"}`` where a missing side (one output being a prefix of the
    other) reads ``None``.
    """
    pred_tokens = prediction.split()
    base_tokens = baseline.split()
    for index, (faulty, base) in enumerate(zip(pred_tokens, base_tokens)):
        if faulty != base:
            return {"index": index, "baseline": base, "faulty": faulty}
    if len(pred_tokens) != len(base_tokens):
        index = min(len(pred_tokens), len(base_tokens))
        return {
            "index": index,
            "baseline": base_tokens[index] if index < len(base_tokens) else None,
            "faulty": pred_tokens[index] if index < len(pred_tokens) else None,
        }
    return None


def _front_entry(name: str, faulty: np.ndarray, reference: np.ndarray) -> dict:
    """Compact corruption summary of one layer's struck-forward output."""
    entry: dict = {"layer": name, "elements": int(faulty.size)}
    if faulty.shape != reference.shape:
        entry["note"] = (
            f"shape mismatch: faulty {faulty.shape}, replay {reference.shape}"
        )
        return entry
    mismatch = ~np.isclose(
        faulty, reference, rtol=_FRONT_RTOL, atol=_FRONT_ATOL, equal_nan=True
    )
    delta = np.abs(faulty - reference)
    finite = np.isfinite(delta)
    entry["corrupted"] = int(mismatch.sum())
    entry["corrupted_frac"] = float(mismatch.mean()) if mismatch.size else 0.0
    entry["max_abs_delta"] = (
        float(delta[finite].max()) if finite.any() else 0.0
    )
    entry["nonfinite"] = int((~np.isfinite(faulty)).sum())
    return entry


class FlightRecorder:
    """Collects one forensic record per campaign trial when armed."""

    def __init__(self) -> None:
        self.active = False
        self.completed: dict[int, dict] = {}
        """Finished flight records keyed by trial index."""
        self._current: dict | None = None
        self._front_faulty: dict[str, np.ndarray] = {}

    # -- lifecycle -------------------------------------------------------------

    def arm(self) -> "FlightRecorder":
        self.active = True
        return self

    def disarm(self) -> None:
        self.active = False

    def reset(self) -> None:
        self.completed.clear()
        self._current = None
        self._front_faulty = {}

    # -- per-trial recording ---------------------------------------------------

    def begin_trial(
        self, trial: int, key: tuple, site: dict, example_index: int
    ) -> None:
        """Open the record for one trial (drops any stale in-flight one)."""
        self._current = {
            "kind": "flight",
            "schema_version": FLIGHT_SCHEMA_VERSION,
            "trial": int(trial),
            "key": list(key),
            "example_index": int(example_index),
            "site": dict(site),
            "events": [],
        }
        self._front_faulty = {}

    def event(self, name: str, **fields) -> None:
        """Append a timeline event to the open trial (no-op outside one)."""
        if self._current is not None:
            self._current["events"].append({"event": name, **fields})

    def annotate(self, **fields) -> None:
        """Set top-level fields on the open trial (no-op outside one) —
        e.g. ``resumed_at``, the golden-run state the trial's decode
        started from (:mod:`repro.fi.golden`)."""
        if self._current is not None:
            self._current.update(fields)

    def attach_front(self, engine, iteration: int):
        """Register corruption-front probes on every faultable layer.

        Each probe copies the layer's output the *first* time that
        layer reaches the strike iteration — the same one-shot latch
        the computational injector uses, so under multi-forward
        evaluation (MC option scoring, where every forward runs at
        iteration 0) the probe samples exactly the forward the fault
        struck.  Probes are registered ``row_scoped=True,
        observer=True``: pure per-row reads that keep the batched and
        speculative decode gates engaged.

        Call *inside* the injection context, after the injector has
        registered its own hook, so the struck layer's probe observes
        the post-injection output.  Returns a detach handle.
        """
        target = int(iteration)
        captured = self._front_faulty

        def front_probe(output, ctx):
            if ctx.iteration == target and ctx.full_name not in captured:
                captured[ctx.full_name] = np.array(
                    output, dtype=np.float64, copy=True
                )
            return None

        handles = [
            engine.hooks.register(
                name, front_probe, row_scoped=True, observer=True
            )
            for name in engine.linear_layer_names()
        ]

        def detach() -> None:
            for handle in handles:
                handle()

        return detach

    @property
    def has_front(self) -> bool:
        """True when the open trial captured at least one layer output."""
        return bool(self._front_faulty)

    def end_trial(
        self,
        *,
        outcome: str,
        prediction: str,
        baseline: str,
        changed: bool,
        fired: bool = True,
        reference: dict[str, np.ndarray] | None = None,
    ) -> None:
        """Finalize the open trial: front summary, divergence, outcome.

        ``reference`` maps layer name → fault-free output of the struck
        forward (from a post-restore replay); when provided, the
        corruption front is summarized layer-by-layer against it.
        """
        record = self._current
        if record is None:
            return
        front = None
        if reference is not None and self._front_faulty:
            front = [
                _front_entry(
                    name,
                    self._front_faulty[name],
                    np.asarray(reference[name], dtype=np.float64),
                )
                for name in reference
                if name in self._front_faulty
            ]
        record["front"] = front
        record["fired"] = bool(fired)
        record["outcome"] = outcome
        record["prediction"] = prediction
        record["baseline"] = baseline
        record["changed"] = bool(changed)
        record["divergence"] = (
            first_divergence(prediction, baseline) if changed else None
        )
        self.completed[record["trial"]] = record
        self._current = None
        self._front_faulty = {}

    def abort_trial(self) -> None:
        """Drop the in-flight record (crashed or quarantined trial)."""
        self._current = None
        self._front_faulty = {}

    # -- cross-process merge / export ------------------------------------------

    def drain(self) -> list[dict]:
        """Remove and return finished records, sorted by trial index."""
        records = [self.completed[t] for t in sorted(self.completed)]
        self.completed.clear()
        return records

    def adopt(self, records: list[dict]) -> None:
        """Merge records drained from a worker process (trial-keyed)."""
        for record in records:
            self.completed[int(record["trial"])] = record


_FLIGHT = FlightRecorder()


def flight_recorder() -> FlightRecorder:
    """The process-wide flight recorder (off until armed)."""
    return _FLIGHT


# ----------------------------------------------------------------------------
# Reading + rendering: ``python -m repro obs explain``.
# ----------------------------------------------------------------------------


def flight_records(run) -> dict[int, dict]:
    """Flight records of a parsed :class:`~repro.obs.export.RunData`."""
    records = {}
    for record in run.of_kind("flight"):
        version = record.get("schema_version")
        if version != FLIGHT_SCHEMA_VERSION:
            raise ValueError(
                f"flight record schema mismatch: file has {version!r},"
                f" this build reads {FLIGHT_SCHEMA_VERSION}"
            )
        records[int(record["trial"])] = record
    return records


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _site_surface(site: dict) -> str:
    """Corrupted runtime surface implied by a site dict's fault model."""
    model = str(site.get("fault_model", ""))
    if model.endswith("-mem"):
        return "weights"
    if model.endswith("-kv"):
        return "kv-cache"
    if model.endswith("-acc"):
        return "accumulator"
    return "activations"


def _fmt_site(site: dict) -> str:
    model = str(site.get("fault_model", ""))
    parts = [model, f"layer {site.get('layer_name')}"]
    if model.endswith("-kv"):
        parts.append(
            f"plane {site.get('plane', 'k')}"
            f" head {site.get('row')} channel {site.get('col')}"
        )
    else:
        parts.append(f"row {site.get('row')} col {site.get('col')}")
    parts.append(f"bits {list(site.get('bits', []))}")
    if model.endswith("-acc"):
        parts.append(f"split {site.get('acc_frac', 0.0):.2f}")
    if not model.endswith("-mem") or site.get("iteration"):
        parts.append(f"iteration {site.get('iteration')}")
    if site.get("engine_side", "target") != "target":
        parts.append(f"engine {site.get('engine_side')}")
    return " · ".join(parts)


def _render_front(record: dict) -> list[str]:
    front = record.get("front")
    if not front:
        reason = "strike iteration never reached" if not record.get(
            "fired", True
        ) else "no replay reference (beam search or aborted trial)"
        return [f"corruption front   not sampled ({reason})"]
    site_layer = record.get("site", {}).get("layer_name")
    lines = ["corruption front (faulty strike forward vs fault-free replay)"]
    header = f"  {'layer':<34s} {'corrupted':>10s} {'max|delta|':>11s} {'nonfinite':>10s}"
    lines.append(header)
    for entry in front:
        name = entry["layer"]
        mark = " «site»" if name == site_layer else ""
        if "note" in entry:
            lines.append(f"  {name + mark:<34s} {entry['note']}")
            continue
        lines.append(
            f"  {name + mark:<34s} {entry['corrupted_frac']:>9.1%}"
            f" {entry['max_abs_delta']:>11.4g} {entry['nonfinite']:>10d}"
        )
    return lines


def _clip(text: str, limit: int = 160) -> str:
    return text if len(text) <= limit else text[: limit - 1] + "…"


def explain_trial(record: dict) -> str:
    """Render one flight record as a human-readable propagation story."""
    site = record.get("site", {})
    lines = [
        f"== trial {record['trial']} · outcome {record.get('outcome')} ==",
        f"fault      {_fmt_site(site)}",
        f"surface    {_site_surface(site)}"
        f" ({site.get('engine_side', 'target')} engine)",
        f"example    {record.get('example_index')}"
        f" (key {':'.join(str(k) for k in record.get('key', []))})",
    ]
    if record.get("resumed_at") is not None:
        lines.append(
            f"resumed    at golden-run iteration {record['resumed_at']}"
            " (the fault-free prefix was replayed, not re-decoded)"
        )
    events = record.get("events", [])
    if events:
        lines.append("timeline")
        for event in events:
            fields = " ".join(
                f"{k}={_fmt_value(v)}"
                for k, v in event.items()
                if k != "event"
            )
            lines.append(f"  {event['event']:<18s} {fields}".rstrip())
    lines += _render_front(record)
    divergence = record.get("divergence")
    if divergence is None:
        lines.append(
            "divergence output identical to baseline"
            if not record.get("changed")
            else "divergence output changed (no token-level divergence point)"
        )
    else:
        lines.append(
            f"divergence first divergent token at index {divergence['index']}:"
            f" baseline {divergence['baseline']!r} -> faulty"
            f" {divergence['faulty']!r}"
        )
    lines.append(f"prediction {_clip(record.get('prediction', ''))!r}")
    lines.append(f"baseline   {_clip(record.get('baseline', ''))!r}")
    return "\n".join(lines)


def _render_index(records: dict[int, dict]) -> str:
    lines = [f"{'trial':>5s}  {'outcome':<14s} {'diverges':>8s}  site"]
    for trial in sorted(records):
        record = records[trial]
        divergence = record.get("divergence")
        depth = str(divergence["index"]) if divergence else "-"
        site = record.get("site", {})
        lines.append(
            f"{trial:>5d}  {record.get('outcome', '?'):<14s} {depth:>8s}"
            f"  {site.get('layer_name')}"
        )
    lines.append("")
    lines.append(
        "pick a trial: python -m repro obs explain <run.jsonl> <trial>"
    )
    return "\n".join(lines)


def explain_run(path: str | Path, trial: int | None = None) -> str:
    """Explain one trial of a flight-recorded run (or index all trials)."""
    from repro.obs.export import read_run

    records = flight_records(read_run(path))
    if not records:
        raise ValueError(
            f"{path}: no flight records — re-run the campaign with --flight"
        )
    if trial is None:
        return _render_index(records)
    if trial not in records:
        raise ValueError(
            f"{path}: no flight record for trial {trial}"
            f" (recorded: {sorted(records)})"
        )
    return explain_trial(records[trial])


def main(argv: list[str]) -> int:
    """Entry point for the ``obs explain`` subcommand."""
    import sys

    from repro.obs.manifest import SchemaMismatchError

    if not argv or len(argv) > 2:
        print("usage: python -m repro obs explain <run.jsonl> [TRIAL]")
        return 2
    trial = int(argv[1]) if len(argv) == 2 else None
    try:
        print(explain_run(argv[0], trial))
    except FileNotFoundError:
        print(f"error: no such run file: {argv[0]}", file=sys.stderr)
        return 1
    except (ValueError, SchemaMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0  # output piped to head/less and closed early
    return 0
