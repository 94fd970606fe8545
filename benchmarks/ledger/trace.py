"""In-memory spans around the calls into each layer, from outside ``src/``.

The benchmark may not edit the program, so a traced round wraps the public
callables named in :data:`TABLE` where they are looked up at call time, and
records one span per call: name, layer, thread, parent, start, end (plus the
request id where the call returns one).  Spans are kept in memory and written
out once, after the timed window.  A layer's *self time* is its spans'
duration minus the part their child spans cover.

A row whose callable no longer exists is reported in ``SpanLog.missing`` and
every metric derived from it reads ``null`` — a later change that removes a
forward path must not crash the benchmark it is judged by.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path

# (layer, span name, module, dotted attribute, attribute of the result that
# identifies the request).  Module-level functions are patched in the module
# whose globals the *caller* reads, which is why generate_ids and
# score_generative name ``repro.fi.campaign``.
TABLE = (
    ("inference", "engine.forward", "repro.inference.engine", "InferenceEngine.forward", None),
    ("inference", "engine.forward_step_batch", "repro.inference.engine", "InferenceEngine.forward_step_batch", None),
    ("inference", "engine.forward_chunk_batch", "repro.inference.engine", "InferenceEngine.forward_chunk_batch", None),
    ("generation", "generation.greedy_decode", "repro.generation.decode", "greedy_decode", None),
    ("generation", "generation.generate_ids", "repro.fi.campaign", "generate_ids", None),
    ("generation", "generation.score_options", "repro.generation.decode", "score_options", None),
    ("baseline", "fi.compute_baseline", "repro.fi.campaign", "FICampaign.compute_baseline", None),
    ("fi", "fi.run", "repro.fi.campaign", "FICampaign.run", None),
    ("metrics", "metrics.score_generative", "repro.fi.campaign", "score_generative", None),
    ("serve", "serve.submit", "repro.serve.server", "InferenceServer.submit", "request_id"),
)


class SpanLog:
    """Span store with one on/off switch and a per-thread parent stack."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self.missing: dict[str, str] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, request_attr: str | None = None):
        log = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not log.enabled:
                return fn(*args, **kwargs)
            stack = getattr(log._local, "stack", None)
            if stack is None:
                stack = log._local.stack = []
            span = {
                "id": next(log._ids),
                "name": name,
                "layer": layer,
                "thread": threading.get_ident(),
                "parent": stack[-1] if stack else None,
                "start": time.perf_counter(),
            }
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
                if request_attr is not None:
                    span["request"] = getattr(result, request_attr, None)
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                log.spans.append(span)

        return traced

    def install(self, table=TABLE) -> "SpanLog":
        """Patch every row of ``table``; rows that do not resolve are noted
        in :attr:`missing` with the reason."""
        for layer, name, module_name, dotted, request_attr in table:
            try:
                owner = importlib.import_module(module_name)
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing[name] = f"{type(exc).__name__}: {exc}"
                continue
            setattr(owner, attr, self.wrap(original, name, layer, request_attr))
            self._undo.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "header", "missing": self.missing, **header}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- span arithmetic (pure) -------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for span in spans:
        parent = span["parent"]
        if parent in out:
            out[parent] -= span["end"] - span["start"]
    return out


def self_by_layer(spans: list[dict]) -> dict[str, float]:
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + own[span["id"]]
    return totals


def total_by_name(spans: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + span["end"] - span["start"]
    return totals
