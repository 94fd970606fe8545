"""One ledger segment: a fresh process that sets up the reference inputs,
runs one workload once and prints one JSON object on its last line.

``run.py`` spawns segments (``python segment.py '<json spec>'``) so that every
round pays import, model load and server start again and no state leaks from
one workload into the next.  Every layer is reached through its public
functions; nothing under ``src/`` is edited, and only a traced round wraps
callables (:mod:`trace`).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

import common
import loadgen
from estimator import request_failed
from inputs import Inputs, build_pair, peak_rss_mb, serial_references

from repro.fi import FaultModel, FICampaign, result_signatures
from repro.obs import telemetry
from repro.serve import InferenceServer, ServeRejected
from repro.serve.loadgen import mixed_task_prompts
from repro.tasks import all_tasks, standardized_subset

ledger_trace = common.load_trace_module()

LEAD_IN = 32
"""Closed-loop completions before the timed span (batch ramp-up)."""
CALLERS = 2 * common.MAX_BATCH
FULL_REQUESTS = {"serve_closed": 1536, "serve_spec_closed": 960}
FULL_TRIALS = {"campaign_gen_comp": 120, "campaign_pool": 120, "campaign_mc_mem": 300}
FULL_OPEN_WINDOW_S = 5.0
POOL_WORKERS = 2
KEPT_HISTOGRAMS = ("serve.batch_occupancy", "serve.queue_depth", "decode.spec_accept_len")
CLOCK_OFFSET = common.now() - time.perf_counter()
"""``perf_counter`` to the system-wide monotonic clock the orchestrator's
calibration samples are stamped with (0 on Linux; computed, not assumed)."""


# -- tracing -------------------------------------------------------------------------


class Tracing:
    """``off``: nothing.  ``telemetry``: the repo's own counters on, no
    wrappers.  ``spans``: counters on and the span wrappers installed."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.log = ledger_trace.SpanLog()
        self.tel = telemetry()
        if mode == "spans":
            self.log.install()

    def start(self) -> None:
        if self.mode != "off":
            self.tel.reset()
            self.tel.enable()
        self.log.enabled = self.mode == "spans"
        self._t_start = time.perf_counter()

    def stop(self) -> None:
        self.enabled_s = time.perf_counter() - self._t_start
        self.log.enabled = False
        if self.mode != "off":
            self.tel.disable()

    def report(self, wall_s: float, spans_out: str | None, **header) -> dict | None:
        if self.mode == "off":
            return None
        snap = self.tel.metrics.snapshot()
        out = {
            "mode": self.mode,
            "wall_s": wall_s,
            "missing": self.log.missing,
            "counters": snap["counters"],
            "gauges": snap["gauges"],
            "histograms": {k: snap["histograms"].get(k, []) for k in KEPT_HISTOGRAMS},
            "pool_spinup_s": [
                record.duration
                for record in self.tel.tracer.records
                if record.name == "campaign.pool_spinup"
            ],
        }
        if self.mode == "spans":
            spans = self.log.spans
            out["n_spans"] = len(spans)
            out["layer_self_s"] = ledger_trace.self_by_layer(spans)
            out["name_total_s"] = ledger_trace.total_by_name(spans)
            if spans_out:
                self.log.dump(Path(spans_out), wall_s=wall_s, **header)
                out["spans_file"] = spans_out
        self.log.uninstall()
        return out


# -- serve workloads -----------------------------------------------------------------


def run_serve(spec: dict) -> dict:
    workload = spec["workload"]
    scale = spec["scale"]
    tracing = Tracing(spec["trace"])
    inputs = Inputs("fp32", with_draft=workload == "serve_spec_closed")
    prompts = mixed_task_prompts(inputs.world, inputs.tokenizer, per_task=8)
    server = InferenceServer(
        inputs.engine,
        inputs.generation(),
        max_batch=common.MAX_BATCH,
        draft=inputs.draft,
        speculation_depth=common.SPEC_DEPTH,
    ).start()

    def submit(pick: int):
        shape = prompts[pick]
        return server.submit(list(shape.ids), max_new_tokens=shape.max_new)

    n_timed = 0
    try:
        # One warm-up pass over the 32 shapes: pool pages touched, BLAS and
        # the pump thread warm, before the first timed request.
        for handle in [submit(i) for i in range(len(prompts))]:
            handle.result(timeout=60.0)
        t_ready = common.now()

        tracing.start()
        if workload == "serve_open":
            due, picks = loadgen.open_schedule(
                spec["seed"],
                spec.get("rate_rps", common.OPEN_RATE_RPS),
                FULL_OPEN_WINDOW_S * scale,
                len(prompts),
            )
            t0 = time.perf_counter()
            run = loadgen.run_open(submit, due, picks, (ServeRejected,), CALLERS)
            t1 = t0 + run["window_s"]
        else:
            n_timed = max(len(prompts), round(FULL_REQUESTS[workload] * scale))
            rng = np.random.default_rng([spec["seed"], 0xC105ED])
            picks = loadgen.prompt_order(rng, LEAD_IN + n_timed + CALLERS, len(prompts))
            run = loadgen.run_closed(submit, picks, CALLERS, (ServeRejected,))
        tracing.stop()
    finally:
        server.stop(drain=False, timeout=30.0)

    # Judged after the window so the references cost neither set-up nor
    # timed seconds: every served stream against serial greedy_decode.
    samples = run["samples"]
    loadgen.judge(samples, serial_references(inputs, prompts))
    if workload == "serve_open":
        timed = samples
        work = float(len(samples))
        extra = {"backlog_end": run["backlog_end"], "backlog_growing": run["backlog_growing"]}
    else:
        timed, t0, t1 = loadgen.timed_span(samples, LEAD_IN, n_timed)
        work = float(sum(s["tokens"] for s in timed))
        extra = {}
    keep = ("refused", "finish", "correct", "ttft_ms", "tpot_ms", "late_ms", "submit_us")
    return {
        "workload": workload,
        "setup": [spec["t_spawn"], t_ready],
        "timed": [t0 + CLOCK_OFFSET, t1 + CLOCK_OFFSET],
        "work": work,
        "fingerprints": inputs.fingerprints,
        "peak_rss_mb": peak_rss_mb(),
        "digest": None,
        "sent": len(samples),
        "refused": sum(1 for s in samples if s["refused"]),
        "failed": sum(request_failed(s) for s in samples),
        "requests": [{k: s[k] for k in keep} for s in timed],
        # Spans are recorded from the first request to the end of the
        # drain, so that whole span is the wall their shares refer to.
        "trace": tracing.report(
            tracing.enabled_s, spec.get("spans_out"), workload=workload, seed=spec["seed"]
        ),
        **extra,
    }


# -- campaign workloads --------------------------------------------------------------


def cell_digest(result) -> str:
    """sha256 over everything the cell's trials computed."""
    return hashlib.sha256(repr(result_signatures(result)).encode()).hexdigest()


def run_campaign(spec: dict) -> dict:
    workload = spec["workload"]
    tracing = Tracing(spec["trace"])
    inputs = Inputs("bf16", with_draft=False)
    tasks = {task.name: task for task in all_tasks(inputs.world)}
    cells = common.MC_CELLS if workload == "campaign_mc_mem" else common.GEN_CELLS
    n_trials = max(8, round(FULL_TRIALS[workload] * spec["scale"]))
    workers = POOL_WORKERS if workload == "campaign_pool" else 0
    examples = {name: standardized_subset(tasks[name], 8) for name, _ in cells}
    t_ready = common.now()

    def run_cell(index: int, n_workers: int):
        """A fresh campaign, as a study driver builds one per cell: its
        fault-free baseline and (pooled) its worker spin-up are what users
        pay per campaign, so both are inside the cell's time."""
        name, fault = cells[index]
        task = tasks[name]
        t0 = time.perf_counter()
        campaign = FICampaign(
            engine=inputs.engine,
            tokenizer=inputs.tokenizer,
            task_name=name,
            metrics=task.metrics,
            examples=examples[name],
            fault_model=FaultModel(fault),
            seed=spec["seed"] * 1000 + index,
            generation=inputs.generation(task.max_new_tokens),
        )
        campaign.compute_baseline()
        t1 = time.perf_counter()
        try:
            result = campaign.run(n_trials, n_workers=n_workers)
        finally:
            campaign.close_pool()
        return result, t1 - t0, time.perf_counter() - t0

    cell_ids = [f"{name}.{fault}" for name, fault in cells]
    chunks: list[dict] = []
    results = []
    tracing.start()
    t0 = time.perf_counter()
    for index, cid in enumerate(cell_ids):
        result, baseline_s, cell_s = run_cell(index, workers)
        chunks.append({"id": cid, "work": float(n_trials), "time_s": cell_s, "baseline_s": baseline_s})
        results.append(result)
    t1 = time.perf_counter()
    tracing.stop()

    digests = {cid: cell_digest(result) for cid, result in zip(cell_ids, results)}
    failed = sum(result.quarantined for result in results)
    out = {
        "workload": workload,
        "setup": [spec["t_spawn"], t_ready],
        "timed": [t0 + CLOCK_OFFSET, t1 + CLOCK_OFFSET],
        "work": float(n_trials * len(cells)),
        "fingerprints": inputs.fingerprints,
        "chunks": chunks,
        "sent": n_trials * len(cells),
        "n_trials": n_trials,
        "cell_digests": digests,
        "digest": hashlib.sha256("".join(digests[c] for c in cell_ids).encode()).hexdigest(),
    }
    if workers:
        # The pool bypasses nothing: one cell (picked by the seed) is run
        # again serially, untimed, and must give the very same records.
        index = spec["seed"] % len(cells)
        result, _, serial_s = run_cell(index, 0)
        equal = cell_digest(result) == digests[cell_ids[index]]
        if not equal:
            failed += n_trials
        out["pool_check"] = {
            "cell": cell_ids[index],
            "serial_s": serial_s,
            "pool_s": chunks[index]["time_s"],
            "equal": equal,
        }
    out["failed"] = failed
    out["peak_rss_mb"] = peak_rss_mb()
    # Spans exist only inside cells, so the cells' wall is what their shares
    # refer to.
    out["trace"] = tracing.report(
        sum(c["time_s"] for c in chunks), spec.get("spans_out"), workload=workload, seed=spec["seed"]
    )
    return out


def run_workload(spec: dict) -> dict:
    if spec["workload"] in common.SERVE_WORKLOADS:
        return run_serve(spec)
    return run_campaign(spec)


def run_layers(spec: dict) -> dict:
    import layers

    return layers.probe_all(spec)


MODES = {"build": build_pair, "workload": run_workload, "layers": run_layers}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    if spec.get("cpus"):
        os.sched_setaffinity(0, spec["cpus"])
    result = MODES[spec["mode"]](spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
