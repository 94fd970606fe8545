"""The ledger's own load generators: open loop from a pre-drawn schedule,
closed loop with a fixed number of callers.

``repro.serve.loadgen.run_load`` times each request from *submit* and draws
its schedule while it runs; an open-loop measurement has to time from when a
request was *due* (so a stall is charged to every request it delayed) and say
how late the generator itself ran.  Both generators here are one driver
thread beside the server's pump thread, know the server only through the
``submit`` callable they are given and the handle it returns, and produce
plain per-request sample dicts that :mod:`estimator` judges.
"""

from __future__ import annotations

import time

import numpy as np

POLL_S = 0.002
"""How long the closed loop waits on its oldest request before it looks at
the others: short against a request's life, so no caller idles for long."""
TIMEOUT_S = 120.0
"""After this long a run stops waiting; what is unfinished counts as failed."""


def prompt_order(rng: np.random.Generator, n: int, n_shapes: int) -> list[int]:
    """``n`` prompt picks in seeded blocks that each visit every shape once:
    any ``n_shapes`` consecutive picks are the same work, whatever the seed."""
    picks: list[int] = []
    while len(picks) < n:
        picks.extend(int(i) for i in rng.permutation(n_shapes))
    return picks[:n]


def open_schedule(
    seed: int, rate_rps: float, window_s: float, n_shapes: int
) -> tuple[list[float], list[int]]:
    """Due times and prompt picks of one open-loop window.

    A Poisson process conditioned on its count: exactly ``rate * window``
    arrivals, uniform over the window.  Burstiness is kept; the offered work
    no longer differs between seeds by the Poisson count's own ±4 %.
    """
    rng = np.random.default_rng([seed, 0x0BE7])
    n = max(1, round(rate_rps * window_s))
    due = sorted(float(t) for t in rng.uniform(0.0, window_s, size=n))
    return due, prompt_order(rng, n, n_shapes)


def _sample(record: dict) -> dict:
    """Distil one request record into the dict the estimators read.  The
    stream is kept so that :func:`judge` can compare it with its reference
    once the timed window is over."""
    handle = record["handle"]
    sample = {
        "seq": record["seq"],
        "pick": record["pick"],
        "refused": record["refused"],
        "late_ms": record["late_s"] * 1e3,
        "submit_us": record["submit_s"] * 1e6,
        "finish": None,
        "correct": False,
        "stream": None,
        "tokens": 0,
        "ttft_ms": None,
        "tpot_ms": None,
        "done_at": None,
    }
    if handle is None or not handle.done:
        return sample
    tokens = list(handle.tokens)
    sample["finish"] = handle.finish_reason
    sample["tokens"] = len(tokens)
    sample["stream"] = tokens
    sample["done_at"] = record["t_send"] + handle.latency_s
    first = handle.ttft_s if handle.ttft_s is not None else handle.latency_s
    sample["ttft_ms"] = (record["late_s"] + first) * 1e3
    if handle.ttft_s is not None and len(tokens) > 1:
        sample["tpot_ms"] = (handle.latency_s - handle.ttft_s) / (len(tokens) - 1) * 1e3
    return sample


def _send(submit, seq: int, pick: int, due: float | None, refused_exc) -> dict:
    t_send = time.perf_counter()
    record = {
        "seq": seq,
        "pick": pick,
        "t_send": t_send,
        "late_s": 0.0 if due is None else max(0.0, t_send - due),
        "handle": None,
        "refused": None,
    }
    try:
        record["handle"] = submit(pick)
    except refused_exc as exc:
        record["refused"] = getattr(exc, "reason", type(exc).__name__)
    record["submit_s"] = time.perf_counter() - t_send
    return record


def run_open(
    submit,
    due: list[float],
    picks: list[int],
    refused_exc: tuple = (),
    backlog_limit: int = 16,
) -> dict:
    """Send ``picks[i]`` at ``start + due[i]`` whether or not earlier
    requests finished, then drain.  TTFT is counted from the due time."""
    records: list[dict] = []
    start = time.perf_counter()
    for seq, (at, pick) in enumerate(zip(due, picks)):
        delay = start + at - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        records.append(_send(submit, seq, pick, start + at, refused_exc))
    outstanding = sum(
        1 for r in records if r["handle"] is not None and not r["handle"].done
    )
    deadline = time.perf_counter() + TIMEOUT_S
    for record in records:
        if record["handle"] is not None:
            try:
                record["handle"].result(timeout=max(0.0, deadline - time.perf_counter()))
            except TimeoutError:
                pass  # judged below as unfinished, hence failed
    return {
        "samples": [_sample(r) for r in records],
        "window_s": due[-1] if due else 0.0,
        "wall_s": time.perf_counter() - start,
        "backlog_end": outstanding,
        "backlog_growing": outstanding > backlog_limit,
    }


def run_closed(
    submit,
    picks: list[int],
    callers: int,
    refused_exc: tuple = (),
) -> dict:
    """Keep ``callers`` requests outstanding until ``picks`` is used up: a
    caller sends its next request only once its previous one completed."""
    records: list[dict] = []
    slots: list[dict] = []
    queue = iter(enumerate(picks))
    start = time.perf_counter()
    deadline = start + TIMEOUT_S
    for seq, pick in queue:
        slots.append(_send(submit, seq, pick, None, refused_exc))
        if len(slots) == callers:
            break
    while slots and time.perf_counter() < deadline:
        oldest = slots[0]["handle"]
        if oldest is not None and not oldest.done:
            try:
                oldest.result(timeout=POLL_S)
            except TimeoutError:
                pass
        remaining = []
        for record in slots:
            if record["handle"] is not None and not record["handle"].done:
                remaining.append(record)
                continue
            records.append(record)
            following = next(queue, None)
            if following is not None:
                remaining.append(_send(submit, *following, None, refused_exc))
        slots = remaining
    records.extend(slots)  # unfinished at the deadline: judged as failed
    records.sort(key=lambda r: r["seq"])
    return {
        "samples": [_sample(r) for r in records],
        "wall_s": time.perf_counter() - start,
    }


def judge(samples: list[dict], references: list[list[int]]) -> None:
    """Mark each finished stream correct iff it equals, token for token, the
    serial ``greedy_decode`` reference of its prompt; drop the stream."""
    for sample in samples:
        stream = sample.pop("stream")
        sample["correct"] = stream is not None and stream == references[sample["pick"]]


def timed_span(samples: list[dict], lead_in: int, n_timed: int) -> tuple[list[dict], float, float]:
    """The ``n_timed`` completions after the first ``lead_in`` (ramp-up from
    an empty batch), in completion order, with the times the span starts and
    ends; what completes later (the drain, at falling occupancy) is not timed."""
    done = sorted((s for s in samples if s["done_at"] is not None), key=lambda s: s["done_at"])
    if len(done) <= lead_in or lead_in < 1:
        raise ValueError(f"only {len(done)} requests completed, {lead_in} are lead-in")
    timed = done[lead_in : lead_in + n_timed]
    return timed, done[lead_in - 1]["done_at"], timed[-1]["done_at"]
