"""Open-loop Poisson load generator for the serving loop.

Replays heavy mixed-task traffic against an :class:`InferenceServer`:
synthetic concurrent users draw prompts with the shapes of the paper's
four generative workloads (gsm8k / wmt16 / xlsum / squadv2) and arrive
as a Poisson process at a configured offered load.  The generator is
*open-loop* — arrivals are scheduled from the exponential inter-arrival
clock alone, never gated on completions — so overload actually
overloads the server instead of self-throttling, which is what makes
the offered-load vs. throughput/latency sweep meaningful.

Two verification entry points:

* :func:`equivalence_gate` — serves every distinct prompt concurrently,
  twice through one server (the second pass starts from its prompt
  cache), and compares each stream token-for-token against a serial
  ``greedy_decode`` reference computed before the server starts.  The
  benchmark runs this gate *before* any timing; a mismatch is a hard
  failure, not a data point.
* :func:`run_load` — one offered-load point: submit on the Poisson
  clock, drain, and distill per-request timings (recorded on the
  stream handles by the pump) into a :class:`LoadGenReport` with p50 /
  p99 TTFT, end-to-end latency and TPOT.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.generation.decode import GenerationConfig, greedy_decode
from repro.inference.engine import InferenceEngine
from repro.serve.admission import ServeRejected
from repro.serve.server import InferenceServer, StreamHandle

__all__ = [
    "PromptSpec",
    "LoadGenReport",
    "mixed_task_prompts",
    "equivalence_gate",
    "run_load",
]

GENERATIVE_TASKS = ("gsm8k", "wmt16", "xlsum", "squadv2")
"""The paper's four generative workloads (§3.3.4) — the traffic mix."""


@dataclass(frozen=True)
class PromptSpec:
    """One replayable request shape: task-attributed prompt + budget."""

    task: str
    ids: tuple[int, ...]
    max_new: int


def mixed_task_prompts(
    world=None,
    tokenizer=None,
    per_task: int = 8,
) -> list[PromptSpec]:
    """Prompt shapes drawn from the four generative tasks' standardized
    evaluation subsets — genuine task prompt lengths and budgets, so
    the traffic mix matches what campaigns decode."""
    from repro.tasks import (
        GSM8kTask,
        SquadTask,
        SummarizationTask,
        TranslationTask,
        standardized_subset,
    )
    from repro.zoo.build import default_tokenizer, default_world

    world = world if world is not None else default_world()
    tokenizer = tokenizer if tokenizer is not None else default_tokenizer(world)
    prompts: list[PromptSpec] = []
    for task_cls in (GSM8kTask, TranslationTask, SummarizationTask, SquadTask):
        task = task_cls(world)
        for example in standardized_subset(task, per_task):
            prompts.append(
                PromptSpec(
                    task=task.name,
                    ids=tuple(tokenizer.encode(example.prompt)),
                    max_new=task.max_new_tokens,
                )
            )
    return prompts


def equivalence_gate(
    engine: InferenceEngine,
    config: GenerationConfig,
    prompts: list[PromptSpec],
    max_batch: int = 8,
    timeout_s: float = 300.0,
    draft: "InferenceEngine | None" = None,
    speculation_depth: int = 4,
) -> int:
    """Assert served outputs are token-identical to serial greedy decode.

    Serial references are computed first (the engine is idle), then
    every prompt is submitted to a fresh server *concurrently* — so the
    comparison exercises real mid-flight batching, not one-at-a-time
    serving.  The prompt set is then submitted a second time, after the
    first pass has finished, so streams that start from the server's
    prompt cache are gated as well as the prompt forwards that filled
    it.  With a ``draft``, the server speculates, so the gate also
    covers the composed batched-speculative rounds.  Raises
    ``AssertionError`` on the first divergence; returns the number of
    prompts checked.
    """
    references = [
        greedy_decode(
            engine,
            list(spec.ids),
            replace(config, max_new_tokens=spec.max_new),
            strategy="serial",
        )
        for spec in prompts
    ]
    with InferenceServer(
        engine, config, max_batch=max_batch,
        draft=draft, speculation_depth=speculation_depth,
    ) as server:
        passes = {}
        for name in ("first pass", "second pass (prompt cache)"):
            handles = [
                server.submit(list(spec.ids), max_new_tokens=spec.max_new)
                for spec in prompts
            ]
            passes[name] = [h.result(timeout=timeout_s) for h in handles]
    for name, served in passes.items():
        for i, (spec, got, want) in enumerate(zip(prompts, served, references)):
            if got != want:
                raise AssertionError(
                    f"served output diverged from serial greedy_decode on"
                    f" prompt {i} (task {spec.task}), {name}: served {got}"
                    f" != serial {want}"
                )
    return len(prompts)


def _quantiles(values_ms: list[float]) -> dict[str, float]:
    if not values_ms:
        return {"p50": float("nan"), "p99": float("nan")}
    arr = np.asarray(values_ms, dtype=np.float64)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p99": float(np.percentile(arr, 99)),
    }


@dataclass
class LoadGenReport:
    """Distilled per-request statistics for one offered-load point."""

    offered_rps: float
    duration_s: float
    wall_s: float
    submitted: int
    completed: int
    rejected: int
    tokens: int
    n_users: int
    throughput_tps: float
    throughput_rps: float
    ttft_ms: dict = field(default_factory=dict)
    latency_ms: dict = field(default_factory=dict)
    tpot_ms: dict = field(default_factory=dict)
    handles: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "offered_rps": self.offered_rps,
            "duration_s": self.duration_s,
            "wall_s": self.wall_s,
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "tokens": self.tokens,
            "n_users": self.n_users,
            "throughput_tps": self.throughput_tps,
            "throughput_rps": self.throughput_rps,
            "ttft_ms": dict(self.ttft_ms),
            "latency_ms": dict(self.latency_ms),
            "tpot_ms": dict(self.tpot_ms),
        }


def run_load(
    server: InferenceServer,
    prompts: list[PromptSpec],
    offered_rps: float,
    duration_s: float,
    seed: int = 0,
    tenant: str | None = None,
    n_users: int = 1000,
    drain_timeout_s: float = 600.0,
) -> LoadGenReport:
    """Drive one open-loop Poisson load point and drain it.

    Arrival times are pre-drawn from ``Exponential(1/offered_rps)``
    inter-arrivals over ``duration_s`` seconds; each arrival is a
    synthetic user (attribution only — users carry no state) submitting
    a uniformly drawn prompt shape.  Submissions shed by the server's
    bounded queue count as ``rejected``; everything accepted is drained
    to completion before statistics are computed from the per-request
    handle timings (pump-recorded, independent of the obs registry).
    """
    if offered_rps <= 0:
        raise ValueError("offered_rps must be > 0")
    if not prompts:
        raise ValueError("need at least one prompt spec")
    rng = np.random.default_rng(seed)
    arrivals: list[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / offered_rps))
        if t >= duration_s:
            break
        arrivals.append(t)
    users = rng.integers(0, max(1, n_users), size=max(1, len(arrivals)))
    picks = rng.integers(0, len(prompts), size=max(1, len(arrivals)))

    handles: list[StreamHandle] = []
    rejected = 0
    start = time.perf_counter()
    for i, at in enumerate(arrivals):
        delay = (start + at) - time.perf_counter()
        if delay > 0:
            # Open loop: wait out the arrival clock, never completions.
            time.sleep(delay)
        spec = prompts[int(picks[i])]
        try:
            handles.append(
                server.submit(
                    list(spec.ids),
                    tenant=tenant,
                    max_new_tokens=spec.max_new,
                )
            )
        except ServeRejected as exc:
            if exc.reason != "queue_full":
                raise
            rejected += 1
    for handle in handles:
        handle.result(timeout=drain_timeout_s)
    wall = time.perf_counter() - start

    tokens = sum(len(h.tokens) for h in handles)
    ttfts = [h.ttft_s * 1e3 for h in handles if h.ttft_s is not None]
    latencies = [h.latency_s * 1e3 for h in handles if h.latency_s is not None]
    tpots = [
        (h.latency_s - h.ttft_s) / (len(h.tokens) - 1) * 1e3
        for h in handles
        if h.ttft_s is not None and len(h.tokens) > 1
    ]
    return LoadGenReport(
        offered_rps=offered_rps,
        duration_s=duration_s,
        wall_s=wall,
        submitted=len(arrivals),
        completed=len(handles),
        rejected=rejected,
        tokens=tokens,
        n_users=len({int(u) for u in users[: len(arrivals)]}),
        throughput_tps=tokens / wall if wall > 0 else 0.0,
        throughput_rps=len(handles) / wall if wall > 0 else 0.0,
        ttft_ms=_quantiles(ttfts),
        latency_ms=_quantiles(latencies),
        tpot_ms=_quantiles(tpots),
        handles=handles,
    )
