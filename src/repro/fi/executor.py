"""How a campaign's trials get run: one batch function, two places to call it.

:func:`run_batch` is the only code that runs trials: a wave for those
that can share forwards, the rest one at a time with
retry/backoff/timeout/quarantine.  :class:`Executor` calls it in this
process, and forked pool workers (:mod:`repro.fi.pool`) call it on the
batches the executor deals them — so a worker forms waves and retries a
raising trial exactly as the in-process leg does, and the parent keeps
only what only it can do: notice a death, SIGKILL a worker past its
deadline, respawn within a budget, and give the pool up.

The campaign is duck-typed (this module never imports
:mod:`repro.fi.campaign`): whatever knows what a trial *is* —
``_run_trial``, ``_run_wave``, ``_wave_capable``, ``_quarantine_record``,
``_post_failure_repair``, ``trial_key``, ``fingerprint`` — and how to
rebuild itself over a shared arena in a worker (``_attached``).
"""

from __future__ import annotations

import math
import os
import signal
import threading
import time
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from repro.fi.checkpoint import CampaignCheckpoint
from repro.fi.pool import CampaignPool, _Held, _SharedArena
from repro.obs.flight import flight_recorder as _flight
from repro.obs.instrument import attach_layer_timing
from repro.obs.manifest import config_hash
from repro.obs.runtime import telemetry as _telemetry
from repro.obs.trace import SpanRecord

__all__ = [
    "CampaignChaos",
    "ChaosError",
    "TrialTimeoutError",
    "Executor",
    "run_batch",
]

_WAVE_TRIALS = 128
"""Most trials one batch takes when they can share forwards (eight
generations of a campaign's sixteen-row round).  Long enough that
back-filled rows keep the round near its full width — a wave's tail,
where the last rows decode with fewer and fewer siblings, is paid once
per batch — short enough that the journal — written batch by batch —
trails the decode by a fraction of a second, and that a wave fits the
time one trial is allowed (``trial_timeout`` bounds each wave as a
whole)."""


# ----------------------------------------------------------------------------
# Runner-level fault injection (chaos testing the campaign driver).
# ----------------------------------------------------------------------------


class ChaosError(RuntimeError):
    """Raised by :class:`CampaignChaos` strikes (transient or sticky)."""


class TrialTimeoutError(RuntimeError):
    """A trial exceeded ``trial_timeout`` and was abandoned."""


@dataclass(frozen=True)
class CampaignChaos:
    """Deliberate faults in the campaign *runner* for resilience tests.

    The repo injects bit flips into models; this injects failures into
    the execution layer itself, so the supervisor's retry, quarantine,
    timeout and pool-rebuild paths can be exercised deterministically.
    All strikes key on the trial index; except for ``fail_always`` they
    fire only on a trial's first attempt, so a correct supervisor
    always recovers.
    """

    fail_transient: frozenset = frozenset()
    """Trials that raise on their first attempt only."""
    fail_always: frozenset = frozenset()
    """Trials that raise on every attempt (deterministic failures)."""
    die_in_worker: frozenset = frozenset()
    """Trials that kill their worker process (first attempt, pool only)."""
    hang: frozenset = frozenset()
    """Trials that sleep ``hang_seconds`` on their first attempt."""
    hang_seconds: float = 60.0

    def __post_init__(self) -> None:
        for name in ("fail_transient", "fail_always", "die_in_worker", "hang"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))

    def strike(self, trial: int, attempt: int, in_worker: bool) -> None:
        if trial in self.fail_always:
            raise ChaosError(f"chaos: deterministic failure in trial {trial}")
        if attempt > 0:
            return
        if trial in self.fail_transient:
            raise ChaosError(f"chaos: transient failure in trial {trial}")
        if trial in self.die_in_worker and in_worker:
            os._exit(13)
        if trial in self.hang:
            time.sleep(self.hang_seconds)


# ----------------------------------------------------------------------------
# One batch of trials: the same code in this process and in a worker.
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class _Supervision:
    """Resolved fault-tolerance knobs for one ``run()`` invocation."""

    trial_timeout: float | None = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    max_pool_rebuilds: int = 2


@contextmanager
def _trial_alarm(seconds: float | None):
    """Best-effort trial timeout via ``SIGALRM``.

    Active only on platforms with ``SIGALRM`` and from the main thread
    (a pool worker's loop is its main thread); elsewhere trials run
    unbounded in-process, and under a pool the parent's SIGKILL
    deadline is what is left.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _fire(signum, frame):
        raise TrialTimeoutError(f"trial exceeded {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _batch_size(n_todo: int, n_workers: int, wave_capable: bool) -> int:
    """Trials per batch: a wave's worth where trials can share forwards,
    else one — and never more than a worker's even share, so no worker
    idles while a sibling sits on two shares."""
    share = math.ceil(n_todo / max(1, n_workers))
    return max(1, min(_WAVE_TRIALS if wave_capable else 1, share))


def _supervise_serial_trial(
    campaign, trial: int, sup: _Supervision, attempt0: int, started: Callable
) -> tuple[object, int]:
    """Run one trial alone with retry/backoff/timeout/quarantine.

    Returns ``(record, attempts)`` where ``attempts`` counts those made
    by this call plus the ``attempt0`` made before it (journalled for
    post-mortems).  Every attempt is announced through ``started``.
    """
    tel = _telemetry()
    attempt = attempt0
    while True:
        started([(trial, attempt)])
        try:
            with _trial_alarm(sup.trial_timeout):
                record = campaign._run_trial(trial, attempt)
            return record, attempt + 1
        except Exception as exc:  # noqa: BLE001 — quarantine, don't crash
            campaign._post_failure_repair()
            attempt += 1
            failures = attempt - attempt0
            if failures > sup.max_retries:
                return campaign._quarantine_record(trial, exc), attempt
            if tel.active:
                tel.metrics.counter("campaign.retries").add()
            if sup.retry_backoff:
                time.sleep(sup.retry_backoff * (2 ** (failures - 1)))


def _supervise_wave(
    campaign, trials: list[int], sup: _Supervision
) -> tuple[dict, str]:
    """``{trial: record}`` of the trials a wave decoded, and why the
    rest run alone: ``off_baseline`` for what the wave left out.  A wave
    that raises, or outlasts the time one trial is allowed, is repaired
    and yields nothing: all of ``trials`` are then the one-trial path's
    (``wave_fallback``), where a deterministic failure is retried and
    quarantined alone, as ever."""
    try:
        with _trial_alarm(sup.trial_timeout):
            return campaign._run_wave(trials), "off_baseline"
    except Exception:  # noqa: BLE001 — the one-trial path owns failures
        campaign._post_failure_repair()
        tel = _telemetry()
        if tel.active:
            tel.metrics.counter("campaign.wave.fallbacks").add()
        return {}, "wave_fallback"


def run_batch(
    campaign,
    batch: list[tuple[int, int]],
    sup: _Supervision,
    started: Callable = lambda unit: None,
) -> Iterator[list[tuple[int, object, int]]]:
    """Run ``batch`` — ``(trial, attempts so far)`` pairs — and yield
    ``(trial, record, attempts)`` results, one list per finished unit.

    A campaign whose trials can share forwards takes the batch as one
    wave first; what the wave leaves (and every trial of any other
    campaign) runs alone, counted by reason under
    ``campaign.lone_trials.*``.  A unit is that wave, or one attempt of
    one trial: ``started`` is told each unit's ``(trial, attempt)``
    pairs as it begins, which is what lets a supervisor in another
    process bound a unit's time and know what a death interrupted.
    """
    left, alone = dict(batch), "not_wave_capable"
    if campaign._wave_capable():
        started(batch)
        wave, alone = _supervise_wave(campaign, list(left), sup)
        if wave:
            yield [(trial, record, left.pop(trial) + 1) for trial, record in wave.items()]
    tel = _telemetry()
    if left and tel.active:
        tel.metrics.counter(f"campaign.lone_trials.{alone}").add(len(left))
    for trial, attempts in left.items():
        yield [(trial, *_supervise_serial_trial(campaign, trial, sup, attempts, started))]


# ----------------------------------------------------------------------------
# Worker side: what a forked pool worker runs.
# ----------------------------------------------------------------------------


def _drain_payload(tel, recorder) -> dict | None:
    """What this worker observed since the last drain, for the parent to
    merge: spans, metrics, flight records."""
    if not tel.active and not recorder.active:
        return None
    payload: dict = {
        # Clock anchor pairing this worker's perf_counter epoch with
        # wall time, so the parent can rebase span starts onto its own
        # monotonic timeline at adoption.
        "clock": {"perf": time.perf_counter(), "unix": time.time()},
        "pid": os.getpid(),
    }
    if tel.active:
        payload["spans"] = [span.to_dict() for span in tel.tracer.records]
        payload["metrics"] = tel.metrics.snapshot()
        tel.tracer.reset()
        tel.metrics.reset()
    if recorder.active:
        payload["flight"] = recorder.drain()
    return payload


def _boot_worker(campaign, arena_root: Path, traced: bool, flight: bool) -> Callable:
    """What a pool worker runs first, inherited through ``fork`` as a
    ``partial`` over these arguments; returns its ``serve(task, send)``.

    Nothing heavyweight crosses the process boundary: the worker's
    campaign is the forked copy of the parent's over engines attached
    zero-copy to the exported arena (``campaign._attached``), respawned
    workers included.  Telemetry and the flight recorder are
    per-process: a worker collects into its own and ships what each
    unit left behind with the unit's results.
    """
    mine = campaign._attached(arena_root)
    tel, recorder = _telemetry(), _flight()
    if traced:
        tel.reset()
        tel.enable()
        attach_layer_timing(mine.engine, tel)
    if flight:
        recorder.reset()
        recorder.arm()

    def serve(task, send) -> None:
        batch, sup = task
        units = run_batch(mine, batch, sup, lambda unit: send("start", unit))
        for results in units:
            send("done", (results, _drain_payload(tel, recorder)))

    return serve


# ----------------------------------------------------------------------------
# Parent side: the in-process leg and the pool supervisor.
# ----------------------------------------------------------------------------


class Executor:
    """Runs a campaign's pending trials, here or on a pool it owns.

    Holds what outlives one ``run()``: the shared weight arena (exported
    once per campaign — pool rebuilds and resumed runs re-attach, never
    re-export) and the persistent pre-forked pool (reused across
    ``run()``/``resume()`` until :meth:`close`).  It holds no reference
    to the campaign, which owns it.
    """

    def __init__(self) -> None:
        self.arena: _SharedArena | None = None
        self.pool: CampaignPool | None = None
        self._forked_with: tuple | None = None
        """``(telemetry active, flight recorder armed)`` when the pool's
        workers forked — they bake both in."""

    def close(self) -> None:
        """Tear down the pool and the arena (idempotent)."""
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self.arena is not None:
            self.arena.close()
            self.arena = None

    def run(
        self,
        campaign,
        n_trials: int,
        n_workers: int,
        sup: _Supervision,
        checkpoint: str | Path | None,
        resume: bool,
    ) -> list:
        """The records of trials ``0 .. n_trials - 1``, in trial order:
        those a resumed journal already holds, and the rest run now —
        each journalled as it is accepted."""
        tel = _telemetry()
        results: dict[int, object] = {}
        journal: CampaignCheckpoint | None = None
        if checkpoint is not None:
            with tel.span(
                "campaign.checkpoint", path=str(checkpoint), resume=resume
            ) as span:
                journal = CampaignCheckpoint(
                    checkpoint,
                    campaign.fingerprint(),
                    resume=resume,
                    n_trials=n_trials,
                )
                for trial, record in journal.completed.items():
                    if trial < n_trials:
                        results[trial] = record
                span.set(skipped=len(results))
            if tel.active and results:
                tel.metrics.counter("campaign.resume_skipped").add(len(results))

        def accept(trial: int, record, attempts: int, pid: int | None = None):
            results[trial] = record
            if journal is not None:
                journal.write(
                    trial, campaign.trial_key(trial), record, attempts,
                    worker_pid=pid,
                )

        todo = [(trial, 0) for trial in range(n_trials) if trial not in results]
        try:
            if n_workers > 1 and len(todo) > 1:
                todo = self._run_pool(campaign, todo, n_workers, sup, accept)
            # Everything when no pool was asked for; what a pool that
            # spent its rebuild budget left behind otherwise.
            size = _batch_size(len(todo), 1, campaign._wave_capable())
            for at in range(0, len(todo), size):
                units = run_batch(campaign, todo[at : at + size], sup)
                done = [result for unit in units for result in unit]
                for result in sorted(done, key=lambda result: result[0]):
                    accept(*result)
        finally:
            if journal is not None:
                journal.close()
        return [results[trial] for trial in range(n_trials)]

    # -- persistent pool ------------------------------------------------------

    def _ensure_pool(self, campaign, n_workers: int, tel) -> CampaignPool:
        """The campaign's persistent pool, (re)built only when stale.

        A healthy pool is reused across ``run()``/``resume()`` calls —
        resuming into a live pool pays zero spinup.  It is rebuilt only
        when the requested worker count or the telemetry/flight
        activation changed (workers bake those in at fork time).
        """
        forked_with = (tel.active, _flight().active)
        pool = self.pool
        if pool is not None and (
            pool.closed
            or pool.n_workers != n_workers
            or self._forked_with != forked_with
        ):
            pool.close()
            pool = self.pool = None
        if pool is None:
            if self.arena is None:
                self.arena = _SharedArena(campaign.engine, campaign.draft_model)
            arena = self.arena
            self._forked_with = forked_with
            with tel.span(
                "campaign.pool_spinup",
                workers=n_workers,
                arena_bytes=arena.nbytes,
            ) as span:
                pool = CampaignPool(n_workers, self._boot(campaign))
                ready = pool.wait_ready()
                span.set(attached=ready)
            if tel.active:
                tel.metrics.counter("campaign.shared_attach").add(ready)
                tel.metrics.gauge("campaign.workers").set(float(n_workers))
                tel.metrics.gauge("campaign.arena_bytes").set(float(arena.nbytes))
                tel.manifest_extra["scaleout"] = {
                    "workers": n_workers,
                    "arena_bytes": arena.nbytes,
                }
            self.pool = pool
        return pool

    def _boot(self, campaign) -> Callable:
        return partial(_boot_worker, campaign, self.arena.root, *self._forked_with)

    def _run_pool(
        self,
        campaign,
        todo: list[tuple[int, int]],
        n_workers: int,
        sup: _Supervision,
        accept: Callable,
    ) -> list[tuple[int, int]]:
        """Supervise the persistent pool over ``todo``; returns the
        ``(trial, attempts so far)`` pairs it did not finish.

        Dispatch is dynamic (next pending batch → first free worker).
        A worker that dies is respawned against the existing arena; one
        whose unit exceeds ``trial_timeout`` is SIGKILLed and replaced.
        Either way the trials it still held are re-queued one per batch
        — a poisonous trial must not take its siblings down twice —
        with the in-flight unit's attempt counts bumped, so
        first-attempt chaos does not strike again; a trial that timed
        out alone more than ``max_retries`` times is quarantined.  Each
        replacement counts against ``max_pool_rebuilds``; past the
        budget the pool is shut down and what is unfinished handed back
        — graceful degradation beats a dead campaign.
        """
        tel = _telemetry()
        pool = self._ensure_pool(campaign, n_workers, tel)
        attempts = dict(todo)
        trials = sorted(attempts)
        size = _batch_size(len(trials), n_workers, campaign._wave_capable())
        pending = deque(trials[at : at + size] for at in range(0, len(trials), size))
        left = set(trials)
        payloads: dict[int, tuple[int, dict]] = {}  # first trial -> (trials, payload)
        executed: Counter = Counter()  # pid -> trials completed there
        timeouts: Counter = Counter()  # trial -> deadlines it alone ran past
        rebuilds = 0

        def requeue(held: _Held | None) -> None:
            if held is None:
                return
            in_flight = dict(held.unit)
            for trial in sorted(held.left & left, reverse=True):
                if trial in in_flight:
                    attempts[trial] = in_flight[trial] + 1
                    if tel.active:
                        tel.metrics.counter("campaign.retries").add()
                pending.appendleft([trial])

        def replace_worker() -> None:
            nonlocal rebuilds
            rebuilds += 1
            if rebuilds <= sup.max_pool_rebuilds:
                pool.spawn_worker(self._boot(campaign))

        while left and rebuilds <= sup.max_pool_rebuilds:
            while pending and pool.idle:
                batch = pending.popleft()
                pool.dispatch(batch, ([(t, attempts[t]) for t in batch], sup))
            msg = pool.poll(0.05)
            if msg is not None:
                kind, pid, body = msg
                if kind == "ready":
                    if tel.active:
                        tel.metrics.counter("campaign.shared_attach").add()
                elif kind == "done":
                    # Never of a trial served before: a killed worker's
                    # pipe is dropped unread, and what a dead one still
                    # delivered is off its books before they are re-queued.
                    results, payload = body
                    executed[pid] += len(results)
                    for trial, record, n_attempts in results:
                        left.discard(trial)
                        accept(trial, record, n_attempts, pid)
                    if payload is not None:
                        payloads[results[0][0]] = (len(results), payload)
            for _pid, held in pool.reap_dead():
                requeue(held)
                replace_worker()
            for pid, held in pool.expired(time.monotonic(), sup.trial_timeout):
                pool.kill_worker(pid)
                if len(held.unit) == 1:
                    trial, attempt = held.unit[0]
                    timeouts[trial] += 1
                    if timeouts[trial] > sup.max_retries:
                        left.discard(trial)
                        exc = TrialTimeoutError(
                            f"trial exceeded {sup.trial_timeout:g}s"
                        )
                        accept(
                            trial, campaign._quarantine_record(trial, exc),
                            attempt + 1, pid,
                        )
                requeue(held)
                replace_worker()

        if left:
            # Rebuild budget exhausted: abandon the pool (in-flight
            # units included — their workers may be the problem).
            if tel.active:
                tel.metrics.counter("campaign.pool_degraded").add()
            for held in pool.in_flight.values():
                requeue(held)
            pool.close()
            self.pool = None

        if tel.active and executed:
            # Work actually stolen: completions beyond an even static
            # split.  Zero when every worker served exactly its share.
            fair = math.ceil(sum(executed.values()) / max(1, n_workers))
            steals = sum(max(0, n - fair) for n in executed.values())
            tel.metrics.counter("campaign.steals").add(steals)

        _merge_worker_payloads(payloads, config_hash(campaign.fingerprint()))
        return [(trial, attempts[trial]) for trial in sorted(left)]


def _merge_worker_payloads(
    payloads: dict[int, tuple[int, dict]], campaign_hash: str
) -> None:
    """Fold what the workers observed into this process's telemetry and
    flight recorder.  ``payloads`` holds ``(trials in the unit,
    payload)`` under the first trial of the unit each came with and is
    merged in that order, so the merged stream is deterministic
    regardless of which worker (or pool generation) served which unit;
    adopted spans are attributed with ``(campaign_hash, worker_pid)``,
    and ``trial`` where the unit was one trial's.  Workers fork with
    this process's telemetry and recorder switches, so a payload holds
    what is merged here."""
    tel, recorder = _telemetry(), _flight()
    wall_minus_perf = time.time() - time.perf_counter()
    for trial in sorted(payloads):
        n_trials, payload = payloads[trial]
        if tel.active:
            tel.metrics.merge(payload["metrics"])
            spans = [SpanRecord.from_dict(d) for d in payload["spans"]]
            # Rebase worker perf_counter starts onto this process's
            # monotonic clock via each side's (perf, wall) anchor pair,
            # so stitched spans share one campaign timeline.
            clock = payload["clock"]
            offset = (clock["unix"] - clock["perf"]) - wall_minus_perf
            for span in spans:
                span.start += offset
            attrs = {"campaign_hash": campaign_hash, "worker_pid": payload["pid"]}
            if n_trials == 1:
                attrs["trial"] = trial
            tel.tracer.adopt(spans, extra_attrs=attrs)
        if recorder.active:
            recorder.adopt(payload["flight"])
