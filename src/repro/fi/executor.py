"""How a campaign's trials get run: one batch function, two places to call it.

:func:`run_batch` is the only code that runs trials: a wave for those
that can share forwards, the rest one at a time with
retry/backoff/timeout/quarantine.  :class:`Executor` calls it in this
process, and forked pool workers (:mod:`repro.fi.pool`) call it on the
batches the executor deals them — so a worker forms waves and retries a
raising trial exactly as the in-process leg does.  Under a pool this
process is one of the workers too, and its supervisor
(:meth:`Executor._run_pool`) loops over a ``_PoolRun``'s stages:
*dispatch* (idle forks, this process's batch, a batch dealt ahead),
*run one unit* of this process's batch, *collect* (poll the forks and
note what they sent) and *supervise* (reap, expire, quarantine,
respawn), then *give up* past the rebuild budget (degrade) and
*finish* (steals, merged payloads).

The campaign is duck-typed (this module never imports
:mod:`repro.fi.campaign`).  What it needs of one: ``engine`` (its hooks
decide whether a pool is stale), ``trial_plan()`` (wave or one trial at
a time), ``_run_wave(trials)`` and ``_run_trial(trial, attempt)`` (the
records), ``_quarantine_record(trial, exc)`` and
``_post_failure_repair()`` (after a raise), ``trial_key(trial)`` and
``fingerprint()`` (the journal's), and ``_in_worker``, set on a pool
worker's copy.
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
from repro.fi.pool import CampaignPool, _Held
from repro.obs.flight import flight_recorder as _flight
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

_RETRY_BACKOFF = 0.05
"""Seconds before a failed trial's first retry, doubled for each next."""

_MAX_POOL_REBUILDS = 2
"""Workers a run may replace before it runs the rest in this process."""


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
    """Trials that kill their worker process (first attempt, forked
    workers only: the supervising process runs them unharmed)."""
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


@contextmanager
def _trial_alarm(seconds: float | None):
    """Best-effort trial timeout via ``SIGALRM``.

    Active only on platforms with ``SIGALRM`` and from the main thread
    (a pool worker's loop is its main thread); elsewhere trials run
    unbounded in-process, and in a forked worker the parent's SIGKILL
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


def _batch_size(n_todo: int, n_workers: int, wave: bool) -> int:
    """Trials per batch: a wave's worth where trials share forwards,
    else one — and never more than a worker's even share, so no worker
    idles while a sibling sits on two shares."""
    share = math.ceil(n_todo / max(1, n_workers))
    return max(1, min(_WAVE_TRIALS if wave else 1, share))


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
            if _RETRY_BACKOFF:
                time.sleep(_RETRY_BACKOFF * (2 ** (failures - 1)))


def _supervise_wave(
    campaign, trials: list[int], sup: _Supervision
) -> dict | None:
    """``{trial: record}`` of every trial of one wave.  A wave that
    raises, or outlasts the time one trial is allowed, is repaired and
    yields ``None``: all of ``trials`` are then the one-trial path's
    (``wave_fallback``), where a deterministic failure is retried and
    quarantined alone, as ever."""
    try:
        with _trial_alarm(sup.trial_timeout):
            return campaign._run_wave(trials)
    except Exception:  # noqa: BLE001 — the one-trial path owns failures
        campaign._post_failure_repair()
        tel = _telemetry()
        if tel.active:
            tel.metrics.counter("campaign.wave.fallbacks").add()
        return None


def run_batch(
    campaign,
    batch: list[tuple[int, int]],
    sup: _Supervision,
    started: Callable = lambda unit: None,
) -> Iterator[list[tuple[int, object, int]]]:
    """Run ``batch`` — ``(trial, attempts so far)`` pairs — and yield
    ``(trial, record, attempts)`` results, one list per finished unit.

    The batch is one wave where the campaign's ``trial_plan()`` says
    so; a wave that fails, and every trial of any other campaign, runs
    alone, counted under ``campaign.lone_trials.<wave_fallback | the
    plan's reason>``.  A unit is that wave, or one attempt of one trial:
    ``started`` is told each unit's ``(trial, attempt)`` pairs as it
    begins, which is what lets a supervisor in another process bound a
    unit's time and know what a death interrupted.
    """
    left = dict(batch)
    path, alone = campaign.trial_plan()
    if path == "wave":
        started(batch)
        wave = _supervise_wave(campaign, list(left), sup)
        if wave is None:
            alone = "wave_fallback"
        else:
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


def _boot_worker(campaign) -> Callable:
    """What a pool worker runs first, inherited through ``fork`` as a
    ``partial`` over the campaign; returns its ``serve(task, send)``.

    Nothing crosses the process boundary: the worker runs its forked
    copy of the parent's campaign and engine, hooks and layer-timing
    probes included, as the parent held them when the worker forked —
    respawned workers too.  Telemetry and the flight recorder are
    per-process, switched on or off as the parent's were: a worker
    drops what it inherited of the parent's observations, collects its
    own and ships what each unit left behind with the unit's results.
    """
    campaign._in_worker = True
    tel, recorder = _telemetry(), _flight()
    tel.reset()
    recorder.reset()

    def serve(task, send) -> None:
        batch, sup = task
        units = run_batch(
            campaign, batch, sup,
            lambda unit: send("start", (unit, time.monotonic())),
        )
        for results in units:
            send("done", (results, _drain_payload(tel, recorder)))

    return serve


# ----------------------------------------------------------------------------
# Parent side: the in-process leg and the pool supervisor.
# ----------------------------------------------------------------------------


class Executor:
    """Runs a campaign's pending trials, here or on a pool it owns.

    Holds what outlives one ``run()``: the persistent pre-forked pool
    (reused across ``run()``/``resume()`` until :meth:`close`).  It
    holds no reference to the campaign, which owns it.
    """

    def __init__(self) -> None:
        self.pool: CampaignPool | None = None
        self._forked_with: tuple | None = None
        """``(telemetry active, flight recorder armed, the engine's live
        hook registrations)`` when the pool's workers forked — they
        inherit all three."""

    def close(self) -> None:
        """Tear down the pool (idempotent)."""
        if self.pool is not None:
            self.pool.close()
            self.pool = None

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
            size = _batch_size(len(todo), 1, campaign.trial_plan()[0] == "wave")
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

    def _ensure_pool(self, campaign, n_forks: int, tel) -> CampaignPool:
        """The campaign's persistent pool of ``n_forks`` forked workers,
        (re)built only when stale.

        A healthy pool is reused across ``run()``/``resume()`` calls —
        resuming into a live pool pays zero spinup.  It is rebuilt only
        when the requested worker count changed or what the workers
        inherited did: the telemetry/flight activation, or the hooks on
        the engine (a hook registered or removed since they forked).
        """
        forked_with = (
            tel.active, _flight().active, tuple(campaign.engine.hooks._handles)
        )
        pool = self.pool
        if pool is not None and (
            pool.closed
            or pool.n_workers != n_forks
            or self._forked_with != forked_with
        ):
            pool.close()
            pool = self.pool = None
        if pool is None:
            self._forked_with = forked_with
            with tel.span("campaign.pool_spinup", workers=n_forks):
                pool = CampaignPool(n_forks, partial(_boot_worker, campaign))
            if tel.active:
                tel.metrics.gauge("campaign.workers").set(float(n_forks + 1))
                tel.manifest_extra["scaleout"] = {
                    "workers": n_forks + 1, "supervisor_pid": os.getpid(),
                }
            self.pool = pool
        return pool

    def _run_pool(
        self,
        campaign,
        todo: list[tuple[int, int]],
        n_workers: int,
        sup: _Supervision,
        accept: Callable,
    ) -> list[tuple[int, int]]:
        """Run ``todo`` on ``n_workers`` processes: this one and a
        persistent pool of ``n_workers - 1`` forks it supervises;
        returns the ``(trial, attempts so far)`` pairs left unfinished.

        The loop sequences a :class:`_PoolRun`'s stages until every
        trial is accepted or the replacements pass ``_MAX_POOL_REBUILDS``:
        then the pool is given up (graceful degradation beats a dead
        campaign).  A fork's death or overrun is noticed at most one unit
        of this process's late, a unit ``trial_timeout`` bounds here too
        (``_trial_alarm``).
        """
        pool = self._ensure_pool(campaign, n_workers - 1, _telemetry())
        run = _PoolRun(campaign, pool, todo, n_workers, sup, accept)
        while run.left and run.rebuilds <= _MAX_POOL_REBUILDS:
            run.dispatch()
            if not run.run_own():
                continue
            run.collect()
            run.supervise()
        if run.left:
            run.give_up()
            self.pool = None
        return run.finish()


class _PoolRun:
    """One pooled run's state, and one method per stage of
    :meth:`Executor._run_pool`."""

    def __init__(
        self,
        campaign,
        pool: CampaignPool,
        todo: list[tuple[int, int]],
        n_workers: int,
        sup: _Supervision,
        accept: Callable,
    ) -> None:
        self.campaign, self.pool, self.sup, self.accept = campaign, pool, sup, accept
        self.n_workers = n_workers
        self.tel = _telemetry()
        self.attempts = dict(todo)
        trials = sorted(self.attempts)
        size = _batch_size(len(trials), n_workers, campaign.trial_plan()[0] == "wave")
        self.pending = deque(
            trials[at : at + size] for at in range(0, len(trials), size)
        )
        self.left = set(trials)
        # first trial of a unit -> (trials in it, payload)
        self.payloads: dict[int, tuple[int, dict]] = {}
        self.executed: Counter = Counter()  # pid -> trials completed there
        self.timeouts: Counter = Counter()  # trial -> deadlines it alone ran past
        self.rebuilds = 0
        self.here, self.campaign_hash = os.getpid(), config_hash(campaign.fingerprint())
        self.own: Iterator | None = None  # the batch this process is running

    def dispatch(self) -> None:
        """A batch to each idle fork (free from the moment it forks), the
        next to this process when it has none, run through
        :func:`run_batch` as a fork would, then one batch ahead to each
        fork holding only the one it runs, so none waits on this
        process's unit."""
        pending, pool = self.pending, self.pool
        while pending and pool.idle:
            self._deal()
        if self.own is None and pending:
            batch = self._tasks(pending.popleft())
            self.own = run_batch(self.campaign, batch, self.sup)
        for pid in pool.holding_one():
            if pending:
                self._deal(pid)

    def run_own(self) -> bool:
        """One unit of this process's batch; ``False`` once it is spent."""
        if self.own is None:
            return True
        mark = len(self.tel.tracer.records)
        results = next(self.own, None)
        if results is None:
            self.own = None
            return False
        self._finished(self.here, results)
        _attribute_own_unit(self.tel, mark, self.here, results, self.campaign_hash)
        return True

    def collect(self) -> None:
        """Every message the forks sent (waiting for one only when this
        process has no batch).  A boot counts as its "ready" is read
        (``campaign.worker_boots``): a fork still booting when the run
        ends counts in the run that next reads the pool."""
        msg = self.pool.poll(0.0 if self.own is not None else 0.05)
        while msg is not None:
            kind, pid, body = msg
            if kind == "ready":
                if self.tel.active:
                    self.tel.metrics.counter("campaign.worker_boots").add()
            elif kind == "done":
                # Never of a trial served before: a killed worker's
                # pipe is dropped unread, and what a dead one still
                # delivered is off its books before they are re-queued.
                results, payload = body
                self._finished(pid, results)
                if payload is not None:
                    self.payloads[results[0][0]] = (len(results), payload)
            msg = self.pool.poll(0.0)

    def supervise(self) -> None:
        """Reap dead forks and SIGKILL those past ``trial_timeout``,
        re-queue what each held (:meth:`_requeue`) and respawn it from
        the campaign its siblings forked from; a trial that timed out
        alone more than ``max_retries`` times is quarantined."""
        pool, sup = self.pool, self.sup
        for _pid, held in pool.reap_dead():
            self._requeue(held)
            self._replace_worker()
        for pid, held in pool.expired(time.monotonic(), sup.trial_timeout):
            pool.kill_worker(pid)
            if len(held.unit) == 1:
                trial, attempt = held.unit[0]
                self.timeouts[trial] += 1
                if self.timeouts[trial] > sup.max_retries:
                    self.left.discard(trial)
                    exc = TrialTimeoutError(f"trial exceeded {sup.trial_timeout:g}s")
                    record = self.campaign._quarantine_record(trial, exc)
                    self.accept(trial, record, attempt + 1, pid)
            self._requeue(held)
            self._replace_worker()

    def give_up(self) -> None:
        """Abandon the pool, in-flight units included (their workers may
        be the problem; forks that never boot end here)."""
        if self.tel.active:
            self.tel.metrics.counter("campaign.pool_degraded").add()
        for held in self.pool.in_flight.values():
            self._requeue(held)
        self.pool.close()

    def finish(self) -> list[tuple[int, int]]:
        """Steals counted, payloads merged: the pairs left unfinished."""
        executed = self.executed
        if self.tel.active and executed:
            # Work actually stolen: completions beyond an even static
            # split.  Zero when every worker served exactly its share.
            fair = math.ceil(sum(executed.values()) / max(1, self.n_workers))
            steals = sum(max(0, n - fair) for n in executed.values())
            self.tel.metrics.counter("campaign.steals").add(steals)
        _merge_worker_payloads(self.payloads, self.campaign_hash)
        return [(trial, self.attempts[trial]) for trial in sorted(self.left)]

    def _tasks(self, batch: list[int]) -> list[tuple[int, int]]:
        return [(trial, self.attempts[trial]) for trial in batch]

    def _deal(self, pid: int | None = None) -> None:
        batch = self.pending.popleft()
        self.pool.dispatch(batch, (self._tasks(batch), self.sup), pid)

    def _finished(self, pid: int, results: list) -> None:
        self.executed[pid] += len(results)
        for trial, record, n_attempts in results:
            self.left.discard(trial)
            self.accept(trial, record, n_attempts, pid)

    def _requeue(self, held: _Held | None) -> None:
        """A lost fork's running batch back one trial per batch (a
        poisonous trial must not take its siblings down twice), the
        in-flight unit's attempts bumped (first-attempt chaos does not
        strike again), and the batches queued behind it whole."""
        if held is None:
            return
        for untouched in reversed(held.tasks[1:]):
            self.pending.appendleft(sorted(untouched))
        in_flight = dict(held.unit)
        for trial in sorted(held.tasks[0] & self.left, reverse=True):
            if trial in in_flight:
                self.attempts[trial] = in_flight[trial] + 1
                if self.tel.active:
                    self.tel.metrics.counter("campaign.retries").add()
            self.pending.appendleft([trial])

    def _replace_worker(self) -> None:
        """One replacement, forked while ``_MAX_POOL_REBUILDS`` lasts."""
        self.rebuilds += 1
        if self.rebuilds <= _MAX_POOL_REBUILDS:
            self.pool.spawn_worker(partial(_boot_worker, self.campaign))


def _attribution(campaign_hash: str, pid: int, first: int, n_trials: int) -> dict:
    """The attributes a unit's spans carry: the campaign, the process
    that ran the unit and, where the unit was one trial's, the trial."""
    attrs = {"campaign_hash": campaign_hash, "worker_pid": pid}
    if n_trials == 1:
        attrs["trial"] = first
    return attrs


def _attribute_own_unit(
    tel, mark: int, pid: int, results: list, campaign_hash: str
) -> None:
    """Attribute one unit of a pooled campaign this process (``pid``)
    ran as a fork's is attributed at merge: its spans — those recorded
    since ``mark`` — and its flight records carry the pid."""
    if tel.active:
        attrs = _attribution(campaign_hash, pid, results[0][0], len(results))
        for span in tel.tracer.records[mark:]:
            span.attrs.update(attrs)
    recorder = _flight()
    if recorder.active:
        for trial, *_ in results:
            if trial in recorder.completed:
                recorder.completed[trial]["worker_pid"] = pid


def _merge_worker_payloads(
    payloads: dict[int, tuple[int, dict]], campaign_hash: str
) -> None:
    """Fold what the forks observed into this process's telemetry and
    flight recorder.  ``payloads`` holds ``(trials in the unit,
    payload)`` under the first trial of the unit each came with and is
    merged in that order, so the merged stream is deterministic
    regardless of which worker (or pool generation) served which unit;
    adopted spans are attributed with ``(campaign_hash, worker_pid)``,
    and ``trial`` where the unit was one trial's, and flight records
    with ``worker_pid``.  Workers fork with this process's telemetry
    and recorder switches, so a payload holds what is merged here."""
    tel, recorder = _telemetry(), _flight()
    wall_minus_perf = time.time() - time.perf_counter()
    for trial in sorted(payloads):
        n_trials, payload = payloads[trial]
        pid = payload["pid"]
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
            tel.tracer.adopt(
                spans,
                extra_attrs=_attribution(campaign_hash, pid, trial, n_trials),
            )
        if recorder.active:
            for record in payload["flight"]:
                record["worker_pid"] = pid
            recorder.adopt(payload["flight"])
