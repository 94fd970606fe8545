"""Process and pipe mechanics of a campaign's worker pool.

One thing lives here, and no policy: the *pre-forked persistent pool*
that hands batches of work to whichever worker frees up first and
notices when one dies or outlasts its deadline.  A worker is a ``fork``
of the campaign's process, so it runs the very campaign and engine the
parent holds — weights, hooks, golden passes — sharing their pages
copy-on-write.  The pool counts only its forks (a campaign run with
``n_workers`` processes forks ``n_workers - 1``), and a busy worker can
be handed one task more, queued behind the one it runs.  What a batch
holds, who runs it, what is retried, what is quarantined and when the
pool is given up are :mod:`repro.fi.executor`'s; the only thing this
module knows about a task is which trial numbers it covers.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable

__all__ = ["CampaignPool"]


def _pool_worker_main(boot: Callable, task_q, result_conn) -> None:
    """Persistent pool worker: boot once, then serve tasks until told to stop.

    ``boot`` is inherited through ``fork`` — never pickled — and runs
    once in the child; it returns ``serve(task, send)``, which works one
    task off and reports through ``send(kind, body)``.  Messages on
    ``result_conn`` are ``(kind, pid, body)``:

    * ``("ready", pid, None)`` — booted (a worker is dealt tasks from
      the moment it forks: the first may already wait in its queue);
    * ``("start", pid, ([(trial, attempt), ...], when))`` — began one
      unit of the task at ``when`` on the (system-wide) monotonic
      clock: the unit's deadline runs from there, so queue latency,
      boot time and a supervisor busy with its own unit never count
      against it;
    * ``("done", pid, ([(trial, record, attempts), ...], payload))`` —
      that unit's results.  A task is finished when every trial it was
      dispatched with has been reported done; a worker serves its tasks
      in the order it was handed them.

    ``result_conn`` is this worker's *private* pipe to the supervisor.
    A shared results queue would serialize all workers through one
    write lock — and a worker SIGKILLed (deadline) or ``os._exit``ed
    (crash) while holding it would orphan the lock and wedge every
    surviving sibling mid-``put``, deadlocking the whole pool.  With
    one single-writer pipe per worker, a death can corrupt at most its
    own channel, which the supervisor detects as EOF and discards.

    The loop exits on a ``None`` sentinel or a closed queue or pipe.
    """
    serve = boot()
    pid = os.getpid()

    def send(kind: str, body=None) -> None:
        result_conn.send((kind, pid, body))

    try:
        send("ready")
        while (task := task_q.get()) is not None:
            serve(task, send)
    except (EOFError, OSError, KeyboardInterrupt):
        return


@dataclass
class _Held:
    """What one busy worker holds of the tasks it was handed."""

    tasks: list[set[int]] = field(default_factory=list)
    """Trials not reported done yet, per task, in the order the tasks
    were handed over — the order the worker serves them in, so only
    the first can have begun."""
    unit: list[tuple[int, int]] = field(default_factory=list)
    """``(trial, attempt)`` pairs of the unit the worker last reported
    starting; empty between units."""
    started: float | None = None
    """When that unit started, on the monotonic clock."""

    @property
    def left(self) -> set[int]:
        """Trials of its tasks not reported done yet."""
        return set().union(*self.tasks)


def _terminate_procs(workers: dict) -> None:
    """GC-time backstop: SIGTERM any pool worker still alive."""
    for proc, _task_q in list(workers.values()):
        if proc.is_alive():
            proc.terminate()


class CampaignPool:
    """Pre-forked persistent worker pool with parent-side dispatch.

    Workers are forked once and then serve tasks until the campaign
    ends.  The parent assigns the next pending task to whichever worker
    reports free first — dynamic dispatch is the work-stealing
    behaviour (an idle worker "steals" what a static chunking would
    have given to a slower sibling) without any shared lock, and it
    gives the supervisor exact trial→worker attribution for deadlines
    and death accounting.
    """

    def __init__(self, n_workers: int, boot: Callable) -> None:
        """Fork ``n_workers`` workers, each running ``boot`` first."""
        # fork (not spawn): a worker inherits ``boot`` — and the campaign
        # and engine it holds — by memory, never pickled, its weight
        # pages shared with this process's until someone writes them.
        self._ctx = mp.get_context("fork")
        self.n_workers = n_workers
        # One private result pipe per worker (single writer, no shared
        # lock): a worker killed mid-send can only corrupt its own
        # channel, never block a sibling's results.
        self._conns: dict[int, object] = {}  # pid -> parent-side reader
        self._salvaged: deque = deque()  # drained off dead conns, noted
        self._workers: dict[int, tuple] = {}  # pid -> (proc, task_q)
        self.idle: set[int] = set()
        self.ready: set[int] = set()  # announced themselves
        self.in_flight: dict[int, _Held] = {}
        self.closed = False
        self._finalizer = weakref.finalize(
            self, _terminate_procs, self._workers
        )
        for _ in range(n_workers):
            self.spawn_worker(boot)

    # -- lifecycle ---------------------------------------------------------

    def spawn_worker(self, boot: Callable) -> int:
        """Fork one worker, idle at once — a task dispatched to it waits
        in its queue while it boots, so nobody waits on a boot — and
        announcing itself with a "ready" message once booted.

        ``boot`` is not kept: it holds the campaign, and a pool
        that held it would tie the campaign into a reference cycle and
        put off the finalizer that reaps the workers."""
        task_q = self._ctx.SimpleQueue()
        r_conn, w_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(boot, task_q, w_conn),
            daemon=True,
        )
        proc.start()
        # Drop the parent's copy of the write end: the worker must be
        # the *only* writer so its death EOFs the reader.  (Forking the
        # next worker after this close also keeps siblings from
        # inheriting each other's write ends.)
        w_conn.close()
        self._workers[proc.pid] = (proc, task_q)
        self._conns[proc.pid] = r_conn
        self.idle.add(proc.pid)
        return proc.pid

    def close(self) -> None:
        """Shut the pool down: sentinel, short grace, then kill."""
        if self.closed:
            return
        self.closed = True
        for _pid, (_proc, task_q) in list(self._workers.items()):
            try:
                task_q.put(None)
            except (OSError, ValueError):
                pass
        grace = time.monotonic() + 1.0
        for _pid, (proc, _q) in list(self._workers.items()):
            proc.join(max(0.0, grace - time.monotonic()))
        for _pid, (proc, _q) in list(self._workers.items()):
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)
        self._workers.clear()
        self.idle.clear()
        self.ready.clear()
        self.in_flight.clear()
        for pid in list(self._conns):
            self._drop_conn(pid)
        self._salvaged.clear()
        self._finalizer.detach()

    # -- scheduling --------------------------------------------------------

    def worker_pids(self) -> list[int]:
        return sorted(self._workers)

    def dispatch(self, trials, task, pid: int | None = None) -> int:
        """Hand ``task``, which covers ``trials``, to an idle worker — or
        queue it behind what busy worker ``pid`` holds; returns the
        worker's pid."""
        if pid is None:
            pid = self.idle.pop()
            self.in_flight[pid] = _Held()
        self.in_flight[pid].tasks.append(set(trials))
        self._workers[pid][1].put(task)
        return pid

    def holding_one(self) -> list[int]:
        """Busy workers with no task queued behind the one they run."""
        return sorted(pid for pid, held in self.in_flight.items() if len(held.tasks) == 1)

    def _recv(self, timeout: float):
        """One message from any worker pipe (or ``None`` on timeout).

        A readable connection that raises on ``recv`` belongs to a
        worker that died mid-frame; its channel is discarded — the
        process itself is collected by ``reap_dead``.
        """
        if not self._conns:
            time.sleep(timeout)
            return None
        readable = mp_connection.wait(list(self._conns.values()), timeout)
        for pid, conn in list(self._conns.items()):
            if conn in readable:
                try:
                    return conn.recv()
                except (EOFError, OSError):
                    self._drop_conn(pid)
        return None

    def _drop_conn(self, pid: int) -> None:
        conn = self._conns.pop(pid, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass

    def _drain_conn(self, pid: int) -> None:
        """Salvage any fully-delivered messages a dead worker left in
        its pipe before closing — a "start" it never outlived, a final
        "done" racing the death.  They are noted at once, so what the
        worker is found to have held is what it really held, and handed
        to the supervisor by later ``poll`` calls."""
        conn = self._conns.get(pid)
        try:
            while conn is not None and conn.poll(0):
                msg = conn.recv()
                self._note(msg)
                self._salvaged.append(msg)
        except (EOFError, OSError):
            pass
        self._drop_conn(pid)

    def poll(self, timeout: float):
        """Next worker message (or ``None`` on timeout), with pool
        bookkeeping (idle/ready/in-flight transitions) already applied."""
        if self._salvaged:
            return self._salvaged.popleft()
        msg = self._recv(timeout)
        if msg is not None:
            self._note(msg)
        return msg

    def _note(self, msg) -> None:
        kind, pid, body = msg
        held = self.in_flight.get(pid)
        if kind == "ready" and pid in self._workers:
            self.ready.add(pid)
        elif kind == "start" and held is not None:
            held.unit, held.started = body
        elif kind == "done" and held is not None:
            held.unit, held.started = [], None
            done = {trial for trial, *_ in body[0]}
            held.tasks = [trials - done for trials in held.tasks if trials - done]
            if not held.tasks:
                del self.in_flight[pid]
                self.idle.add(pid)

    def reap_dead(self) -> list[tuple[int, _Held | None]]:
        """Collect dead workers; returns ``[(pid, what it held?)]``."""
        dead = []
        for pid, (proc, _task_q) in list(self._workers.items()):
            if proc.is_alive():
                continue
            proc.join()
            self._drain_conn(pid)
            self.idle.discard(pid)
            self.ready.discard(pid)
            del self._workers[pid]
            dead.append((pid, self.in_flight.pop(pid, None)))
        return dead

    def expired(self, now: float, timeout: float | None) -> list[tuple[int, _Held]]:
        """Workers whose armed unit deadline has passed."""
        if not timeout:
            return []
        return [
            (pid, held)
            for pid, held in self.in_flight.items()
            if held.started is not None and now - held.started > timeout
        ]

    def kill_worker(self, pid: int) -> None:
        """SIGKILL one worker (stuck mid-unit) and forget it."""
        entry = self._workers.pop(pid, None)
        if entry is None:
            return
        proc, _task_q = entry
        proc.kill()
        proc.join(5.0)
        # No salvage here: the worker was killed *because* its unit is
        # suspect; anything left on its pipe is stale.
        self._drop_conn(pid)
        self.in_flight.pop(pid, None)
        self.idle.discard(pid)
        self.ready.discard(pid)
