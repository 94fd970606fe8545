"""Process and pipe mechanics of a campaign's worker pool.

Two things live here, and no policy: the *shared weight arena* — the
campaign engine's weight planes exported once into
memory-mapped read-only files that every worker attaches zero-copy, so
N workers share one physical copy of the model through the page cache —
and the *pre-forked persistent pool* that hands batches of work to
whichever worker frees up first and notices when one dies or outlasts
its deadline.  What a batch holds, what is retried, what is quarantined
and when the pool is given up are :mod:`repro.fi.executor`'s; the only
thing this module knows about a task is which trial numbers it covers.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import tempfile
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Callable

from repro.inference.engine import InferenceEngine
from repro.model.params import arena_nbytes

__all__ = ["CampaignPool"]


class _SharedArena:
    """One campaign's exported weight planes on disk.

    Exported exactly once per campaign into a temp directory of
    ``.npy``-layout mmap arenas; every pool worker — initial or
    respawned — attaches to the same files, so weights are shipped
    zero times regardless of how often the pool rebuilds.  The
    directory is removed when the campaign is garbage collected
    (workers keep their mappings alive through the open inodes).
    """

    def __init__(self, engine: InferenceEngine):
        self.root = Path(tempfile.mkdtemp(prefix="repro-arena-"))
        engine.export_shared(self.root / "target")
        self.nbytes = arena_nbytes(self.root / "target")
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, str(self.root), True
        )

    def close(self) -> None:
        self._finalizer()


def _pool_worker_main(boot: Callable, task_q, result_conn) -> None:
    """Persistent pool worker: boot once, then serve tasks until told to stop.

    ``boot`` is inherited through ``fork`` — never pickled — and runs
    once in the child; it returns ``serve(task, send)``, which works one
    task off and reports through ``send(kind, body)``.  Messages on
    ``result_conn`` are ``(kind, pid, body)``:

    * ``("ready", pid, None)`` — booted and idle;
    * ``("start", pid, [(trial, attempt), ...])`` — began one unit of the
      task (the supervisor arms its deadline here, so queue latency and
      boot time never count against it);
    * ``("done", pid, ([(trial, record, attempts), ...], payload))`` —
      that unit's results.  A task is finished when every trial it was
      dispatched with has been reported done.

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
    """What one busy worker holds of the task it was handed."""

    left: set[int]
    """Trials of the task not reported done yet."""
    unit: list[tuple[int, int]] = field(default_factory=list)
    """``(trial, attempt)`` pairs of the unit the worker last reported
    starting; empty between units."""
    started: float | None = None
    """When that unit started, on this process's monotonic clock."""


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
        # fork (not spawn): a worker must inherit ``boot`` by memory, so
        # the campaign it holds is never pickled, and must exist
        # before any trial runs so arena pages are shared, not duplicated.
        self._ctx = mp.get_context("fork")
        self.n_workers = n_workers
        # One private result pipe per worker (single writer, no shared
        # lock): a worker killed mid-send can only corrupt its own
        # channel, never block a sibling's results.
        self._conns: dict[int, object] = {}  # pid -> parent-side reader
        self._salvaged: deque = deque()  # drained off dead conns, noted
        self._workers: dict[int, tuple] = {}  # pid -> (proc, task_q)
        self.idle: set[int] = set()
        self._ready: set[int] = set()  # announced themselves
        self.in_flight: dict[int, _Held] = {}
        self.closed = False
        self._finalizer = weakref.finalize(
            self, _terminate_procs, self._workers
        )
        for _ in range(n_workers):
            self.spawn_worker(boot)

    # -- lifecycle ---------------------------------------------------------

    def spawn_worker(self, boot: Callable) -> int:
        """Fork one worker; it announces itself with a "ready" message.

        ``boot`` is not kept: it holds the campaign, and a pool
        that held it would tie the campaign into a reference cycle and
        put off the finalizers that reap workers and arena."""
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
        return proc.pid

    def wait_ready(self, timeout: float = 120.0) -> int:
        """Block until every forked worker attached (or died/timed out);
        returns how many did.

        Used only at spinup, when no trials are in flight — later
        readies (respawns) flow through the supervisor's normal ``poll``
        loop, and a worker that died booting is left for its
        ``reap_dead``, to be replaced within the budget like any other.
        """
        deadline = time.monotonic() + timeout
        while len(self._ready) < len(self._workers) and time.monotonic() < deadline:
            if self.poll(0.2) is None and not any(
                proc.is_alive()
                for pid, (proc, _q) in self._workers.items()
                if pid not in self._ready
            ):
                break
        return len(self._ready)

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
        self._ready.clear()
        self.in_flight.clear()
        for pid in list(self._conns):
            self._drop_conn(pid)
        self._salvaged.clear()
        self._finalizer.detach()

    # -- scheduling --------------------------------------------------------

    def worker_pids(self) -> list[int]:
        return sorted(self._workers)

    def dispatch(self, trials, task) -> int:
        """Hand ``task``, which covers ``trials``, to an idle worker;
        returns its pid."""
        pid = self.idle.pop()
        self.in_flight[pid] = _Held(left=set(trials))
        self._workers[pid][1].put(task)
        return pid

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
            self._ready.add(pid)
            self.idle.add(pid)
        elif kind == "start" and held is not None:
            held.unit, held.started = body, time.monotonic()
        elif kind == "done" and held is not None:
            held.unit, held.started = [], None
            held.left.difference_update(trial for trial, *_ in body[0])
            if not held.left:
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
            self._ready.discard(pid)
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
        self._ready.discard(pid)
