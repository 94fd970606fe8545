"""Multi-tenant streaming inference server over continuous batching.

:class:`InferenceServer` turns the library-call decode paths into a
long-running serving loop, the end-to-end setting the paper studies:

* **Mid-flight admission** — a single pump thread owns the engine and
  drives one :class:`~repro.generation.round.DecodeRound`.  Every
  scheduling round it first admits waiting requests into free
  :class:`~repro.inference.kvcache.PooledKVCache` slots (prefill, first
  token), then calls the round's ``step()`` once for all active rows.
  New prompts join *between steps* — there is no drain-and-refill
  barrier, so a long request never holds the batch hostage.
* **Streaming** — ``submit`` returns a :class:`StreamHandle`
  immediately; the pump pushes each round's tokens into the handle's
  queue, so clients iterate tokens with time-to-first-token independent
  of other requests' lengths.
* **Eager retirement** — a row that hits EOS, its token budget or a
  client cancellation is retired at round granularity and its KV slot
  released immediately, back-filling the batch from the tenant queues.
* **Admission control + fairness** — per-tenant bounded queues (shed
  with typed :class:`~repro.serve.admission.ServeRejected`), per-tenant
  in-flight caps, and smooth weighted round-robin dequeue across
  tenants (:class:`~repro.serve.admission.WeightedScheduler`), so a
  saturating tenant cannot starve a light one's TTFT.
* **Speculative serving** — constructed with a same-tokenizer ``draft``
  engine, the same round runs at ``speculation_depth``; ragged accept
  lengths retire and back-fill rows at round granularity.
* **Prompt cache** — the server owns one
  :class:`~repro.inference.kvcache.PromptCache` for its target engine,
  holding at most as many prompt tokens as its KV pool
  (``pool.n_slots * max_seq``): a request whose whole prompt was
  prefilled before starts from the stored K/V and first-token logits —
  the bits that prompt forward produced — instead of running it again.
  The round reads and fills it only for fault-free requests on an engine
  ``decode_plan`` finds nothing but observers on; the draft is not
  cached.

What stays here is what only a server has: tenant queues and the
weighted dequeue, cancellation, arming a request's KV fault before its
prompt forward, pushing tokens to handles with one timestamp per round,
and SLO telemetry.  The decode schedule and its equivalence contract —
every served stream is token-identical to a serial ``greedy_decode`` of
its prompt, whatever the admission timing — live in
:mod:`repro.generation.round`, shared with the offline decoders.  The
server is a *fault-free* serving plane: campaigns attach as a tenant
for their fault-free generative baselines
(:meth:`~repro.fi.campaign.FICampaign.attach_server`) while injected
trials keep their exact local path.

Observability (gated on the process telemetry switch): ``serve.ttft_ms``
/ ``serve.tpot_ms`` / ``serve.e2e_ms`` / ``serve.queue_depth`` /
``serve.batch_occupancy`` quantile histograms, per-tenant
``serve.tenant.<name>.*`` token/TTFT instruments, admission/shed
counters, the ``decode.free_slots`` gauge the admission loop also
admits against, and ``serve.prompt_cache.{hits,misses,evictions,
bypass.<reason>}`` with the ``serve.prompt_cache.tokens`` gauge.
"""

from __future__ import annotations

import collections
import functools
import itertools
import queue as _queue
import threading
import time
from dataclasses import dataclass, field

from repro.generation.decode import GenerationConfig
from repro.generation.round import DecodeRound, Row, check_draft
from repro.inference.engine import InferenceEngine
from repro.inference.kvcache import PooledKVCache, PromptCache
from repro.obs.runtime import telemetry as _telemetry
from repro.serve.admission import (
    ServeRejected,
    TenantConfig,
    TenantState,
    WeightedScheduler,
)

__all__ = ["InferenceServer", "StreamHandle", "ServeRejected", "TenantConfig"]

_DONE = object()
"""Stream sentinel: pushed exactly once when a request finishes."""

ADMISSION_LOG_LEN = 1024
"""How many of the latest admissions ``InferenceServer.admission_log``
keeps."""


class StreamHandle:
    """Client-side view of one submitted request.

    Iterate to stream tokens as the pump generates them (blocking), or
    call :meth:`result` to wait for completion and get the full output.
    :meth:`cancel` abandons the stream mid-generation — the pump
    retires the row at the next step boundary and frees its KV slot.

    After completion, :attr:`finish_reason` is one of ``"eos"``,
    ``"length"``, ``"cancelled"`` or ``"shutdown"``, and
    :attr:`ttft_s` / :attr:`latency_s` / :attr:`tokens` carry the
    request's timings and output.
    """

    def __init__(self, request: "_Request") -> None:
        self._request = request
        self._stream: _queue.SimpleQueue = _queue.SimpleQueue()
        self._done = threading.Event()
        self.tokens: list[int] = []
        self.finish_reason: str | None = None
        self.ttft_s: float | None = None
        self.latency_s: float | None = None
        self.kv_fired: bool = False
        """For requests submitted with a ``kv_fault``: whether the armed
        KV fault actually struck before the stream finished."""

    # -- client API ------------------------------------------------------------

    @property
    def tenant(self) -> str:
        return self._request.tenant

    @property
    def request_id(self) -> int:
        return self._request.id

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def __iter__(self):
        """Yield token ids as they arrive; returns at end of stream."""
        while True:
            item = self._stream.get()
            if item is _DONE:
                return
            yield item

    def result(self, timeout: float | None = None) -> list[int]:
        """Block until the request finishes; returns all output tokens."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self._request.id} not finished within {timeout}s"
            )
        return list(self.tokens)

    def cancel(self) -> None:
        """Abandon the stream; the pump frees the row's slot at the
        next step boundary.  Idempotent, safe at any lifecycle stage."""
        self._request.cancelled = True

    # -- pump-side (single-threaded) -------------------------------------------

    def _push(self, token: int, now: float) -> None:
        if self.ttft_s is None:
            self.ttft_s = now - self._request.t_submit
        self.tokens.append(token)
        self._stream.put(token)

    def _finish(self, reason: str, now: float) -> None:
        self.finish_reason = reason
        self.latency_s = now - self._request.t_submit
        self._stream.put(_DONE)
        self._done.set()


@dataclass
class _Request:
    """Pump-side request state: queue entry, then the ``key`` of its
    :class:`~repro.generation.round.Row`."""

    id: int
    tenant: str
    prompt: list[int]
    max_new: int
    t_submit: float
    handle: StreamHandle = field(init=False)
    cancelled: bool = False
    kv_fault: "object | None" = None
    """Optional :class:`~repro.fi.sites.FaultSite` (a KV fault model):
    armed against this request's pool slot at prefill, disarmed and
    restored at retirement."""
    kv_injector: "object | None" = None

    def __post_init__(self) -> None:
        self.handle = StreamHandle(self)


class InferenceServer:
    """Long-running continuous-batch serving loop around one engine.

    The engine is owned by the pump thread while the server is running
    — clients interact only through :meth:`submit` and the returned
    handles.  ``config`` must be greedy (``num_beams == 1``); per-
    request token budgets default to ``config.max_new_tokens``.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        config: GenerationConfig,
        max_batch: int = 8,
        tenants: "tuple[TenantConfig, ...] | list[TenantConfig]" = (),
        default_tenant: str = "default",
        pool: PooledKVCache | None = None,
        idle_wait_s: float = 0.05,
        draft: InferenceEngine | None = None,
        speculation_depth: int = 4,
        draft_pool: PooledKVCache | None = None,
    ) -> None:
        if config.num_beams != 1:
            raise ValueError("the serving loop decodes greedily (num_beams=1)")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if draft is not None:
            check_draft(engine, draft, speculation_depth)
        self.engine = engine
        self.config = config
        self.pool = pool if pool is not None else engine.new_pool(max_batch)
        self.max_batch = min(max_batch, self.pool.n_slots)
        self.draft = draft
        self.speculation_depth = speculation_depth
        self.draft_pool = None
        if draft is not None:
            self.draft_pool = (
                draft_pool if draft_pool is not None
                else draft.new_pool(self.max_batch)
            )
            # A row holds a slot in each pool: the narrower one caps
            # the batch.
            self.max_batch = min(self.max_batch, self.draft_pool.n_slots)
        self.prompt_cache = PromptCache(
            self.pool.n_slots * engine.config.max_seq
        )
        """Whole prompts this server has prefilled (target engine only),
        kept across ``stop`` / ``start``."""
        self._round = DecodeRound(
            engine, self.pool, config.eos_id,
            draft=draft, draft_pool=self.draft_pool, depth=speculation_depth,
            prompt_cache=self.prompt_cache,
        )
        self.default_tenant = default_tenant
        self._sched = WeightedScheduler()
        for tenant in tenants:
            self._sched.add(tenant)
        # RLock: retirement paths (`_finish`) run both outside the lock
        # (pump step loop) and under it (cancelled-while-queued requests
        # discovered inside `_dequeue`).
        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        self._ids = itertools.count()
        self._thread: threading.Thread | None = None
        self._stop = False
        self._drain = True
        self._idle_wait_s = idle_wait_s
        self.admission_log: collections.deque[tuple[str, int]] = (
            collections.deque(maxlen=ADMISSION_LOG_LEN)
        )
        """``(tenant, request_id)`` of the latest admissions, oldest
        first — the observable the fairness tests read."""
        self._kv_fault_inflight = 0
        """Fault-carrying requests currently queued or active (at most
        one — the engine holds a single armed KV fault)."""

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "InferenceServer":
        if self.running:
            return self
        self._stop = False
        self._thread = threading.Thread(
            target=self._pump, name="repro-serve-pump", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the pump.  ``drain=True`` serves all queued and active
        requests first; ``drain=False`` terminates them with finish
        reason ``"shutdown"`` (streams still end cleanly — no client
        ever blocks forever)."""
        with self._work:
            self._stop = True
            self._drain = drain
            self._work.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        # A server that was never started still owes queued handles a
        # clean termination.
        self._finalize_pending("shutdown")

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop(drain=not any(exc))

    # -- tenants ---------------------------------------------------------------

    def add_tenant(self, config: TenantConfig) -> None:
        with self._lock:
            self._sched.add(config)

    def ensure_tenant(self, name: str, **kw) -> None:
        """Register ``name`` with default knobs if not already present."""
        with self._lock:
            if self._sched.get(name) is None:
                self._sched.add(TenantConfig(name, **kw))

    def tenant_stats(self) -> dict[str, dict]:
        """Per-tenant submitted/completed/rejected/token tallies."""
        with self._lock:
            return {
                t.name: {
                    "submitted": t.submitted,
                    "completed": t.completed,
                    "rejected": t.rejected,
                    "tokens": t.tokens,
                    "queued": len(t.queue),
                    "in_flight": t.in_flight,
                }
                for t in self._sched.tenants()
            }

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        prompt_ids: list[int],
        tenant: str | None = None,
        max_new_tokens: int | None = None,
        kv_fault: "object | None" = None,
    ) -> StreamHandle:
        """Enqueue a prompt; returns its stream handle immediately.

        Raises :class:`ServeRejected` when the server is shutting down,
        the prompt cannot fit the context window, or the tenant's
        bounded queue is full (overload shed).

        ``kv_fault`` optionally attaches a KV-model
        :class:`~repro.fi.sites.FaultSite` to the request: the pump
        arms a :class:`~repro.fi.injector.KVFaultInjector` pinned to
        this request's pool slot for the request's lifetime, so the
        fault decodes mid-batch alongside other tenants' streams while
        its blast radius stays scoped to this one sequence.  At most
        one fault-carrying request may be in flight (the engine holds a
        single armed KV fault); a second is rejected with reason
        ``"kv_fault_busy"``.  :attr:`StreamHandle.kv_fired` reports
        whether the fault struck.
        """
        name = tenant or self.default_tenant
        if not prompt_ids:
            raise ValueError("prompt must contain at least one token")
        if kv_fault is not None and not kv_fault.fault_model.is_kv:
            raise ValueError(
                f"submit(kv_fault=...) takes a KV fault model,"
                f" got {kv_fault.fault_model.value}"
            )
        budget = (
            self.config.max_new_tokens
            if max_new_tokens is None
            else max_new_tokens
        )
        if budget < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if len(prompt_ids) + budget > self.engine.config.max_seq:
            raise ServeRejected(
                name,
                "prompt_too_long",
                f"{len(prompt_ids)} prompt + {budget} budget >"
                f" {self.engine.config.max_seq} context",
            )
        with self._work:
            if self._stop:
                raise ServeRejected(name, "shutdown")
            if kv_fault is not None and self._kv_fault_inflight > 0:
                raise ServeRejected(
                    name,
                    "kv_fault_busy",
                    "another fault-carrying request is already in flight"
                    " (the engine holds one armed KV fault)",
                )
            state = self._sched.get(name)
            if state is None:
                state = self._sched.add(TenantConfig(name))
            if len(state.queue) >= state.config.max_queue:
                state.rejected += 1
                tel = _telemetry()
                if tel.active:
                    tel.metrics.counter("serve.rejected").add()
                raise ServeRejected(
                    name,
                    "queue_full",
                    f"{len(state.queue)} waiting >= max_queue"
                    f" {state.config.max_queue}",
                )
            request = _Request(
                id=next(self._ids),
                tenant=name,
                prompt=list(prompt_ids),
                max_new=budget,
                t_submit=time.perf_counter(),
                kv_fault=kv_fault,
            )
            if kv_fault is not None:
                self._kv_fault_inflight += 1
            state.queue.append(request)
            state.submitted += 1
            self._work.notify_all()
        return request.handle

    # -- pump ------------------------------------------------------------------

    def _pump(self) -> None:
        try:
            while True:
                with self._work:
                    while (
                        not self._stop
                        and not self._round.rows
                        and self._sched.queued() == 0
                    ):
                        self._work.wait(self._idle_wait_s)
                    if self._stop and (
                        not self._drain
                        or (not self._round.rows and self._sched.queued() == 0)
                    ):
                        break
                    tel = _telemetry()
                    if tel.active:
                        tel.metrics.histogram("serve.queue_depth").observe(
                            self._sched.queued()
                        )
                self._admit()
                self._step()
        finally:
            # Never strand a stream: whatever remains (abrupt stop,
            # engine exception) terminates with a clean sentinel, and a
            # dead pump refuses new work instead of queueing it forever.
            with self._lock:
                self._stop = True
            self._finalize_pending("shutdown")

    def _dequeue(self) -> _Request | None:
        """One weighted-round-robin admission pick (lock held by caller)."""
        while True:
            state = self._sched.pick()
            if state is None:
                return None
            request = state.queue.popleft()
            if request.cancelled:
                # Abandoned while queued: terminate without a slot.
                self._finish(request, "cancelled", admitted=False)
                continue
            state.in_flight += 1
            self.admission_log.append((state.name, request.id))
            return request

    def _admit(self) -> None:
        """Back-fill the batch from the tenant queues (mid-flight).

        Admission is capped by batch width *and real KV capacity* in
        both pools — a slot freed by an eager retirement this round is
        immediately admissible against.
        """
        rnd = self._round
        while len(rnd.rows) < self.max_batch and rnd.has_room():
            with self._lock:
                request = self._dequeue()
            if request is None:
                break
            arm = None
            if request.kv_fault is not None:
                arm = functools.partial(self._arm_kv_fault, request)
            try:
                event = rnd.admit(
                    request, request.prompt, request.max_new,
                    before_prefill=arm,
                )
            except BaseException:
                # Dequeued but not yet a row: nothing else would finish
                # this handle.  The round already released its slots.
                self._finish(request, "shutdown")
                raise
            self._deliver([event])
        tel = _telemetry()
        if tel.active:
            tel.metrics.gauge("decode.free_slots").set(self.pool.n_free)

    def _arm_kv_fault(self, request: _Request, row: Row) -> None:
        """Arm ``request``'s KV fault on its row's slot, before its
        prompt forward so iteration-0 sites corrupt prefill K/V.  Pinning
        to the slot's cache views scopes the strike to this one sequence."""
        # Lazy import: the serving layer is usable without the FI
        # package, and fi imports the engine this module wraps.
        from repro.fi.injector import KVFaultInjector

        request.kv_injector = KVFaultInjector(
            self.engine, request.kv_fault, caches=row.caches
        ).__enter__()

    def _step(self) -> None:
        """Advance every active row one round; retire eagerly."""
        rnd = self._round
        # Cancellations observed at round granularity: drop the row (and
        # its slots) before paying for its forward.
        for row in [row for row in rnd.rows if row.key.cancelled]:
            rnd.drop(row)
            self._finish(row.key, "cancelled")
        if not rnd.rows:
            return
        tel = _telemetry()
        if tel.active:
            tel.metrics.histogram("serve.batch_occupancy").observe(
                len(rnd.rows)
            )
        events = rnd.step()
        if tel.active and self.draft is not None:
            for row, _, _ in events:
                tel.metrics.histogram(
                    f"serve.tenant.{row.key.tenant}.spec_accept_len"
                ).observe(row.accepted)
        self._deliver(events)

    def _deliver(self, events: list) -> None:
        """Stream a round's tokens (one timestamp for the round) and
        retire the rows it finished.  The round has already released a
        finished row's slots; nothing can acquire them before this
        returns (one pump thread), so disarming a KV injector here still
        restores the bits before the next tenant sees the slot."""
        now = time.perf_counter()
        for row, tokens, reason in events:
            request = row.key
            for token in tokens:
                request.handle._push(token, now)
            if reason is not None:
                self._finish(request, reason)

    def _finish(
        self, request: _Request, reason: str, admitted: bool = True
    ) -> None:
        """Retire a request whose slots the round has released: disarm
        its KV fault, terminate its stream, record SLO telemetry."""
        if request.kv_injector is not None:
            # __exit__ restores the flipped bits so the next tenant
            # inherits a clean cache, and clears engine.kv_fault for the
            # next fault-carrying request.
            request.handle.kv_fired = bool(request.kv_injector.fired)
            request.kv_injector.__exit__(None, None, None)
            request.kv_injector = None
        if request.kv_fault is not None:
            with self._lock:
                self._kv_fault_inflight -= 1
            request.kv_fault = None
        now = time.perf_counter()
        handle = request.handle
        handle._finish(reason, now)
        with self._lock:
            state = self._sched.get(request.tenant)
            if state is not None:
                if admitted:
                    state.in_flight -= 1
                    state.completed += 1
                state.tokens += len(handle.tokens)
        tel = _telemetry()
        if not tel.active:
            return
        metrics = tel.metrics
        metrics.counter("serve.completed").add()
        metrics.counter(f"serve.finish.{reason}").add()
        metrics.counter("serve.tokens").add(len(handle.tokens))
        metrics.counter(f"serve.tenant.{request.tenant}.tokens").add(
            len(handle.tokens)
        )
        metrics.counter(f"serve.tenant.{request.tenant}.requests").add()
        metrics.histogram("serve.e2e_ms").observe(handle.latency_s * 1e3)
        if handle.ttft_s is not None:
            metrics.histogram("serve.ttft_ms").observe(handle.ttft_s * 1e3)
            metrics.histogram(
                f"serve.tenant.{request.tenant}.ttft_ms"
            ).observe(handle.ttft_s * 1e3)
        if len(handle.tokens) > 1:
            tpot = (handle.latency_s - handle.ttft_s) / (
                len(handle.tokens) - 1
            )
            metrics.histogram("serve.tpot_ms").observe(tpot * 1e3)
        metrics.gauge("decode.free_slots").set(self.pool.n_free)

    def _finalize_pending(self, reason: str) -> None:
        """Terminate every queued and active request (pump exit path)."""
        rnd = self._round
        with self._lock:
            leftovers: list[tuple[_Request, bool]] = []
            for row in list(rnd.rows):
                rnd.drop(row)
                leftovers.append((row.key, True))
            for state in self._sched.tenants():
                while state.queue:
                    leftovers.append((state.queue.popleft(), False))
        for request, admitted in leftovers:
            self._finish(request, reason, admitted=admitted)
