"""One decode round: the stepper every batched decode path drives.

Continuous batching, batched speculation and the serving pump are the
same scheduler seen at different depths, so there is exactly one copy:

* :func:`decode_plan` — the one decode-path decision.  Given what is
  armed on the target (and the draft, if any) it names the fastest path
  that cannot change results, and why.
* :class:`DecodeRound` — admit → propose → verify → commit / rollback →
  retire over pooled KV slots.  Without a draft the proposal depth is 0
  and the verify *is* one ``forward_step_batch`` over all rows (each
  row shape-identical to its serial ``Session.step``, so armed
  row-scoped faults strike bit-identically at any width).  Every target
  forward of a round tags row ``i`` with ``Row.id`` — its admission
  number, which unlike its position never shifts when a sibling retires
  — as ``HookContext.batch_row``, so an injector pinned to one sequence
  stays on it; so does the prompt forward of an admission that arms a
  fault of its own (``before_prefill``), so a sibling's injector cannot
  strike it instead.  With a draft, the draft
  proposes up to ``depth`` tokens per row (a grouped catch-up chunk plus
  ``depth - 1`` batched steps over its own pool), the target verifies
  each row's ``pending + proposals`` chunk in one
  ``forward_chunk_batch`` per distinct chunk length, accepted prefixes
  commit and rejects roll back by per-slot ``KVCache.truncate`` — which
  fires the cache's watchers, so a slot-pinned KV-fault injector
  restores its bits and re-arms without touching sibling rows.
* :func:`decode_to_completion` — "fill, ``step()`` until empty": what
  the offline decoders do with a round.  The server pump calls
  :meth:`DecodeRound.step` once per scheduling round instead.

**Equivalence contract**: every emitted token is an argmax of *target*
logits over the true emitted prefix, so no schedule can change which
tokens are greedy-optimal — rows are token-identical to serial
``greedy_decode`` at any depth, width and admission timing.  Without a
draft the contract is stronger: the engine's batched entries are
*row-exact* (one product per sequence, see
``InferenceEngine._linear``), so each row's logits and K/V are
**bit-identical to serial at any width** — which is what lets a campaign
decode injected trials side by side: an injected error is amplified, not
averaged out, so trials may share a forward only if every row's bits are
exactly the serial ones.

**Gate matrix** — the truth table of :func:`decode_plan`:

================================  ============  ==========  ================
armed on the target               with a draft  no draft    reason
================================  ============  ==========  ================
nothing                           composed      batched     clean
observer-only hooks               composed      batched     observer_hooks
row-scoped perturbing hooks       batched       batched     row_scoped_hooks
KV fault (pinned by cache)        batched       batched     kv_fault
accumulator fault (per GEMM row)  batched       batched     acc_fault
activation capture                serial        serial      capture
weight fault                      serial        serial      weight_fault
hooks not all row-scoped          serial        serial      unscoped_hooks
================================  ============  ==========  ================

Speculation is gated strictly: a verify chunk covers several generation
iterations under one iteration tag, so anything iteration-pinned would
mis-fire, and a chunked forward visits different (iteration, tensor)
pairs than the serial loop.  Batching only needs faults that scope
themselves to one sequence.  Capture records per-sequence tensors, so
it forces the serial reference loop; so do weight faults, whose gate was
set when a batched GEMM differed from the serial one in the last bits (a
corrupted weight amplifies such differences).  That row now concerns the
*decode loop* only: option scoring under a weight fault is row-exact — a
campaign scores a multiple-choice trial's options as rows of one
``forward_chunk_batch`` under the armed fault
(:class:`repro.fi.golden.GoldenOptions`, counted as
``decode.plan.option_rows.<reason>``), bit for bit the per-option
forwards.  The *draft* is held to the speculation bar too
(``draft_<reason>``, path = the target's no-draft path): its corruption
is masked by construction, but the non-speculative paths run without
it, so whether a draft fault even fires would depend on the path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.inference.engine import InferenceEngine, Session
from repro.inference.kvcache import KVCache, PooledKVCache, PromptCache
from repro.obs.runtime import telemetry as _telemetry

__all__ = ["DecodeRound", "Row", "decode_plan", "decode_to_completion"]


# -- the one path decision -------------------------------------------------------


def _blocks_speculation(engine: InferenceEngine) -> str | None:
    if engine.capture is not None:
        return "capture"
    if engine.weight_fault_depth > 0:
        return "weight_fault"
    if engine.kv_fault is not None:
        return "kv_fault"
    if engine.acc_fault is not None:
        return "acc_fault"
    hooks = engine.hooks
    if len(hooks) > 0 and not hooks.all_observers():
        return "row_scoped_hooks" if hooks.all_row_scoped() else "unscoped_hooks"
    return None


def decode_plan(
    engine: InferenceEngine, draft: InferenceEngine | None = None
) -> tuple[str, str]:
    """``(path, reason)``: the fastest decode path that preserves exact
    fault/capture semantics — ``composed`` (batched speculation, needs
    ``draft``), ``batched`` or ``serial`` — and what decided it (the
    module docstring's gate matrix)."""
    hooks = engine.hooks
    reason = _blocks_speculation(engine)
    if reason is None:
        reason = "observer_hooks" if len(hooks) > 0 else "clean"
        if draft is not None:
            blocked = _blocks_speculation(draft)
            if blocked is None:
                return "composed", reason
            reason = "draft_" + blocked
    if reason in ("capture", "weight_fault"):
        return "serial", reason
    if len(hooks) > 0 and not hooks.all_row_scoped():
        return "serial", "unscoped_hooks"
    return "batched", reason


def count_plan(path: str, reason: str) -> None:
    """Record one decode entry's plan (``decode.plan.<path>.<reason>``),
    so a silently serialised run shows up in ``repro obs report``.

    ``path`` is the path the entry *runs*, which two entries spell
    differently from :func:`decode_plan`:
    ``SpeculativeDecoder.decode_one`` counts a ``batched`` plan as
    ``serial`` (one sequence has nothing to batch, so it runs the
    reference loop), ``score_options`` counts ``shared_prefix``
    (reason ``clean`` / ``observer_hooks``) or ``per_option``, and a
    campaign counts ``option_rows`` for a multiple-choice example's
    golden option pass (reason ``clean`` / ``observer_hooks``) and for
    every trial scored from it (``weight_fault`` /
    ``row_scoped_hooks``)."""
    tel = _telemetry()
    if tel.active:
        tel.metrics.counter(f"decode.plan.{path}.{reason}").add()


def check_draft(
    engine: InferenceEngine, draft: InferenceEngine, depth: int
) -> None:
    """Constructor-time validation shared by every draft-taking path."""
    if depth < 1:
        raise ValueError("speculation_depth must be >= 1")
    if draft.config.vocab_size != engine.config.vocab_size:
        raise ValueError(
            "draft/target vocabulary mismatch:"
            f" draft has {draft.config.vocab_size} tokens,"
            f" target has {engine.config.vocab_size};"
            " speculation needs a same-tokenizer pair"
        )


# -- per-row rules shared with the 1-D SpeculativeDecoder -------------------------


def pick(logits: np.ndarray) -> int:
    """NaN-safe argmax, identical to the serial greedy rule
    (``np.nanargmax``, 0 for all-NaN logits).  ``argmax`` ranks NaN
    highest, so the NaN-skipping scan — thirty times its cost on a
    few-hundred-token vocabulary — only runs when the winner is NaN."""
    token = int(logits.argmax())
    if logits[token] == logits[token]:
        return token
    try:
        return int(np.nanargmax(logits))
    except ValueError:  # all-NaN logits
        return 0


def accept(
    logits: np.ndarray, proposals: "list[int] | tuple", eos: int, out: list[int]
) -> tuple[int, bool]:
    """Walk one verify chunk's ``(len(proposals) + 1, vocab)`` logits:
    append the target's argmaxes to ``out`` while they match the
    proposals, plus the first mismatch (the correction) or the bonus
    token after a fully accepted proposal.  Returns ``(accepted,
    hit_eos)``; EOS ends the walk and is not emitted."""
    accepted = 0
    for j in range(len(proposals) + 1):
        token = pick(logits[j])
        if token == eos:
            return accepted, True
        out.append(token)
        if j == len(proposals) or token != proposals[j]:
            break
        accepted += 1
    return accepted, False


def draft_keep(d_len: int, gamma: int, accepted: int) -> int:
    """Draft cache length surviving a round: the draft stepped through
    ``gamma - 1`` of its own proposals and keeps the accepted ones."""
    return d_len - max(0, (gamma - 1) - min(accepted, gamma - 1))


def _by_length(indices, length) -> list[list[int]]:
    """Group ``indices`` by ``length(i)``, preserving order within each
    group (ragged rows become one rectangular engine call per length)."""
    groups: dict[int, list[int]] = {}
    for i in indices:
        groups.setdefault(length(i), []).append(i)
    return list(groups.values())


# -- the stepper -----------------------------------------------------------------


@dataclass(slots=True, eq=False)
class Row:
    """One live sequence.  The target caches hold ``prompt + out[:-1]``
    — the last emitted token is *pending* and is fed by the next round —
    and the draft caches hold ``(prompt + out)[:d_len]``."""

    key: object
    """Whatever the driver tracks the sequence by (a prompt index, a
    server request); the round never looks inside."""
    prompt: list[int]
    budget: int
    out: list[int] = field(default_factory=list)
    slot: int | None = None
    caches: "list[KVCache] | None" = None
    iter0: int = 0
    d_slot: int | None = None
    d_caches: "list[KVCache] | None" = None
    d_len: int = 0
    accepted: int = 0
    """Proposals the latest round accepted (composed rounds only)."""
    id: int = 0
    """Admission number within the round: what the row's target forwards
    carry as ``row_ids`` / ``HookContext.batch_row``."""
    logits: "np.ndarray | None" = None
    """Target logits ``(n, vocab)`` the latest event's tokens (or its
    EOS) were picked from."""


def _finish_reason(row: Row, hit_eos: bool) -> str | None:
    if hit_eos:
        return "eos"
    # A full budget retires without the serial loop's final forward (its
    # logits are discarded; fault sites are sampled strictly below the
    # budget, so none can target it).
    return "length" if len(row.out) >= row.budget else None


@dataclass(eq=False)
class DecodeRound:
    """Greedy decode rounds over pooled KV slots; see the module docstring.

    The caller owns scheduling (which prompt next, how wide) and the
    round owns every slot from :meth:`admit` until it reports a finish
    reason or the caller calls :meth:`drop`.  :meth:`admit` and
    :meth:`step` report ``(row, new_tokens, finish_reason)`` events; the
    reason is ``"eos"``, ``"length"`` or ``None`` while the row is live.
    ``depth`` only matters with a ``draft``.  ``prompt_cache`` (a server
    passes one; the offline decoders and campaigns none) lets
    :meth:`admit` start a prompt it has prefilled before from the cached
    K/V and logits instead of a prompt forward.
    """

    engine: InferenceEngine
    pool: PooledKVCache
    eos_id: int
    draft: InferenceEngine | None = None
    draft_pool: PooledKVCache | None = None
    depth: int = 0
    prompt_cache: PromptCache | None = None
    rows: list[Row] = field(default_factory=list)
    _admitted: int = field(default=0, init=False)

    def has_room(self) -> bool:
        """Whether one more row fits — a free slot in *both* pools."""
        return self.pool.n_free > 0 and (
            self.draft is None or self.draft_pool.n_free > 0
        )

    def admit(
        self,
        key: object,
        prompt: list[int],
        budget: int,
        session: Session | None = None,
        before_prefill: "Callable[[Row], None] | None" = None,
    ) -> tuple[Row, list[int], str | None]:
        """Prefill ``prompt`` into a free slot and emit its first token.

        ``session`` supplies an already-prefilled target session instead
        (consumed; no target slot is taken).  ``before_prefill`` sees the
        row — its ``id`` and its slot's cache views — before the prompt
        forward: the hook a request's own fault is armed through, so
        iteration-0 sites strike the prefill (a server pins a KV fault
        to ``row.caches``, a campaign wave a computational one to
        ``row.id``).  That prompt forward is then tagged with the row's
        id like every later forward of the row: a sibling's row-pinned
        hook that is still waiting for iteration 0 (an MoE expert its own
        prompt never routed to) cannot strike it.  EOS as the first
        token and one-token budgets retire here; such a row never
        occupies a slot across a round.  A raise from the forward or the
        callback releases the slots first.

        With a ``prompt_cache`` the prompt forward runs only on a miss,
        whose result is then stored; on a hit the slot is restored to the
        bits that forward left and ``row.logits`` is the cached,
        read-only array.  Both sides are fenced by the one path decision:
        the cache is neither read nor filled when the request carries a
        fault (``before_prefill``) or :func:`decode_plan` finds anything
        but observers on the engine — a struck or hooked prefill is never
        stored and a fault-carrying request never starts from a clean one.
        """
        if session is None and not prompt:
            raise ValueError("prompt must contain at least one token")
        row = Row(key, prompt, budget, id=self._admitted)
        self._admitted += 1
        try:
            if session is not None:
                row.caches, row.iter0 = session.caches, session.iteration
                logits = session.last_logits[None]
            else:
                row.slot = self.pool.acquire()
                row.caches = self.pool.caches(row.slot)
                logits = self._prefill(row, before_prefill)
            row.logits = logits
            reason = _finish_reason(row, accept(logits, (), self.eos_id, row.out)[1])
            if reason is None and self.draft is not None:
                # Slot only: the draft's prompt forward waits for the
                # row's first proposing round, so the first token is not
                # held back behind it.
                row.d_slot = self.draft_pool.acquire()
                row.d_caches = self.draft_pool.caches(row.d_slot)
        except BaseException:
            self._release(row)
            raise
        if reason is None:
            self.rows.append(row)
        else:
            self._release(row)
        return row, row.out[:], reason

    def _prefill(
        self, row: Row, before_prefill: "Callable[[Row], None] | None"
    ) -> np.ndarray:
        """``row.prompt``'s K/V into ``row.caches``, returning its
        ``(1, vocab)`` first-token logits: the prompt forward — on the
        rows entry, tagged ``row.id``, when the request carries a fault;
        bit for bit the 1-D one — or with a prompt cache its stored
        result (the gate is in :meth:`admit`'s docstring)."""
        prompt, caches = row.prompt, row.caches
        cache = self.prompt_cache
        outcome, evicted = None, 0
        if cache is not None:
            # Asked before the request's own fault is armed: that one is
            # named by the request, not by the plan.
            reason = (
                "request_fault" if before_prefill is not None
                else decode_plan(self.engine)[1]
            )
            if reason not in ("clean", "observer_hooks"):
                outcome, cache = "bypass." + reason, None
        if before_prefill is not None:
            before_prefill(row)
        logits = None if cache is None else cache.load(prompt, caches)
        if logits is not None:
            outcome = "hits"
        elif before_prefill is not None:
            logits = self.engine.forward_chunk_batch(
                [prompt], [caches], [0], [0], [row.id]
            )[0, -1:]
        else:
            logits = self.engine.forward(
                prompt, caches, start_pos=0, iteration=0
            )[-1:]
            if cache is not None:
                outcome = "misses"
                evicted = cache.store(prompt, caches, logits)
        if outcome is not None:
            tel = _telemetry()
            if tel.active:
                metrics = tel.metrics
                metrics.counter("serve.prompt_cache." + outcome).add()
                if evicted:
                    metrics.counter("serve.prompt_cache.evictions").add(evicted)
                metrics.gauge("serve.prompt_cache.tokens").set(
                    self.prompt_cache.tokens
                )
        return logits

    def drop(self, row: Row) -> None:
        """Retire a live row early (cancellation, shutdown)."""
        self.rows.remove(row)
        self._release(row)

    def _release(self, row: Row) -> None:
        if row.slot is not None:
            self.pool.release(row.slot)
            row.slot = None
        if row.d_slot is not None:
            self.draft_pool.release(row.d_slot)
            row.d_slot = None

    def step(self) -> list[tuple[Row, list[int], str | None]]:
        """Advance every live row one round; one event per row."""
        rows = self.rows
        if not rows:
            return []
        composed = self.draft is not None
        if composed:
            gammas, proposals = self._propose(rows)
            base = [row.caches[0].length for row in rows]
            verdicts = self._verify(rows, proposals, base)
            tel = _telemetry()
            traced = tel.active
        else:
            proposals = [()] * len(rows)
            logits = self.engine.forward_step_batch(
                [row.out[-1] for row in rows],
                [row.caches for row in rows],
                [row.caches[0].length for row in rows],
                [row.iter0 + len(row.out) for row in rows],
                [row.id for row in rows],
            )
            verdicts = [logits[i : i + 1] for i in range(len(rows))]
        eos = self.eos_id
        events = []
        still: list[Row] = []
        for i, row in enumerate(rows):
            before = len(row.out)
            row.logits = verdicts[i]
            accepted, hit_eos = accept(verdicts[i], proposals[i], eos, row.out)
            if composed:
                row.accepted = accepted
                if traced:
                    metrics = tel.metrics
                    metrics.counter("decode.spec_rounds").add()
                    metrics.counter("decode.spec_rejected").add(
                        gammas[i] - accepted
                    )
                    metrics.histogram("decode.spec_accept_len").observe(accepted)
                # The target keeps the pending token plus the accepted
                # proposals; rejected K/V rolls back per slot.
                for cache in row.caches:
                    cache.truncate(base[i] + 1 + accepted)
            reason = _finish_reason(row, hit_eos)
            if reason is not None:
                self._release(row)
            else:
                if composed:
                    row.d_len = draft_keep(row.d_len, gammas[i], accepted)
                    for cache in row.d_caches:
                        cache.truncate(row.d_len)
                still.append(row)
            events.append((row, row.out[before:], reason))
        self.rows = still
        return events

    def _propose(self, rows: list[Row]) -> tuple[list[int], list[list[int]]]:
        """Draft up to ``depth`` tokens per row, never past its budget
        (a verify chunk emits at most ``gamma + 1`` tokens, so "length"
        lands exactly, never mid-chunk)."""
        draft = self.draft
        gammas = [
            min(self.depth, row.budget - len(row.out) - 1) for row in rows
        ]
        proposals: list[list[int]] = [[] for _ in rows]
        prop = [i for i, gamma in enumerate(gammas) if gamma > 0]
        if not prop:
            return gammas, proposals
        feeds = {}
        for i in prop:
            row = rows[i]
            if row.d_len == 0:
                draft.forward(row.prompt, row.d_caches, start_pos=0, iteration=0)
                row.d_len = len(row.prompt)
            # Catch-up: what the target emitted since the draft cache was
            # last valid (1-2 tokens) — ragged, so grouped by length.
            feeds[i] = row.out[row.d_len - len(row.prompt):]
        d_logits: dict[int, np.ndarray] = {}
        for group in _by_length(prop, lambda i: len(feeds[i])):
            logits = draft.forward_chunk_batch(
                [feeds[i] for i in group],
                [rows[i].d_caches for i in group],
                [rows[i].d_len for i in group],
                [len(rows[i].out) for i in group],
            )
            for j, i in enumerate(group):
                d_logits[i] = logits[j][-1]
                rows[i].d_len += len(feeds[i])
        # One draft step batch per depth level, rows dropping out as
        # their gamma is met.
        for step in range(max(gammas)):
            alive = [i for i in prop if gammas[i] > step]
            for i in alive:
                proposals[i].append(pick(d_logits[i]))
            feed = [i for i in alive if gammas[i] > step + 1]
            if feed:
                logits = draft.forward_step_batch(
                    [proposals[i][-1] for i in feed],
                    [rows[i].d_caches for i in feed],
                    [rows[i].d_len for i in feed],
                    [len(rows[i].out) + step + 1 for i in feed],
                )
                for j, i in enumerate(feed):
                    d_logits[i] = logits[j]
                    rows[i].d_len += 1
        return gammas, proposals

    def _verify(
        self, rows: list[Row], proposals: list[list[int]], base: list[int]
    ) -> list[np.ndarray]:
        """One target chunk forward per distinct chunk length."""
        chunks = [[row.out[-1], *proposals[i]] for i, row in enumerate(rows)]
        verdicts: list = [None] * len(rows)
        for group in _by_length(range(len(rows)), lambda i: len(chunks[i])):
            logits = self.engine.forward_chunk_batch(
                [chunks[i] for i in group],
                [rows[i].caches for i in group],
                [base[i] for i in group],
                [rows[i].iter0 + len(rows[i].out) for i in group],
                [rows[i].id for i in group],
            )
            for j, i in enumerate(group):
                verdicts[i] = logits[j]
        return verdicts


# -- the offline driver ----------------------------------------------------------


def decode_to_completion(
    rnd: DecodeRound,
    prompts: list[list[int]],
    sessions: "list[Session | None]",
    budget: int,
    max_batch: int,
    on_event: "Callable[[Row, str | None], None] | None" = None,
) -> list[list[int]]:
    """Decode every prompt through ``rnd``: admit up to ``max_batch``
    rows, step until all retire, back-filling freed slots each round.
    ``on_event(row, finish_reason)`` sees every admit and step event as
    it happens — for a retiring row, after its slot was released but
    before any other row can acquire it."""
    tel = _telemetry()
    traced = tel.active
    composed = rnd.draft is not None
    attrs = {"depth": rnd.depth} if composed else {}
    results: list[list[int]] = [[] for _ in prompts]
    pending = 0
    refill = False
    t0 = time.perf_counter()
    with tel.span(
        "decode.spec_batch" if composed else "decode.batch",
        prompts=len(prompts), max_batch=max_batch, **attrs,
    ) as span:
        try:
            while True:
                while (
                    pending < len(prompts)
                    and len(rnd.rows) < max_batch
                    and rnd.has_room()
                ):
                    row, _, reason = rnd.admit(
                        pending, prompts[pending], budget, sessions[pending]
                    )
                    if on_event is not None:
                        on_event(row, reason)
                    if reason is not None:
                        results[pending] = row.out
                    if traced and refill:
                        tel.metrics.counter("decode.slot_refills").add()
                    pending += 1
                refill = True
                if traced:
                    # Real admissible capacity, after the eager releases.
                    tel.metrics.gauge("decode.free_slots").set(rnd.pool.n_free)
                if not rnd.rows:
                    break
                if traced:
                    tel.metrics.histogram("decode.batch_occupancy").observe(
                        len(rnd.rows)
                    )
                for row, _, reason in rnd.step():
                    if on_event is not None:
                        on_event(row, reason)
                    if reason is not None:
                        results[row.key] = row.out
        except BaseException:
            for row in list(rnd.rows):
                rnd.drop(row)
            raise
        span.set(new_tokens=sum(len(ids) for ids in results))
    if pending < len(prompts):
        raise ValueError("KV pool exhausted: no free slot for a pending prompt")
    if traced and composed:
        tel.metrics.histogram("decode.spec_batch_ms").observe(
            (time.perf_counter() - t0) * 1e3
        )
    return results
