"""One decode round: the stepper every batched decode path drives.

Continuous batching, batched speculation and the serving pump are the
same scheduler seen at different depths, so there is exactly one copy:

* :func:`decode_plan` — the one decode-path decision.  Given what is
  armed on the target (and the draft, if any) it names the fastest path
  that cannot change results, and why.
* :class:`DecodeRound` — admit → propose → verify → commit / rollback →
  retire over pooled KV slots.  :meth:`~DecodeRound.step` runs one
  forward leg: without a draft one ``forward_step_batch`` over all rows
  (``_advance``), with one the draft's proposals and the target's
  verify chunks, rejects rolled back per slot (``_speculate``).  Every
  target forward of a round, prompt forwards included, tags row ``i``
  with ``Row.id`` — its admission number, which unlike its position
  never shifts when a sibling retires — as ``HookContext.batch_row``,
  so an injector pinned to one sequence stays on it.
* :func:`decode_to_completion` — "fill, ``step()`` until empty" over a
  list of :class:`Admission` requests: what the offline decoders do with
  a round.  The server pump calls :meth:`DecodeRound.admit` and
  :meth:`DecodeRound.step` once per scheduling round instead.

The round owns every KV slot: it acquires one per admission and
releases it when the row retires, is dropped, or its burst raises.  A
request that does not start from its prompt hands the round a
``restore`` callback (:class:`Admission`), which fills the slot the
round acquired with a decode state instead of a prompt forward.

**Equivalence contract**: every emitted token is an argmax of *target*
logits over the true emitted prefix, so no schedule can change which
tokens are greedy-optimal — rows are token-identical to serial
``greedy_decode`` at any depth, width and admission timing.  Without a
draft the contract is stronger: the engine's batched entries are
row-exact (``repro.inference.engine._Plan``), so each row's logits and
K/V are **bit-identical to serial at any width** — which is what lets a
campaign decode injected trials side by side: an injected error is
amplified, not averaged out, so trials may share a forward only if
every row's bits are exactly the serial ones.

**Gate matrix** — the truth table of :func:`decode_plan`:

================================  ============  ==========  ================
armed on the target               with a draft  no draft    reason
================================  ============  ==========  ================
nothing                           composed      batched     clean
observer-only hooks               composed      batched     observer_hooks
row-scoped perturbing hooks       batched       batched     row_scoped_hooks
weight fault keyed by row         batched       batched     row_weight_fault
KV fault keyed by row             batched       batched     kv_fault
accumulator fault keyed by row    batched       batched     acc_fault
weight fault                      serial        serial      weight_fault
hooks not all row-scoped          serial        serial      unscoped_hooks
================================  ============  ==========  ================

Speculation is gated strictly: a verify chunk covers several generation
iterations under one iteration tag, so anything iteration-pinned would
mis-fire, and a chunked forward visits different (iteration, tensor)
pairs than the serial loop.  Batching only needs faults that scope
themselves to one sequence.  A weight fault swapped in engine-wide
forces the serial reference loop: its gate was set when a batched GEMM
differed from the serial one in the last bits (a corrupted weight
amplifies such differences).  A weight fault keyed by row
(``MemoryFaultInjector(rows=)``) swaps nothing in engine-wide: only its
rows read the faulted copy, each in the product the serial forward of
that row runs, so it is row-scoped like a pinned hook, as are KV and
accumulator faults (``batch_row=``).  That is how a campaign runs
trials many to a forward: multiple-choice option rows of a
``forward_chunk_batch`` (:func:`repro.fi.golden.score_option_rows`,
counted as ``decode.plan.option_rows.<reason>``), bit for bit the
per-option forwards, and generative rows of one round
(:mod:`repro.fi.wave`), each restored (``restore``) or prefilled
(``before_prefill``) with its fault keyed to ``row.id``, equally long
prompts in one forward.
The *draft* is held to
the speculation bar too (``draft_<reason>``, path = the target's
no-draft path): its corruption is masked by construction, but the
non-speculative paths run without it, so whether a draft fault even
fires would depend on the path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.inference.engine import InferenceEngine
from repro.inference.kvcache import KVCache, PooledKVCache, PromptCache
from repro.obs.runtime import telemetry as _telemetry

__all__ = ["Admission", "DecodeRound", "Row", "decode_plan", "decode_to_completion"]


# -- the one path decision -------------------------------------------------------


def _blocks_speculation(engine: InferenceEngine) -> str | None:
    if engine.weight_fault_depth > 0:
        return "weight_fault"
    if engine.row_weights:
        return "row_weight_fault"
    if engine.kv_faults:
        return "kv_fault"
    if engine.acc_faults:
        return "acc_fault"
    hooks = engine.hooks
    if len(hooks) > 0 and not hooks.all_observers():
        return "row_scoped_hooks" if hooks.all_row_scoped() else "unscoped_hooks"
    return None


def decode_plan(
    engine: InferenceEngine, draft: InferenceEngine | None = None
) -> tuple[str, str]:
    """``(path, reason)``: the fastest decode path that preserves exact
    fault semantics — ``composed`` (batched speculation, needs
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
    if reason == "weight_fault":
        return "serial", reason
    if len(hooks) > 0 and not hooks.all_row_scoped():
        return "serial", "unscoped_hooks"
    return "batched", reason


def count_plan(path: str, reason: str) -> None:
    """Record one decode entry's plan (``decode.plan.<path>.<reason>``),
    so a silently serialised run shows up in ``repro obs report``.

    ``path`` is the path the entry *runs*, which two entries spell
    differently from :func:`decode_plan`: ``greedy_decode(auto)`` — and
    so ``SpeculativeDecoder.decode_one`` — counts every plan but
    ``composed`` as ``serial`` (one sequence has nothing to batch, so it
    runs the reference loop), and an ``auto`` campaign counts a
    multiple-choice scoring as ``option_rows`` for an example's golden
    option pass (reason ``clean`` / ``observer_hooks``) and for every
    trial scored from it, whatever forward its rows shared (reason
    ``weight_fault`` or what :func:`decode_plan` says of its row-keyed
    fault), else as ``per_option`` — the reference,
    :func:`~repro.generation.decode.score_options`, which plans nothing
    itself.  A generative wave counts itself once, as ``batched`` with
    its rows' reason."""
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


class Admission(NamedTuple):
    """One request of an admission burst (:meth:`DecodeRound.admit_many`).

    ``before_prefill`` sees the row before its prompt forward.
    ``restore`` replaces that forward: it sees the row with its slot
    acquired, fills ``row.caches`` with a decode state and returns the
    state's ``(iteration, last logits)`` — a ``(vocab,)`` array the round
    only reads.  A drafted round's draft catches up from ``prompt`` and
    the row's own tokens, so only a round without a draft restores a
    state past the prompt."""

    key: object
    prompt: list[int]
    budget: int
    before_prefill: "Callable[[Row], None] | None" = None
    restore: "Callable[[Row], tuple[int, np.ndarray]] | None" = None


@dataclass(slots=True, eq=False)
class Row:
    """One live sequence.  The target caches hold ``prompt + out[:-1]``
    — the last emitted token is *pending* and is fed by the next round —
    and the draft caches hold ``(prompt + out)[:d_len]``.  The caches
    of the blocks below an :attr:`enter` hold less: they lag until the
    caller fills them (the last block's never does)."""

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
    enter: "tuple[int, np.ndarray] | None" = None
    """The next step forward's entry for this row (rounds without a
    draft): ``(block, hidden)``, the ``(1, d_model)`` state entering
    ``block`` (see ``InferenceEngine.forward_chunk_batch``), or ``None``
    for every block.  Set by the caller, consumed by the step."""
    block_inputs: "np.ndarray | None" = None
    """``(n_blocks, d_model)``: the hidden state that entered each block
    in the row's latest step forward, in a round that keeps them
    (:attr:`DecodeRound.keep_block_inputs`)."""


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
    round owns every slot from :meth:`admit_many` until it reports a
    finish reason or the caller calls :meth:`drop`.  :meth:`admit_many`
    (:meth:`admit`: a burst of one) and :meth:`step` report ``(row,
    new_tokens, finish_reason)`` events; the reason is ``"eos"``,
    ``"length"`` or ``None`` while the row is live.  ``depth`` only
    matters with a ``draft``.  ``prompt_cache`` (a server passes one; the
    offline decoders and campaigns none) lets an admission start a
    prompt it has prefilled before from the cached K/V and logits
    instead of a prompt forward.
    """

    engine: InferenceEngine
    pool: PooledKVCache
    eos_id: int
    draft: InferenceEngine | None = None
    draft_pool: PooledKVCache | None = None
    depth: int = 0
    prompt_cache: PromptCache | None = None
    keep_block_inputs: bool = False
    """Hand every row its step forward's :attr:`Row.block_inputs` (a
    golden sweep keeps them; rows with an entry cannot)."""
    rows: list[Row] = field(default_factory=list)
    prompt_forwards: int = field(default=0, init=False)
    """Prompt forwards run so far: one per group of equally long prompts
    an admission burst prefilled (:meth:`admit_many`)."""
    _admitted: int = field(default=0, init=False)

    def room(self) -> int:
        """How many more rows fit — free slots in *both* pools."""
        if self.draft is None:
            return self.pool.n_free
        return min(self.pool.n_free, self.draft_pool.n_free)

    def admit(
        self,
        key: object,
        prompt: list[int],
        budget: int,
        before_prefill: "Callable[[Row], None] | None" = None,
    ) -> tuple[Row, list[int], str | None]:
        """:meth:`admit_many` of one request: a group of one."""
        return self.admit_many([Admission(key, prompt, budget, before_prefill)])[0]

    def admit_many(
        self, admissions: "list[Admission]"
    ) -> list[tuple[Row, list[int], str | None]]:
        """Give every admission a free slot, fill it — its prompt's
        prefill, or the state its ``restore`` callback writes — and emit
        its first token; one event per admission, in order.

        The rows get consecutive ids, and every slot is acquired — and
        every restored row filled — before any prompt forward runs
        (:meth:`_acquire`); the prompts then run as one rows
        ``forward_chunk_batch`` per prompt length (:meth:`_prefill`).
        Either callback sees the row — its ``id`` and its slot's cache
        views — and is where a request's own fault is armed (a campaign
        wave keys it to ``row.id``): ``restore`` before it returns the
        ``(iteration, logits)`` the first token is picked from,
        ``before_prefill`` before the prompt forward, so iteration-0
        sites strike the prefill.  EOS as the first token and one-token
        budgets retire here (:meth:`_first_event`); such a row never
        occupies a slot across a round, and its slot is free again only
        once this returns — nothing acquires one in between, so the slot
        still holds the row's K/V.  A raise from a forward or a callback
        releases every slot of the burst first.
        """
        if any(a.restore is None and not a.prompt for a in admissions):
            raise ValueError("prompt must contain at least one token")
        rows: list[Row] = []
        try:
            self._acquire(admissions, rows)
            self._prefill([
                (row, a.before_prefill)
                for row, a in zip(rows, admissions) if a.restore is None
            ])
            events = [self._first_event(row) for row in rows]
        except BaseException:
            for row in rows:
                self._release(row)
            raise
        for row, _, reason in events:
            if reason is None:
                self.rows.append(row)
            else:
                self._release(row)
        return events

    def _acquire(self, admissions: "list[Admission]", rows: list[Row]) -> None:
        """Each admission's row onto ``rows`` with its id and slot (so a
        raise releases it), a restored row filled."""
        for a in admissions:
            row = Row(a.key, a.prompt, a.budget, id=self._admitted)
            self._admitted += 1
            rows.append(row)
            row.slot = self.pool.acquire()
            row.caches = self.pool.caches(row.slot)
            if a.restore is not None:
                row.iter0, logits = a.restore(row)
                row.logits = logits[None]

    def _first_event(self, row: Row) -> tuple[Row, list[int], str | None]:
        """The row's first-token event; a live row gets its draft slot."""
        hit_eos = accept(row.logits, (), self.eos_id, row.out)[1]
        reason = _finish_reason(row, hit_eos)
        if reason is None and self.draft is not None:
            # Slot only: the draft's prompt forward waits for the row's
            # first proposing round, so the first token is not held
            # back behind it.
            row.d_slot = self.draft_pool.acquire()
            row.d_caches = self.draft_pool.caches(row.d_slot)
        return row, row.out[:], reason

    def _prefill(
        self, rows: "list[tuple[Row, Callable[[Row], None] | None]]"
    ) -> None:
        """Each ``row.prompt``'s K/V into ``row.caches`` and its
        ``(1, vocab)`` first-token logits into ``row.logits``: one rows
        forward per group of equally long prompts, each row tagged
        ``row.id`` and bit for bit its 1-D prompt forward.  A
        forward reads only the prompts' last two positions
        (``read_from``: a window is never one position); every
        position's K/V is written.

        With a ``prompt_cache`` the forward runs only on a miss, whose
        result is then stored; on a hit the slot is restored to the bits
        that forward left and ``row.logits`` is the cached, read-only
        array.  Both sides are fenced by the one path decision: the cache
        is neither read nor filled when the request carries a fault
        (``before_prefill``) or :func:`decode_plan` finds anything but
        observers on the engine — a struck or hooked prefill is never
        stored and a fault-carrying request never starts from a clean
        one."""
        cache = self.prompt_cache
        cached = {}
        if cache is not None:
            # Asked before any request's own fault is armed: that one is
            # named by the request, not by the plan.
            plan = decode_plan(self.engine)[1]
            for row, before in rows:
                reason = "request_fault" if before is not None else plan
                cached[row] = reason in ("clean", "observer_hooks")
                if not cached[row]:
                    self._count_cache("bypass." + reason)
        for row, before in rows:
            if before is not None:
                before(row)
        todo = []
        for row, _ in rows:
            logits = cache.load(row.prompt, row.caches) if cached.get(row) else None
            if logits is None:
                todo.append(row)
            else:
                row.logits = logits
                self._count_cache("hits")
        for group in _by_length(todo, lambda row: len(row.prompt)):
            n = len(group)
            logits = self.engine.forward_chunk_batch(
                [row.prompt for row in group], [row.caches for row in group],
                [0] * n, [0] * n, [row.id for row in group],
                read_from=max(0, len(group[0].prompt) - 2),
            )
            self.prompt_forwards += 1
            for j, row in enumerate(group):
                row.logits = logits[j, -1:]
                if cached.get(row):
                    evicted = cache.store(row.prompt, row.caches, row.logits)
                    self._count_cache("misses", evicted)

    def _count_cache(self, outcome: str, evicted: int = 0) -> None:
        tel = _telemetry()
        if tel.active:
            metrics = tel.metrics
            metrics.counter("serve.prompt_cache." + outcome).add()
            if evicted:
                metrics.counter("serve.prompt_cache.evictions").add(evicted)
            metrics.gauge("serve.prompt_cache.tokens").set(self.prompt_cache.tokens)

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
        """Advance every live row one round; one event per row: a forward
        leg appends each row's new tokens, then the rows that finished
        retire."""
        rows = self.rows
        if not rows:
            return []
        before = [len(row.out) for row in rows]
        if self.draft is not None:
            hits = self._speculate(rows)
        else:
            hits = self._advance(rows)
        events = []
        still: list[Row] = []
        for row, n, hit_eos in zip(rows, before, hits):
            reason = _finish_reason(row, hit_eos)
            if reason is None:
                still.append(row)
            else:
                self._release(row)
            events.append((row, row.out[n:], reason))
        self.rows = still
        return events

    def _advance(self, rows: list[Row]) -> list[bool]:
        """The leg without a draft: one ``forward_step_batch``, each row
        at its last block's cache length (the one block every row
        computes) and from its :attr:`Row.enter`; whether each row's
        next token is EOS."""
        enter = [row.enter for row in rows]
        kept = [] if self.keep_block_inputs else None
        logits = self.engine.forward_step_batch(
            [row.out[-1] for row in rows],
            [row.caches for row in rows],
            [row.caches[-1].length for row in rows],
            [row.iter0 + len(row.out) for row in rows],
            [row.id for row in rows],
            enter=enter if any(enter) else None,
            block_inputs=kept,
        )
        for i, row in enumerate(rows):
            row.logits, row.enter = logits[i : i + 1], None
        if kept is not None:
            for row, inputs in zip(rows, np.stack(kept, axis=1)):
                row.block_inputs = inputs
        return [accept(row.logits, (), self.eos_id, row.out)[1] for row in rows]

    def _speculate(self, rows: list[Row]) -> list[bool]:
        """The composed leg: draft proposals, target verify chunks, each
        row's accepted prefix plus one token (:func:`accept`) and the
        rejected K/V rolled back per slot; whether each row hit EOS."""
        gammas, proposals = self._propose(rows)
        base = [row.caches[-1].length for row in rows]
        verdicts = self._verify(rows, proposals, base)
        tel = _telemetry()
        hits = []
        for i, row in enumerate(rows):
            row.logits = verdicts[i]
            accepted, hit_eos = accept(verdicts[i], proposals[i], self.eos_id, row.out)
            row.accepted = accepted
            if tel.active:
                metrics = tel.metrics
                metrics.counter("decode.spec_rounds").add()
                metrics.counter("decode.spec_rejected").add(gammas[i] - accepted)
                metrics.histogram("decode.spec_accept_len").observe(accepted)
            # The target keeps the pending token and the accepted proposals.
            for cache in row.caches:
                cache.truncate(base[i] + 1 + accepted)
            row.d_len = draft_keep(row.d_len, gammas[i], accepted)
            for cache in row.d_caches:
                cache.truncate(row.d_len)
            hits.append(hit_eos)
        return hits

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
    admissions: "list[Admission]",
    max_batch: int,
    on_event: "Callable[[Row, str | None], None] | None" = None,
) -> list[list[int]]:
    """Decode every admission through ``rnd`` and return each one's
    tokens, in order: admit up to ``max_batch`` rows, step until all
    retire, back-filling freed slots each round (:func:`_admit_bursts`).
    ``on_event(row, finish_reason)`` sees every admit and step event as
    it happens — for a retiring row, after its slot was released but
    before any other row can acquire it."""
    tel = _telemetry()
    traced = tel.active
    composed = rnd.draft is not None
    attrs = {"depth": rnd.depth} if composed else {}
    rows: list[Row] = []
    refill = False
    t0 = time.perf_counter()
    with tel.span(
        "decode.spec_batch" if composed else "decode.batch",
        prompts=len(admissions), max_batch=max_batch, **attrs,
    ) as span:
        try:
            while True:
                _admit_bursts(rnd, admissions, rows, max_batch, on_event, refill)
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
        except BaseException:
            for row in list(rnd.rows):
                rnd.drop(row)
            raise
        span.set(new_tokens=sum(len(row.out) for row in rows))
    if len(rows) < len(admissions):
        raise ValueError("KV pool exhausted: no free slot for a pending prompt")
    if traced and composed:
        tel.metrics.histogram("decode.spec_batch_ms").observe(
            (time.perf_counter() - t0) * 1e3
        )
    return [row.out for row in rows]


def _admit_bursts(
    rnd: DecodeRound,
    admissions: "list[Admission]",
    rows: list[Row],
    max_batch: int,
    on_event: "Callable[[Row, str | None], None] | None",
    refill: bool,
) -> None:
    """Admit the admissions past the ``rows`` admitted so far, one burst
    (:meth:`DecodeRound.admit_many`) at a time while ``rnd`` has room
    under ``max_batch`` — rows that retire at admission free their
    slots for the next burst at once — adding each to ``rows``; a
    ``refill``'s count as ``decode.slot_refills``."""
    tel = _telemetry()
    while burst := admissions[len(rows) : len(rows) + min(
        max_batch - len(rnd.rows), rnd.room()
    )]:
        for row, _, reason in rnd.admit_many(burst):
            rows.append(row)
            if on_event is not None:
                on_event(row, reason)
        if refill and tel.active:
            tel.metrics.counter("decode.slot_refills").add(len(burst))
