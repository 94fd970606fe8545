"""Per-block key/value caches for incremental decoding: one store.

:class:`PooledKVCache` is the only K/V storage there is: one
``(n_slots, n_heads, max_seq, head_dim)`` arena pair per transformer
block holds the K/V of many concurrent sequences as slot rows.  A
:class:`KVCache` is one block's view of one slot — a round's row, a
beam hypothesis, a golden sweep's run, a ``Session`` (whose
:meth:`~repro.inference.engine.InferenceEngine.new_caches` is a fresh
one-slot pool's views) or a speculative draft.  Admitting, retiring and
re-admitting sequences never allocates, and forking a beam-search
hypothesis is a bounded prefix copy inside the arena
(:meth:`PooledKVCache.copy_slot`).

Nothing appends through a view: the engine plans one :class:`KVWrite`
per forward — each row at its own view's ``length``, a basic slice for a
row alone in its arena, one fancy-index assignment per plane for a
group — and applies it in every block.  A view is not copied
(``copy.copy`` and ``copy.deepcopy`` raise): :meth:`KVCache.snapshot`
and :meth:`KVCache.restore` copy its K/V.  :class:`PromptCache`
keeps what a prompt forward left in such a cache —
:meth:`KVCache.snapshot` per block plus the first-token logits — so a
server prefills a repeated prompt once.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = ["KVCache", "KVWrite", "PooledKVCache", "PromptCache"]


class KVCache:
    """One transformer block's K/V for one sequence: slot ``slot`` of
    the arena pair ``arena = (keys, values)``.

    ``k``/``v`` are the slot's ``(n_heads, max_seq, head_dim)`` views
    into the arena, so every write, rollback and restore lands in the
    shared storage in place; ``length`` — the filled prefix — is the
    only per-view state.  Whatever lies beyond ``length`` is never read
    (every reader goes through :meth:`keys` / :meth:`values` or a
    ``[:length]`` slice), so arenas are allocated uninitialised and
    slots handed out without clearing.  A cache-less forward wraps its
    fresh ``(B, n_heads, t, head_dim)`` K/V the same way, as a full view
    of row ``slot``, for a KV fault to strike.
    """

    #: Truncation watchers (class-level default keeps instances free of
    #: per-object state until someone actually watches).  A fault
    #: injector armed on this cache registers itself so that rollbacks —
    #: :meth:`truncate` and :meth:`restore` — can undo a strike that
    #: landed beyond the surviving prefix (see ``KVFaultInjector``).
    watchers: tuple = ()

    def __init__(self, arena: tuple, slot: int, length: int = 0) -> None:
        self.arena = arena
        self.slot = slot
        self.k, self.v = arena[0][slot], arena[1][slot]
        self.length = length

    def __copy__(self):
        raise TypeError(
            "a KVCache is a view of a pool slot and is not copied: copy its"
            " K/V with snapshot() and write it back with restore()"
        )

    def __deepcopy__(self, memo):
        # A deep copy would copy ``arena`` and ``k``/``v`` apart, so its
        # writes would land where its ``keys()`` never reads.
        self.__copy__()

    def watch(self, watcher) -> None:
        """Register a truncation watcher (``on_truncate(cache, length)``)."""
        self.watchers = self.watchers + (watcher,)

    def unwatch(self, watcher) -> None:
        self.watchers = tuple(w for w in self.watchers if w is not watcher)

    @property
    def max_seq(self) -> int:
        return self.k.shape[1]

    def keys(self) -> np.ndarray:
        """View of the filled keys, shape ``(n_heads, length, head_dim)``."""
        return self.k[:, : self.length]

    def values(self) -> np.ndarray:
        """View of the filled values, shape ``(n_heads, length, head_dim)``."""
        return self.v[:, : self.length]

    def truncate(self, length: int) -> None:
        """Roll back to a shorter prefix: a rejected speculation round
        drops its unaccepted tokens this way."""
        if not 0 <= length <= self.length:
            raise ValueError(f"cannot truncate cache of {self.length} to {length}")
        for watcher in self.watchers:
            watcher.on_truncate(self, length)
        self.length = length

    def snapshot(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Copy of the filled prefix only: ``(keys, values, length)``.

        The arena is not duplicated, so it costs ``length`` positions,
        not ``max_seq``; :meth:`restore` writes the prefix back into the
        slot.
        """
        return self.keys().copy(), self.values().copy(), self.length

    def restore(
        self,
        snap: tuple[np.ndarray, np.ndarray, int],
        length: int | None = None,
    ) -> None:
        """Rewind to a :meth:`snapshot`: an in-place prefix write into
        the slot, so the golden-run rewind and the prompt cache restore
        at slice-copy cost.  The snapshot must fit the slot: same
        head/dim geometry, ``length <= max_seq``.

        ``length`` restores only the snapshot's first ``length``
        positions — the state ``restore(snap)`` then ``truncate(length)``
        leaves, in one bounded write (the golden-run rewind: one
        full-length snapshot serves every earlier decode state).
        """
        k, v, snap_length = snap
        if length is None:
            length = snap_length
        elif not 0 <= length <= snap_length:
            raise ValueError(
                f"cannot restore {length} positions of a snapshot of"
                f" {snap_length}"
            )
        if length > self.max_seq:
            raise ValueError(
                f"snapshot length {length} exceeds cache capacity {self.max_seq}"
            )
        if k.shape[0] != self.k.shape[0] or k.shape[2] != self.k.shape[2]:
            raise ValueError(
                f"snapshot geometry {k.shape} does not match cache buffers"
                f" {self.k.shape}"
            )
        # A restore is a rewind too: a fault that fired beyond the
        # restored prefix must be rolled back just like under truncate.
        for watcher in self.watchers:
            watcher.on_truncate(self, length)
        self.k[:, :length] = k[:, :length]
        self.v[:, :length] = v[:, :length]
        self.length = length


class KVWrite:
    """One forward's K/V write for its rows: where each row's new K/V
    lands, planned once from the rows' views in the first block they
    write and applied in every block they run (a row writes at the same
    ``length`` in each of them).

    Rows are grouped by the arena their views live in — rows of one pool
    share one per block, a ``new_caches()`` row has its own.  A row
    alone in its arena writes with a basic slice of its view; a group of
    several with one fancy-index assignment per plane at ``(slot,
    length + arange(t))``, the index arrays built here, once.  Both are
    byte copies, so each row's K/V is the bits a slice write of it would
    leave.  Nothing checks capacity here: the engine does, before
    anything is written.
    """

    __slots__ = ("lone", "grouped", "ends")

    def __init__(self, caches: list[KVCache], t: int) -> None:
        arenas: dict[int, list[int]] = {}
        for i, cache in enumerate(caches):
            arenas.setdefault(id(cache.arena), []).append(i)
        self.ends = [cache.length + t for cache in caches]
        """Each row's length after the write: what its attention reads."""
        self.lone: list[tuple[int, slice]] = []
        self.grouped: list[tuple[int, slice | list[int], tuple]] = []
        for members in arenas.values():
            first = members[0]
            if len(members) == 1:
                self.lone.append((first, slice(caches[first].length, self.ends[first])))
                continue
            slots = np.array([[caches[i].slot] for i in members])
            at = np.array([[caches[i].length] for i in members]) + np.arange(t)
            rows = slice(None) if len(members) == len(caches) else members
            # (rows, t) index pairs over (slot, position): the assigned
            # block is (rows, t, n_heads, head_dim).
            self.grouped.append((first, rows, (slots, slice(None), at)))

    def __call__(self, caches: list[KVCache], k: np.ndarray, v: np.ndarray) -> None:
        """Write row ``i``'s new keys ``k[i]`` and values ``v[i]`` (``(B,
        n_heads, t, head_dim)``) into ``caches[i]`` — this block's view
        of the row's slot — and advance every view to its new length."""
        for i, span in self.lone:
            cache = caches[i]
            cache.k[:, span] = k[i]
            cache.v[:, span] = v[i]
        for first, rows, index in self.grouped:
            keys, values = caches[first].arena
            keys[index] = k[rows].swapaxes(1, 2)
            values[index] = v[rows].swapaxes(1, 2)
        for cache, end in zip(caches, self.ends):
            cache.length = end


class PromptCache:
    """LRU table of prefilled *whole* prompts, bounded in resident tokens.

    ``entries`` maps a prompt's token tuple to what
    ``engine.forward(prompt, caches, 0, 0)`` left behind: every block's
    :meth:`KVCache.snapshot` (exactly the prompt's positions, nothing
    per slot or per ``max_seq``) and the read-only ``(1, vocab)``
    last-position logits.  :meth:`load` writes those bits back, so a hit
    leaves the caches ``array_equal`` to a fresh prompt forward.  Only an
    exact match hits: forwarding a prompt's tail over a cached prefix
    runs differently shaped products than the one-shot prompt forward,
    so its bits are not that forward's.  The cache knows nothing of
    faults — whoever owns it decides when reading or filling it is safe
    (:meth:`repro.generation.round.DecodeRound.admit`).
    """

    def __init__(self, max_tokens: int) -> None:
        self.max_tokens = max_tokens
        self.tokens = 0
        """Prompt tokens resident: ``sum(len(key) for key in entries)``."""
        self.entries: OrderedDict[tuple, tuple[list, np.ndarray]] = OrderedDict()
        """Least recently used first."""

    def load(self, prompt: list[int], caches: list[KVCache]) -> np.ndarray | None:
        """Restore ``prompt``'s K/V into ``caches`` and return its logits
        (shared between hits, hence read-only), or ``None`` on a miss."""
        key = tuple(prompt)
        entry = self.entries.get(key)
        if entry is None:
            return None
        self.entries.move_to_end(key)
        snaps, logits = entry
        for cache, snap in zip(caches, snaps):
            cache.restore(snap)
        return logits

    def store(
        self, prompt: list[int], caches: list[KVCache], logits: np.ndarray
    ) -> int:
        """Keep the state ``caches`` and ``logits`` are in right after
        ``prompt``'s forward, evicting least recently used prompts until
        it fits; a prompt longer than the whole budget is not kept.
        Returns the number of prompts evicted."""
        n = len(prompt)
        if n > self.max_tokens:
            return 0
        key = tuple(prompt)
        if self.entries.pop(key, None) is not None:
            self.tokens -= n
        evicted = 0
        while self.tokens + n > self.max_tokens:
            old, _ = self.entries.popitem(last=False)
            self.tokens -= len(old)
            evicted += 1
        logits = logits.copy()
        logits.flags.writeable = False
        self.entries[key] = ([cache.snapshot() for cache in caches], logits)
        self.tokens += n
        return evicted


class PooledKVCache:
    """Block-allocated K/V arena shared by up to ``n_slots`` sequences.

    Layout is one ``(n_slots, n_heads, max_seq, head_dim)`` array pair
    per transformer block.  A sequence acquires a slot, receives the
    slot's per-block :class:`KVCache` views, decodes, and releases the
    slot for the next pending sequence — the continuous-batching
    scheduler's refills therefore cost zero allocations.  Stale K/V
    beyond a view's ``length`` is never read (attention consumes
    ``keys()``/``values()`` prefixes only), so slots are handed out
    without clearing and the arena is allocated uninitialised.
    """

    def __init__(
        self, n_layers: int, n_slots: int, n_heads: int, max_seq: int, head_dim: int
    ) -> None:
        if n_slots < 1:
            raise ValueError("pool needs at least one slot")
        self.n_slots = n_slots
        self._k = [
            np.empty((n_slots, n_heads, max_seq, head_dim), dtype=np.float32)
            for _ in range(n_layers)
        ]
        self._v = [
            np.empty((n_slots, n_heads, max_seq, head_dim), dtype=np.float32)
            for _ in range(n_layers)
        ]
        arenas = list(zip(self._k, self._v))
        self._views = [
            [KVCache(arena, slot) for arena in arenas] for slot in range(n_slots)
        ]
        # Stack of free slot ids; reversed so slot 0 is acquired first
        # (deterministic admission order for the scheduler).
        self._free = list(range(n_slots - 1, -1, -1))

    @property
    def n_free(self) -> int:
        return len(self._free)

    def acquire(self) -> int:
        """Claim a free slot (views reset to empty); raises when full."""
        if not self._free:
            raise ValueError(f"KV pool exhausted: all {self.n_slots} slots in use")
        slot = self._free.pop()
        for view in self._views[slot]:
            view.length = 0
        return slot

    def release(self, slot: int) -> None:
        """Return a slot to the free list."""
        if slot in self._free:
            raise ValueError(f"slot {slot} is already free")
        if not 0 <= slot < self.n_slots:
            raise ValueError(f"slot {slot} out of range")
        self._free.append(slot)

    def caches(self, slot: int) -> list[KVCache]:
        """Per-block cache views for ``slot`` (zero-copy, arena-backed)."""
        return list(self._views[slot])

    def copy_slot(self, src: int, dst: int) -> None:
        """Copy-on-fork: copy ``src``'s filled prefix into ``dst``.  Only
        ``length`` rows move — the bounded-prefix analogue of
        :meth:`KVCache.snapshot`/``restore`` inside the arena, and the
        one way a beam-search hypothesis forks
        (:func:`~repro.generation.decode.beam_search_decode`)."""
        for layer, (k, v) in enumerate(zip(self._k, self._v)):
            length = self._views[src][layer].length
            k[dst, :, :length] = k[src, :, :length]
            v[dst, :, :length] = v[src, :, :length]
            self._views[dst][layer].length = length
