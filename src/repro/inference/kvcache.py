"""Per-block key/value caches for incremental decoding.

:class:`KVCache` is the single-sequence building block: one
pre-allocated ``(n_heads, max_seq, head_dim)`` buffer pair per
transformer block.  :class:`PooledKVCache` scales it to continuous
batching: one block-allocated arena per layer holds the K/V of many
concurrent sequences as slot rows, and hands out zero-copy
:class:`KVCache`-compatible views — so admitting, retiring and
re-admitting sequences never allocates, and forking a beam is a
bounded prefix copy inside the arena instead of a fresh full-size
allocation.  :class:`PromptCache` keeps what a prompt forward left in
such a cache — :meth:`KVCache.snapshot` per block plus the first-token
logits — so a server prefills a repeated prompt once.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = ["KVCache", "PooledKVCache", "PromptCache"]


class KVCache:
    """Pre-allocated rolling K/V store for one transformer block.

    Shapes are ``(n_heads, max_seq, head_dim)``; ``length`` tracks the
    filled prefix.  Appending is an in-place slice write (no copies, no
    reallocation), following the buffer-reuse guidance for numerical
    Python.  The buffers are allocated uninitialised: whatever lies
    beyond ``length`` is never read (every reader goes through
    :meth:`keys` / :meth:`values` or a ``[:length]`` slice), and a
    reference-path forward allocates a fresh set of them.
    """

    #: Truncation watchers (class-level default keeps instances free of
    #: per-object state until someone actually watches).  A fault
    #: injector armed on this cache registers itself so that rollbacks —
    #: rejected speculation rounds, beam forks — can undo a strike that
    #: landed beyond the surviving prefix (see ``KVFaultInjector``).
    watchers: tuple = ()

    def __init__(self, n_heads: int, max_seq: int, head_dim: int) -> None:
        self.k = np.empty((n_heads, max_seq, head_dim), dtype=np.float32)
        self.v = np.empty((n_heads, max_seq, head_dim), dtype=np.float32)
        self.length = 0

    def watch(self, watcher) -> None:
        """Register a truncation watcher (``on_truncate(cache, length)``)."""
        self.watchers = self.watchers + (watcher,)

    def unwatch(self, watcher) -> None:
        self.watchers = tuple(w for w in self.watchers if w is not watcher)

    @property
    def max_seq(self) -> int:
        return self.k.shape[1]

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Append ``(n_heads, t, head_dim)`` keys/values for new tokens."""
        t = k_new.shape[1]
        if self.length + t > self.max_seq:
            raise ValueError(
                f"KV cache overflow: {self.length} + {t} > {self.max_seq}"
            )
        self.k[:, self.length : self.length + t] = k_new
        self.v[:, self.length : self.length + t] = v_new
        self.length += t

    def keys(self) -> np.ndarray:
        """View of the filled keys, shape ``(n_heads, length, head_dim)``."""
        return self.k[:, : self.length]

    def values(self) -> np.ndarray:
        """View of the filled values, shape ``(n_heads, length, head_dim)``."""
        return self.v[:, : self.length]

    def truncate(self, length: int) -> None:
        """Roll back to a shorter prefix (used by beam search forks and
        prefix-shared option scoring, which appends option tokens and
        truncates back instead of copying the cache)."""
        if not 0 <= length <= self.length:
            raise ValueError(f"cannot truncate cache of {self.length} to {length}")
        for watcher in self.watchers:
            watcher.on_truncate(self, length)
        self.length = length

    def snapshot(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Copy of the filled prefix only: ``(keys, values, length)``.

        Much cheaper than :meth:`clone` when ``length << max_seq`` —
        the backing buffers are not duplicated; :meth:`restore` writes
        the prefix back into the existing buffers.
        """
        return self.keys().copy(), self.values().copy(), self.length

    def restore(
        self,
        snap: tuple[np.ndarray, np.ndarray, int],
        length: int | None = None,
    ) -> None:
        """Rewind to a :meth:`snapshot`, reusing the existing buffers.

        In-place prefix write — never reallocates ``k``/``v`` (which
        would detach pooled :class:`_SlotView` rows from their arena),
        so speculation rollback and beam inner loops can restore per
        round at slice-copy cost.  The snapshot must fit the buffers:
        same head/dim geometry, ``length <= max_seq``.

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

    def clone(self) -> "KVCache":
        """Deep copy (beam search keeps one cache per hypothesis)."""
        out = KVCache(self.k.shape[0], self.max_seq, self.k.shape[2])
        out.k[:, : self.length] = self.keys()
        out.v[:, : self.length] = self.values()
        out.length = self.length
        return out


class PromptCache:
    """LRU table of prefilled *whole* prompts, bounded in resident tokens.

    ``entries`` maps a prompt's token tuple to what
    ``engine.forward(prompt, caches, 0, 0)`` left behind: every block's
    :meth:`KVCache.snapshot` (exactly the prompt's positions, nothing
    per slot or per ``max_seq``) and the read-only ``(1, vocab)``
    last-position logits.  :meth:`load` writes those bits back, so a hit
    leaves the caches ``array_equal`` to a fresh prompt forward.  Only an
    exact match hits: a prompt forward behind a shared prefix is not
    bit-identical to the one-shot forward.  The cache knows nothing of
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


class _SlotView(KVCache):
    """:class:`KVCache` interface over one slot row of a pooled arena.

    ``k``/``v`` are ``(n_heads, max_seq, head_dim)`` views into the
    owning :class:`PooledKVCache`'s arena, so every append/truncate
    writes the shared storage in place; only ``length`` is per-view
    state.  All inherited methods work unchanged.
    """

    def __init__(self, k: np.ndarray, v: np.ndarray) -> None:
        self.k = k
        self.v = v
        self.length = 0


class PooledKVCache:
    """Block-allocated K/V arena shared by up to ``n_slots`` sequences.

    Layout is one ``(n_slots, n_heads, max_seq, head_dim)`` array pair
    per transformer block.  A sequence acquires a slot, receives the
    per-block row views for it (each a :class:`KVCache`-compatible
    object backed by arena memory), decodes, and releases the slot for
    the next pending sequence — the continuous-batching scheduler's
    refills therefore cost zero allocations.  Stale K/V beyond a view's
    ``length`` is never read (attention consumes ``keys()``/``values()``
    prefixes only), so slots are handed out without clearing and the
    arena is allocated uninitialised.
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
        self._views = [
            [_SlotView(self._k[layer][slot], self._v[layer][slot])
             for layer in range(n_layers)]
            for slot in range(n_slots)
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
        """Snapshot-style copy-on-fork: copy ``src``'s filled prefix into
        ``dst``.  Only ``length`` rows move — the bounded-prefix analogue
        of :meth:`KVCache.snapshot`/``restore`` inside the arena, and the
        replacement for per-beam full-cache clones."""
        for layer, (k, v) in enumerate(zip(self._k, self._v)):
            length = self._views[src][layer].length
            k[dst, :, :length] = k[src, :, :length]
            v[dst, :, :length] = v[src, :, :length]
            self._views[dst][layer].length = length

    def load(self, slot: int, caches: list[KVCache]) -> None:
        """Copy external per-block caches (e.g. an adopted prefilled
        session's) into ``slot``."""
        for layer, cache in enumerate(caches):
            self._k[layer][slot, :, : cache.length] = cache.keys()
            self._v[layer][slot, :, : cache.length] = cache.values()
            self._views[slot][layer].length = cache.length
