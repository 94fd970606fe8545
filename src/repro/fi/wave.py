"""The generative wave: injected trials decoding as rows of one round.

A generative campaign's ``wave`` path (``FICampaign.trial_plan``) runs
its trials as rows of one :class:`~repro.generation.round.DecodeRound`,
each with its own budget and its own fault keyed to the row's id
(:func:`row_fault`).  The round owns every KV slot.  A row's record
(:class:`WaveRow`) is its key in the round, and the wave keeps nothing
else per row.

A trial struck at iteration ``k >= 1`` resumes its example's golden
state ``S_(k-1)`` with the budget the golden prefix left: the round
acquires its slot and the row's ``restore`` callback fills it from the
run (:meth:`~repro.fi.golden.GoldenRun.fill`, ``logits[j]``).  Two
trials of one example may be in flight, so neither owns the run's
state.  A trial that starts from its prompt (struck at iteration 0, or
by a fault the prompt forward reads) is prefilled into its slot with the
fault already armed (``before_prefill``).  That prompt forward carries
the row's id, so the row's fault is read from its prefill on and no
sibling's.  Either callback arms the row's fault on ``row.id``.  A
retiring row disarms its fault, its slot goes back to the round for the
next pending trial, and the campaign gets its tokens back (``done``).
The engine's batched forward is row-exact and every fault is keyed to
its row, so each row computes exactly what its trial computes decoded
alone.

A forward runs only where a trial can differ from its golden run.  The
rows that start from their prompt queue first, by prompt length, and
each round admits what fits as one burst, equally long prompts as rows
of one prompt forward.  An error travels up the stack and forward in
time, never down, so a row whose fault is one-shot (spent after the
forward tagged with its iteration ``k``, fired or not) runs only the
blocks its fault reached.  Its struck forward enters at the struck block
(a resumed row; a prefilled one runs its prompt whole).  After it, while
its tokens are the run's, every forward ``j`` enters at the first block
whose K/V the struck forward left off the run's bits
(:meth:`~repro.fi.golden.GoldenRun.entry`), from the run's state
entering it in forward ``j``: the blocks below replay the run
(``campaign.wave.replayed_blocks`` of ``row_blocks``).  A row with no
such block and the run's token ``k`` is back on its golden state
``S_k`` and retires at once with the run's tokens after its own
(``campaign.wave.back_on_golden``).  A row whose token leaves the run
fills its lower blocks' caches from the run and runs whole from then on
(``campaign.wave.diverged``).
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.fi.golden import GoldenRun
from repro.fi.injector import (
    AccumulatorFaultInjector,
    ComputationalFaultInjector,
    KVFaultInjector,
    MemoryFaultInjector,
)
from repro.fi.sites import FaultSite
from repro.generation.decode import GenerationConfig
from repro.generation.round import Admission, DecodeRound, Row
from repro.inference.engine import InferenceEngine
from repro.inference.kvcache import PooledKVCache
from repro.obs.runtime import telemetry as _telemetry

__all__ = ["Wave", "WaveRow", "row_fault"]

_DECODE_BATCH = 16
"""Continuous-batching width of a campaign's decode rounds, the golden
sweep's and the waves', and most rows of one option-row forward
(:mod:`repro.fi.options`): a batched step costs a fixed part (about a
third of it at width 6) plus a part per ragged row, so the wider round
is fewer, fuller steps, over slots sized to what the cell can reach
(``FICampaign._kv_slots``)."""


class RowKeyed(NamedTuple):
    """How one fault surface keys to batch rows."""

    injector: type
    reason: str
    """What :func:`~repro.generation.round.decode_plan` reports while
    one is armed: a wave's reason (``FICampaign.trial_plan``)."""
    keyword: str
    """The injector's row keyword: ``rows`` (any number of rows read one
    faulted weight copy) or ``batch_row`` (a transient fault pinned to
    its one row)."""
    from_prompt: bool
    """Whether a row starts from its prompt whatever its site's
    iteration: a weight fault is read from the prompt forward on."""
    entries: bool
    """Whether a row's later forwards skip the blocks its fault cannot
    reach (:meth:`~repro.fi.golden.GoldenRun.entry`): only a one-shot
    fault's do — a weight fault is read by every later forward, and a KV
    fault can corrupt a position the struck-position check does not
    read."""


_ROW_KEYED = {
    "weights": RowKeyed(MemoryFaultInjector, "row_weight_fault", "rows", True, False),
    "activations": RowKeyed(
        ComputationalFaultInjector, "row_scoped_hooks", "batch_row", False, True
    ),
    "kv-cache": RowKeyed(KVFaultInjector, "kv_fault", "batch_row", False, False),
    "accumulator": RowKeyed(
        AccumulatorFaultInjector, "acc_fault", "batch_row", False, True
    ),
}
"""Per fault surface (:attr:`FaultModel.surface`), every decision that
depends on it: the one table the campaign's option rows and the wave
read."""


def row_fault(
    engine: InferenceEngine, site: FaultSite, rows: "tuple[int, ...] | list[int]"
):
    """The injector that keys ``site``'s fault to the batch rows
    ``rows`` — a faulted weight copy for any of them, a transient fault
    pinned to its one row — so that rows sharing a forward with it
    compute what they compute alone."""
    keyed = _ROW_KEYED[site.fault_model.surface]
    if keyed.keyword == "batch_row":
        (rows,) = rows
    return keyed.injector(engine, site, **{keyed.keyword: rows})


@dataclass(eq=False)
class WaveRow:
    """One trial of a wave: the key of its row in the round."""

    trial: int
    site: FaultSite
    golden: GoldenRun
    prefix: list[int] | None
    """The golden run's tokens the row resumes after (``S_j`` with ``j
    = len(prefix)``), or ``None`` for a row that starts from its
    prompt."""
    injector: object = None
    """The row's fault, armed on ``row.id`` at admission."""
    entry: int = 0
    """The block a one-shot row's next forward enters at while its
    tokens are the run's, 0 for every block."""
    t0: float = 0.0
    """When the row was admitted: its trial's time in flight."""

    @classmethod
    def of(cls, trial: int, site: FaultSite, golden: GoldenRun) -> "WaveRow":
        """``trial``'s row: from its prompt when struck at iteration 0 or
        on a surface the prompt forward reads, else from the golden state
        its strike resumes at (:meth:`GoldenRun.resume_point`) — the
        run's last for a strike the run never reached."""
        if site.iteration == 0 or _ROW_KEYED[site.fault_model.surface].from_prompt:
            return cls(trial, site, golden, None)
        return cls(trial, site, golden, golden.ids[: golden.resume_point(site.iteration)])


class Wave:
    """One wave over ``pool``: :meth:`run` decodes its rows and hands
    each retiring one's tokens, the golden prefix first, to
    ``done(row, tokens)``."""

    def __init__(
        self,
        engine: InferenceEngine,
        pool: PooledKVCache,
        config: GenerationConfig,
        done: Callable[[WaveRow, list[int]], None],
    ) -> None:
        self.engine = engine
        self.config = config
        self.done = done
        self.round = DecodeRound(engine, pool, config.eos_id)
        self.n_blocks = engine.config.n_blocks
        self.tally: Counter = Counter()

    def run(self, rows: list[WaveRow]) -> None:
        """Decode ``rows`` until every one has retired.  Whatever
        raises, the round's slots are free and every fault disarmed
        when this returns."""
        rnd, tel = self.round, _telemetry()
        prompt_rows = sorted(
            (w for w in rows if w.prefix is None), key=lambda w: len(w.golden.prompt)
        )
        pending = deque(prompt_rows + [w for w in rows if w.prefix is not None])
        try:
            while pending or rnd.rows:
                burst = [
                    self._admission(pending.popleft())
                    for _ in range(min(len(pending), rnd.room()))
                ]
                for row, _, reason in rnd.admit_many(burst):
                    self._settle(row, reason)
                if tel.active and rnd.rows:
                    tel.metrics.histogram("campaign.wave.width").observe(len(rnd.rows))
                    self.tally["row_blocks"] += self.n_blocks * len(rnd.rows)
                    self.tally["replayed_blocks"] += sum(
                        row.enter[0] for row in rnd.rows if row.enter
                    )
                for row, _, reason in rnd.step():
                    self._settle(row, reason)
        finally:
            for row in list(rnd.rows):
                rnd.drop(row)
            for w in rows:  # a retired row's is already out: idempotent
                if w.injector is not None:
                    w.injector.__exit__(None, None, None)
        if tel.active:
            metrics = tel.metrics
            metrics.counter("campaign.wave.prompt_forwards").add(rnd.prompt_forwards)
            metrics.counter("campaign.wave.prompt_rows").add(len(prompt_rows))
            for name in ("back_on_golden", "diverged", "row_blocks", "replayed_blocks"):
                metrics.counter(f"campaign.wave.{name}").add(self.tally[name])

    def _admission(self, w: WaveRow) -> Admission:
        w.t0 = time.perf_counter()
        budget = self.config.max_new_tokens
        if w.prefix is None:
            return Admission(w, w.golden.prompt, budget, before_prefill=self._arm)
        return Admission(
            w, w.golden.prompt, budget - len(w.prefix), restore=self._restore
        )

    def _arm(self, row: Row) -> None:
        w = row.key
        w.injector = row_fault(self.engine, w.site, (row.id,)).__enter__()

    def _restore(self, row: Row) -> tuple[int, np.ndarray]:
        """``S_j`` into the row's slot, then its fault armed."""
        w = row.key
        j = len(w.prefix)
        w.golden.fill(row.caches, j, self.n_blocks)
        self._arm(row)
        return j, w.golden.logits[j]

    def _retire(self, row: Row, tokens: list[int]) -> None:
        w = row.key
        w.injector.__exit__(None, None, None)
        self.done(w, (w.prefix or []) + tokens)

    def _settle(self, row: Row, reason: str | None) -> None:
        """Retire a row that finished, and keep a one-shot row's entry:
        the struck block before its struck forward, then the first block
        that forward left off the golden run — the whole model once its
        token leaves the run, no block at all (back on golden: the rest
        of its decode is the run's) when none."""
        w = row.key
        if reason is not None:
            self._retire(row, row.out)
            return
        if not _ROW_KEYED[w.site.fault_model.surface].entries:
            return
        golden, k = w.golden, w.site.iteration
        j = row.iter0 + len(row.out) - 1  # the forward just run
        if j < k:  # resumed at ``S_(k-1)``
            entry = w.site.block
        elif not w.entry and j > k:
            return  # runs whole
        else:
            entry, w.entry = w.entry, 0
            if j >= len(golden.ids) or row.out[-1] != golden.ids[j]:
                if entry:
                    golden.fill(row.caches, j, entry)
                    self.tally["diverged"] += 1
                return
            if j == k:
                entry = golden.entry(k, entry, row.caches)
                if entry == self.n_blocks:
                    # ``prefix + row.out`` is the run's first ``k + 1``
                    # tokens.
                    self.round.drop(row)
                    self._retire(row, golden.ids[len(w.prefix or ()):])
                    self.tally["back_on_golden"] += 1
                    return
        if entry:
            w.entry = entry
            row.enter = golden.enter(j + 1, entry)
