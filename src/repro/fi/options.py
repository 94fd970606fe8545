"""The option wave: multiple-choice trials as option rows sharing forwards.

A multiple-choice trial has no decode to share, but it needs only the
option forwards its fault can reach.  A fault in block ``L`` reaches no
block before it, so a trial's row runs from ``L`` on from its example's
fault-free pass (:class:`~repro.fi.golden.GoldenOptions`) — from the
embedding where the pass keeps no state (:meth:`GoldenOptions.entry`) —
its fault keyed to its own rows (:func:`~repro.fi.wave.row_fault`).

A weight fault is read by every option's forward: its trial runs one row
per option class, each member scored off its leader's logits with its
own tokens, when :func:`admits_sharing` admits the struck element
(``campaign.mc_golden.rows_shared``), and one row per option when it
refuses (``.share_refused``).  A one-shot fault (computational,
accumulator, KV) fires in the first option forward that runs its layer —
option 0's, unless the layer is an MoE expert no token of that option is
routed to — and in none after: its trial's row is option 0 and, while it
has not fired, the next option in a further forward; every option but
the one it fired in keeps its golden score.

A trial is a ``(key, site, golden)`` triple and nothing else: the key
names it in the result, and rows of any trials — of any examples, struck
blocks or cells — equally long share a forward, as many as
:data:`~repro.fi.wave._DECODE_BATCH` and :data:`_OPTION_ROW_TOKENS`
allow.  Bit for bit, each trial scores what one ``forward_full(prompt +
option)`` per option scores with its fault armed engine-wide.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Hashable, Iterator

from repro.fi.golden import GoldenOptions, MaskBounds, score_option_rows, shares_row
from repro.fi.sites import FaultSite
from repro.fi.wave import _DECODE_BATCH, _ROW_KEYED, row_fault
from repro.generation.decode import option_logp
from repro.generation.round import count_plan
from repro.inference.engine import InferenceEngine
from repro.obs.runtime import telemetry as _telemetry

__all__ = ["admits_sharing", "option_scores"]

_OPTION_ROW_TOKENS = 512
"""Most tokens one forward of option rows takes (rows of length ``t`` go
``512 // t`` to a forward, at least one and at most
:data:`~repro.fi.wave._DECODE_BATCH`).  Its activations are rows x
``t`` x ``d_model``; its logits only rows x read window x vocabulary,
the window running from the shortest prompt's last position.  Measured
on ``campaign_mc_mem`` (2-vCPU host, alternated pairs, one row per
option class) with freed heap kept mapped (``repro.inference.engine``):
512 tokens read a median 3 366 trials/s against 256's 3 108 (6 of 6
pairs) for +0.4 MB ``peak_rss_mb`` (about 45.6 MB); 1 024 read 3 261
against 512's 3 345, winning 1 of 6.  Under glibc's default thresholds a
wider forward faults more of its temporaries in afresh, and 512 lost to
256."""


@dataclass(eq=False)
class _Scoring:
    """One trial's scores so far, and what it ran for them."""

    key: Hashable
    site: FaultSite
    golden: GoldenOptions
    scores: list[float]
    fired: bool = False
    ran: int = 0
    """Option rows run."""
    computed: int = 0
    """Block passes those rows ran."""
    shared: int = 0
    """Options scored off their leader's row."""


_Row = tuple[_Scoring, int, list[int]]
"""``(trial, option whose row runs, options scored off that row)``."""


def option_scores(
    engine: InferenceEngine,
    trials: "list[tuple[Hashable, FaultSite, GoldenOptions]]",
    bounds: MaskBounds | None,
) -> dict:
    """``key -> (option scores, fired)`` of ``(key, site, golden)``
    trials on ``engine``, whose mask-exactness tables are ``bounds``
    (``None`` where no option class shares a row)."""
    scoring = [_Scoring(key, site, golden, list(golden.scores)) for key, site, golden in trials]
    todo, refused = _first_rows(engine, scoring, bounds)
    while todo:
        for rows in _forwards(todo):
            _run_rows(engine, rows)
        todo = [
            (t, t.ran, [t.ran]) for t in scoring
            if not t.fired and t.ran < len(t.scores)
        ]
    _count(engine, scoring, refused)
    return {t.key: (t.scores, t.fired) for t in scoring}


def admits_sharing(engine: InferenceEngine, bounds: MaskBounds, site: FaultSite) -> bool:
    """Whether a weight fault at ``site`` leaves the option rows' mask
    exact (:func:`~repro.fi.golden.shares_row`), from the value its
    injector writes."""
    store = engine.weight_store(site.layer_name)
    value = store.faulted_value(site.row, site.col, list(site.bits))
    return shares_row(bounds, site, value)


def _first_rows(
    engine: InferenceEngine, scoring: list[_Scoring], bounds: MaskBounds | None
) -> tuple[list[_Row], int]:
    """Every trial's first rows, each trial's plan counted, and how many
    trials with option classes the bound refused a shared row."""
    todo: list[_Row] = []
    refused = 0
    for t in scoring:
        golden, model = t.golden, t.site.fault_model
        if not model.is_memory:
            count_plan("option_rows", _ROW_KEYED[model.surface].reason)
            todo.append((t, 0, [0]))
            continue
        count_plan("option_rows", "weight_fault")
        if golden.shared and admits_sharing(engine, bounds, t.site):
            leaders = list(dict.fromkeys(golden.leaders))
            todo += [(t, i, golden.members(i)) for i in leaders]
            t.shared = len(golden.options) - len(leaders)
        else:
            refused += golden.shared
            todo += [(t, i, [i]) for i in range(len(golden.options))]
    return todo, refused


def _forwards(todo: list[_Row]) -> Iterator[list[_Row]]:
    """``todo`` as the rows of forwards: equally long rows together, in
    the order they came, as many to a forward as the widths allow."""
    by_length: dict[int, list[_Row]] = {}
    for row in todo:
        golden = row[0].golden
        by_length.setdefault(len(golden.prompt) + len(golden.options[row[1]]), []).append(row)
    for length, rows in by_length.items():
        width = min(_DECODE_BATCH, max(1, _OPTION_ROW_TOKENS // length))
        for at in range(0, len(rows), width):
            yield rows[at : at + width]


def _run_rows(engine: InferenceEngine, rows: list[_Row]) -> None:
    """One forward of ``rows``, each entering at its trial's struck block
    under its trial's row-keyed fault; a fired trial keeps the scores
    its rows read."""
    mine: dict[_Scoring, list[int]] = {}
    for i, (t, _, _) in enumerate(rows):
        mine.setdefault(t, []).append(i)
    entries = [t.golden.entry(t.site.block, option) for t, option, _ in rows]
    with ExitStack() as armed:
        faults = {
            t: armed.enter_context(row_fault(engine, t.site, ids))
            for t, ids in mine.items()
        }
        logits, starts = score_option_rows(engine, [
            (t.golden, option, entry) for (t, option, _), entry in zip(rows, entries)
        ])
    read = [(i, t, j) for i, (t, _, members) in enumerate(rows) for j in members]
    got = option_logp(
        logits,
        [starts[i] for i, _, _ in read],
        [t.golden.options[j] for _, t, j in read],
        [i for i, _, _ in read],
    )
    for (_, t, j), score in zip(read, got):
        if faults[t].fired:
            t.fired, t.scores[j] = True, score
    n_blocks = engine.config.n_blocks
    for (t, _, _), entry in zip(rows, entries):
        t.ran += 1
        t.computed += n_blocks - entry
    tel = _telemetry()
    if tel.active:
        tel.metrics.histogram("campaign.wave.width").observe(len(rows))


def _count(engine: InferenceEngine, scoring: list[_Scoring], refused: int) -> None:
    """Of each trial's option rows through every block, the reference's
    work, ``computed`` ran here; of its options, ``ran`` ran a row,
    ``shared`` read a leader's, and the rest kept their golden scores."""
    tel = _telemetry()
    if not tel.active:
        return
    metrics, n_blocks = tel.metrics, engine.config.n_blocks
    metrics.counter("campaign.mc_golden.share_refused").add(refused)
    for t in scoring:
        passes = len(t.scores) * n_blocks
        metrics.counter("campaign.mc_golden.block_passes").add(passes)
        metrics.counter("campaign.mc_golden.block_passes_skipped").add(passes - t.computed)
        metrics.counter("campaign.mc_golden.rows_shared").add(t.shared)
        metrics.counter("campaign.mc_golden.rows_reused").add(len(t.scores) - t.ran - t.shared)
