"""Golden runs: a campaign's one fault-free pass per example — its
baseline, and the computation an injected trial reuses.

Two of them, one per axis a fault cannot travel along.  A transient
fault cannot reach *earlier iterations*: :class:`GoldenRun` is the
fault-free decode a generative trial resumes from.  No fault can reach
*earlier blocks*, and a one-shot fault cannot reach the option forwards
other than the one it fired in: :class:`GoldenOptions` is the
fault-free scoring pass a multiple-choice trial resumes from.  The two
axes meet in a generative trial's later forwards: a one-shot fault
cannot reach the blocks below its *entry* — the first block whose K/V
the struck forward left off the run — in any later forward, while the
trial's tokens are the run's, so those blocks replay the run there.
Either pass is its example's only fault-free reference in an ``auto``
campaign: the baseline is read off it, and nothing decodes or scores
the example fault-free a second way.  Only a wave's trials reuse it; a
trial that runs alone runs the reference from the prompt
(``FICampaign.trial_plan``).

**Multiple-choice trials.**  A trial struck in block ``L`` reruns option
rows from ``L`` on, from the state that entered ``L`` in its example's
pass (:func:`score_option_rows`).  Under a weight fault that is every
option row (one per option class, below, when the bound admits it);
under a transient fault, options one at a time until it has fired.
The fault is keyed to the trial's own rows rather than armed
engine-wide, so the rows of many trials — of any examples and struck
blocks, equally long, each entering at its own block — share one
forward, each reading its own faulted copy of the struck tensor or
struck by its own pinned injector.

**Option classes.**  Options of one length that agree on all but their
last token — every option of a one-token task — read the same logits
at every read-window position but the last, which no score reads: in a
causal forward the last token reaches an earlier position only through
a masked attention entry, and a masked entry adds nothing while (i) its
softmax weight is exactly 0 — the mask writes ``-1e9`` over its score,
and its row's maximum, over at least the query's own position, is far
above that — and (ii) the value it weights is finite: ``0 x v`` is a
signed zero, and an accumulator that starts at ``+0`` is unchanged by
one.  So a class scores off one row, its leader's, each member
``option_logp`` over the leader's logits with its own tokens
(:class:`GoldenOptions`).  Both conditions hold while every attention
score stays below ``1e8`` in magnitude and every activation below
``1e15``, which :class:`MaskBounds` bounds per block from the weights,
once per weights digest (:func:`mask_bounds`): an RMSNorm output by
``sqrt(d)·|g|`` whatever its finite input; a linear output column ``j``
by ``sum_i in_i·|W_ij|`` over its inputs' bounds; RoPE at most doubles
an element; attention's output by V's bound; ``silu(gate)·up`` by
``|gate|·|up|``; the residual stream by the embedding's maximum plus
every block's out_proj and down bounds.  The pristine bound decides
whether an engine forms classes at all (none on MoE: a token's routing
changes the rows an expert's product runs over, and with them every
product of that run); :func:`shares_row` decides a weight-fault trial,
with its struck element at its faulted value.  It refuses, for one, a
bf16 exponent-MSB flip in q_proj (about ``1e38``): a query can then
score every key it sees below ``-1e9``, and the masked key takes the
weight.  A refused trial runs every option's row, a member's from the
embedding (its pass keeps only the leader's state).

**Generative trials.**

Greedy decoding is deterministic and every transient injector
(computational, KV-cache, accumulator) is one-shot and timed to one
generation iteration ``k``, so everything a trial computes before the
forward tagged ``k`` is, bit for bit, the fault-free run of its example.
A :class:`GoldenRun` keeps that run once — token ids, per-iteration
logits and one full-length K/V snapshot per block — and hands trials the
state they would otherwise recompute.

**States.**  Forward 0 is the prompt forward; forward ``i >= 1`` feeds
golden token ``i - 1`` and produces the logits that pick token ``i``.
``S_j`` is the decode state after forward ``j``: every cache holds
``prompt_len + j`` positions, ``iteration == j`` and ``last_logits`` is
forward ``j``'s output.  A strike at iteration ``k`` resumes at
``S_(k-1)``: the first forward the trial runs is the one tagged ``k``,
over the inputs the full decode would have fed it.

**Any width.**  The runs a campaign needs are decoded together, as rows
of one :class:`~repro.generation.round.DecodeRound`.  The engine's
batched entries are row-exact, so each row's logits and K/V are the bits
a ``Session.step`` loop over that prompt alone produces — and the bits
of the round an injected trial continues in, whatever else shares its
forwards.

**Unreached strikes.**  When the run ended at EOS after ``n`` tokens the
forwards tagged ``1..n`` exist and no other; a strike at ``k > n`` never
fires, so that trial *is* the golden run and needs no forward at all.

**Entries.**  A run also keeps the hidden state that entered every block
in each of its step forwards (:attr:`GoldenRun.inputs`, ``n_blocks x
d_model`` floats a forward).  Take forward ``j`` of a trial whose tokens
so far are the run's and whose blocks ``0..e-1`` hold the run's K/V at
every position: those blocks compute the run's outputs, so the state
entering block ``e`` is the run's, and the forward may enter there
(:meth:`GoldenRun.enter`).  The struck forward ``k`` enters at the struck
block; after it the entry is the first block at or above that whose K/V
at the position forward ``k`` wrote differs from the run's
(:meth:`GoldenRun.entry`), and it stays there while the tokens match.
Blocks below an entry append nothing, so their caches lag; a trial whose
token leaves the run fills them from the run's snapshots
(:meth:`GoldenRun.fill`) and runs whole from then on.  An entry of
``n_blocks`` with the run's token is the trial back on the run at
``S_k``: the rest of its decode is the run's.  Which fault surfaces take
entries is a column of the wave's per-surface table
(:data:`repro.fi.wave._ROW_KEYED`): the one-shot ones (computational,
accumulator), since a weight fault is read by every later forward and a
KV fault can corrupt a position the struck-position check does not
read.

**Who owns a pass.**  The engine it was computed on, not the campaign
that happened to compute it: a study sweeps every (model, task) pair
under several fault models, and the cells of one pair — same engine,
same weights, same examples, same decoding config — would decode the
same passes again.  :data:`_SHARED` keeps, per engine and weakly keyed
by it, the *one* example set its latest campaign swept
(:class:`SharedBaseline`: the passes, the baseline read off them and the
scores that seed ``FICampaign._scored``) under a key of everything they
are a function of (:func:`weights_digest`, every example's token ids,
the ``GenerationConfig``, what the scores were computed against).
:func:`take_shared` hands a campaign with the same key the entry and drops
one with another key *before* that campaign decodes its own, so an
engine never has more than one example set resident.  Passes are
immutable once built and shared read-only (a restore writes into caches
the caller hands it); :func:`forget` drops an engine's entry for a cold
baseline.
"""

from __future__ import annotations

import hashlib
import math
import weakref
from dataclasses import dataclass

import numpy as np

from repro.fi.sites import FaultSite
from repro.generation.decode import GenerationConfig, option_logp
from repro.generation.round import (
    Admission,
    DecodeRound,
    _by_length,
    count_plan,
    decode_plan,
    decode_to_completion,
)
from repro.inference.engine import InferenceEngine
from repro.inference.kvcache import KVCache, PooledKVCache
from repro.obs.runtime import telemetry as _telemetry

__all__ = [
    "GoldenRun",
    "GoldenOptions",
    "MaskBounds",
    "SharedBaseline",
    "forget",
    "mask_bounds",
    "shares_row",
]


@dataclass(eq=False)
class GoldenRun:
    """One example's fault-free run, restorable at any ``S_j`` on any
    engine over the weights it was decoded with (a pool worker's)."""

    config: GenerationConfig
    prompt: list[int]
    ids: list[int]
    logits: list[np.ndarray]
    """``logits[j]`` is forward ``j``'s output; ``len(ids)`` entries,
    plus the EOS-producing one when the run ended at EOS."""
    snaps: list[tuple[np.ndarray, np.ndarray, int]]
    """One full-length K/V snapshot per block.  Like every field, never
    written after the build: campaigns share a run (:data:`_SHARED`)."""
    inputs: list[np.ndarray]
    """``inputs[j - 1]``: the ``(n_blocks, d_model)`` hidden state that
    entered each block in forward ``j >= 1`` — the arrays the sweep's
    step forwards computed, kept off its round
    (:attr:`~repro.generation.round.Row.block_inputs`)."""

    @classmethod
    def decode_many(
        cls,
        engine: InferenceEngine,
        prompts: list[list[int]],
        config: GenerationConfig,
        pool: PooledKVCache | None = None,
    ) -> "list[GoldenRun]":
        """Prefill every prompt and decode it greedily to the end as a
        ``DecodeRound`` row: EOS is not emitted and a full budget retires
        without a final forward.  ``config.num_beams`` is not read: a
        beam-search campaign keeps no run.

        The rows share forwards, as many at a time as ``pool`` (default:
        one slot) has free slots; freed slots are back-filled.
        """
        if pool is None:
            pool = engine.new_pool(1)
        logits: list[list[np.ndarray]] = [[] for _ in prompts]
        inputs: list[list[np.ndarray]] = [[] for _ in prompts]
        runs: list = [None] * len(prompts)

        def keep(row, reason) -> None:
            logits[row.key].append(row.logits[-1])
            if row.block_inputs is not None:  # a step forward's event
                inputs[row.key].append(row.block_inputs)
            if reason is not None:
                # The round has released the slot, but nothing acquires
                # one before this returns: its views still hold the run.
                runs[row.key] = cls(
                    config, row.prompt, row.out,
                    logits[row.key], [c.snapshot() for c in row.caches],
                    inputs[row.key],
                )

        decode_to_completion(
            DecodeRound(engine, pool, config.eos_id, keep_block_inputs=True),
            [Admission(i, p, config.max_new_tokens) for i, p in enumerate(prompts)],
            pool.n_slots,
            on_event=keep,
        )
        tel = _telemetry()
        if tel.active:
            tel.metrics.counter("campaign.golden.builds").add(len(runs))
        return runs

    def fill(self, caches: list[KVCache], j: int, stop: int) -> None:
        """Blocks ``0..stop-1`` of ``caches`` to their ``S_j`` K/V: one
        bounded restore a block.  All of them, with :attr:`logits`
        ``[j]``, are the state ``S_j`` — what a wave row resumed there
        starts from, in the pool slot its round acquired (two trials of
        one example may be in flight at once, so the run keeps no state
        of its own)."""
        length = len(self.prompt) + j
        for cache, snap in zip(caches[:stop], self.snaps):
            cache.restore(snap, length)

    def resume_point(self, k: int) -> int:
        """The ``j`` of the state ``S_j`` a trial struck at iteration
        ``k >= 1`` resumes at, counted as resumed: ``k - 1``, at most the
        run's last state (an unreached strike, which a wave records
        without restoring it)."""
        j = min(k - 1, len(self.ids))
        tel = _telemetry()
        if tel.active:
            tel.metrics.counter("campaign.golden.replayed_tokens").add(j)
            if k > len(self.ids):
                tel.metrics.counter("campaign.golden.unreached").add()
        return j

    def entry(self, k: int, block: int, caches: list[KVCache]) -> int:
        """The first block from ``block`` up whose K/V at the positions
        forward ``k`` wrote (the prompt's, for ``k == 0``) differs bit
        for bit from this run's, or ``n_blocks`` when none does:
        ``caches`` are a decode's that ran forward ``k`` from
        ``S_(k-1)`` (from nothing, for ``k == 0``), every block below
        ``block`` on this run's bits.  While that decode feeds this run's
        tokens, its later forwards compute this run's bits below the
        entry (:meth:`enter`); at ``n_blocks`` with this run's token
        ``k`` it is back on this run at ``S_k``."""
        stop = len(self.prompt) + k
        start = 0 if k == 0 else stop - 1
        for b in range(block, len(self.snaps)):
            snap_k, snap_v, _ = self.snaps[b]
            if not (
                _same_bits(caches[b].k[:, start:stop], snap_k[:, start:stop])
                and _same_bits(caches[b].v[:, start:stop], snap_v[:, start:stop])
            ):
                return b
        return len(self.snaps)

    def enter(self, j: int, block: int) -> tuple[int, np.ndarray]:
        """A row's entry (:attr:`~repro.generation.round.Row.enter`) into
        forward ``j >= 1`` at ``block``: this run's state entering it."""
        return block, self.inputs[j - 1][block : block + 1]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two float32 arrays: ``-0.0`` is not ``0.0``
    and a NaN equals only the same NaN."""
    return np.array_equal(a.view(np.uint32), b.view(np.uint32))


def _option_rows(
    engine: InferenceEngine,
    rows: list[tuple[list[int], list[int]]],
    **forward_kw,
) -> tuple[np.ndarray, list[int]]:
    """The logits window of ``(prompt, option)`` pairs of one length
    ``prompt + option``, as rows of one cache-less ``forward_chunk_batch``
    from position 0, row ``i`` with id ``i``, read from the shortest
    prompt's last position on — where the earliest option's first token
    is predicted — and per row the window position its option's first
    token is predicted at.  The batched entry is row-exact and its read
    window exact, so row ``i`` holds what ``forward_full(prompt +
    option)`` does there, bit for bit, under whatever is armed on the
    engine for it."""
    read_from = min(len(prompt) for prompt, _ in rows) - 1
    zeros = [0] * len(rows)
    logits = engine.forward_chunk_batch(
        [prompt + option for prompt, option in rows], None, zeros, zeros,
        read_from=read_from, **forward_kw,
    )
    return logits, [len(prompt) - 1 - read_from for prompt, _ in rows]


def option_classes(options: list[list[int]]) -> list[int]:
    """Per option, its class leader: the first option of its length that
    agrees with it on all but its last token — itself when none comes
    before it."""
    first: dict[tuple, int] = {}
    return [
        first.setdefault((len(option), tuple(option[:-1])), i)
        for i, option in enumerate(options)
    ]


@dataclass(eq=False)
class GoldenOptions:
    """One multiple-choice example's fault-free scoring pass.

    The options of one length that agree on all but their last token are
    one *class* (:func:`option_classes`), scored off one row, its
    leader's, when the engine's :class:`MaskBounds` prove the mask exact
    (see the module docstring); otherwise every option is its own class.
    The class leaders of equal token length are one *group*: rows of one
    forward.  Kept per group: the hidden state that entered blocks
    ``1..n-1`` (block 0's input is the embedding gather, not worth
    keeping), and per option its score.  A fault in block ``L`` leaves
    every block before it computing exactly this pass, so a trial runs
    a leader's row from block ``L`` on (:func:`score_option_rows`, from
    :meth:`state`), beside other trials' rows of the same length, each
    under its own row-keyed fault; a member's row, whose state is not
    kept, runs from the embedding.  A weight fault is read by every
    option's forward: its trial reruns one row per class when
    :func:`shares_row` admits its struck element, else every option's
    row.  A one-shot computational fault leaves every option forward but
    the one it fires in untouched: a trial reruns its options one at a
    time until it has fired and keeps the golden :attr:`scores` of the
    rest.
    """

    prompt: list[int]
    options: list[list[int]]
    leaders: list[int]
    """Per option, the option whose row it is scored off: its class
    leader, itself when it leads."""
    groups: list[list[int]]
    """Leaders of each rows forward."""
    hidden: list[list[np.ndarray]]
    """``hidden[g][b - 1]``: the ``(rows, t, d_model)`` input of block
    ``b`` in group ``g``'s forward."""
    scores: list[float]

    @classmethod
    def build(
        cls,
        engine: InferenceEngine,
        prompt: list[int],
        options: list[list[int]],
        bounds: "MaskBounds | None" = None,
    ) -> "GoldenOptions":
        """Score every option on ``engine``, which must be pristine: a
        fault baked into this pass would be taken for fault-free by
        every trial that reuses it.  With ``bounds`` (the engine's, which
        prove its pristine mask exact) a class runs one row."""
        reason = decode_plan(engine)[1]
        if reason not in ("clean", "observer_hooks"):
            raise RuntimeError(
                f"golden option pass needs a pristine engine, found {reason}"
            )
        count_plan("option_rows", reason)
        leaders = (
            option_classes(options) if bounds is not None
            else list(range(len(options)))
        )
        groups = _by_length(sorted(set(leaders)), lambda i: len(options[i]))
        scores = [0.0] * len(options)
        inputs: list[list[np.ndarray]] = [[] for _ in groups]
        for group, kept in zip(groups, inputs):
            logits, starts = _option_rows(
                engine, [(prompt, options[i]) for i in group], block_inputs=kept,
            )
            scored = [j for j, leader in enumerate(leaders) if leader in group]
            rows = [group.index(leaders[j]) for j in scored]
            got = option_logp(
                logits, [starts[row] for row in rows],
                [options[j] for j in scored], rows,
            )
            for j, score in zip(scored, got):
                scores[j] = score
        hidden = [
            [x.reshape(len(group), -1, x.shape[-1]) for x in kept[1:]]
            for group, kept in zip(groups, inputs)
        ]
        tel = _telemetry()
        if tel.active:
            tel.metrics.counter("campaign.mc_golden.builds").add()
        return cls(prompt, options, leaders, groups, hidden, scores)

    @property
    def shared(self) -> bool:
        """Whether some class has members: an option scored off another
        option's row."""
        return any(leader != i for i, leader in enumerate(self.leaders))

    def members(self, leader: int) -> list[int]:
        """The options scored off ``leader``'s row, ``leader`` first."""
        return [i for i, own in enumerate(self.leaders) if own == leader]

    def entry(self, block: int, option: int) -> int:
        """The block ``option``'s row of a trial struck in ``block``
        enters at: ``block`` when this pass keeps its state there, else
        0 — a member's row, whose state only its leader's stands for at
        every position but the last, starts from the embedding."""
        return block if self.leaders[option] == option else 0

    def state(self, block: int, option: int) -> np.ndarray:
        """The ``(t, d_model)`` hidden state that entered ``block``
        (``>= 1``) in leader ``option``'s row of this pass."""
        g, row = next(
            (g, group.index(option))
            for g, group in enumerate(self.groups)
            if option in group
        )
        return self.hidden[g][block - 1][row]


def score_option_rows(
    engine: InferenceEngine,
    rows: "list[tuple[GoldenOptions, int, int]]",
) -> tuple[np.ndarray, list[int]]:
    """The logits window (:func:`_option_rows`) of ``(pass, option,
    block)`` rows, every ``prompt + option`` equally long (of one example
    or several), as one forward: row ``i`` enters ``block`` (from
    :meth:`GoldenOptions.entry`) from its pass's state entering it, or
    the embedding at ``block == 0``.  Rows of different entries share
    the forward.  Row ``i`` carries id ``i``: what is armed on ``engine``
    must not reach a block below a row's entry, and a fault keyed to row
    ``i`` (``MemoryFaultInjector(rows=)``, any other injector's
    ``batch_row=``) strikes that row alone."""
    enter = [
        (block, golden.state(block, option)) if block else None
        for golden, option, block in rows
    ]
    return _option_rows(
        engine,
        [(golden.prompt, golden.options[option]) for golden, option, _ in rows],
        enter=enter if any(enter) else None,
    )


# ----------------------------------------------------------------------------
# The mask-exactness bound: when options of one class may share a row.
# ----------------------------------------------------------------------------

_ACTIVATION_LIMIT = 1e15
"""Every activation bound a shared row must stay below: far enough from
float32's overflow (3.4e38; 1.8e19 for the square an RMSNorm takes) that
the residual stream stays finite, so every norm output keeps its bound
and every value is finite."""

_SCORE_LIMIT = 1e8
"""Every attention score bound a shared row must stay below: the mask
writes ``-1e9``, so a masked entry sits at least ``9e8`` below its row's
maximum and its softmax weight underflows to exactly 0."""


@dataclass(eq=False)
class _BlockBounds:
    """One dense block's tables, from the pristine weights (float64)."""

    inputs: dict[str, np.ndarray | None]
    """Layer type -> a bound on each of its input features: its norm's
    ``sqrt(d)·|g|`` for q/k/v/gate/up (``|x / rms(x)| <= sqrt(d)``),
    ``silu(gate)·up``'s for down (gate's column bound times up's:
    ``|silu(x)| <= |x|``), ``None`` for out_proj, whose every input V's
    bound bounds (softmax weights sum to 1)."""
    cols: dict[str, np.ndarray]
    """Layer type -> ``sum_i in_i·|W_ij|`` per output column ``j``, over
    its input bounds ``in`` (1 for out_proj)."""
    top: dict[str, float]
    """Layer type -> its largest column bound."""
    down_rows: np.ndarray
    """``max_k |W_down[i, k]|`` per row ``i``: how far a changed
    ``silu(gate)·up`` feature moves down's bound."""

    @classmethod
    def of(cls, engine: InferenceEngine, block: int) -> "_BlockBounds":
        cfg, prefix = engine.config, f"blocks.{block}."

        def norm(name: str) -> np.ndarray:
            gain = engine._plain[prefix + name + ".weight"].astype(np.float64)
            return np.sqrt(cfg.d_model) * np.abs(gain)

        def weight(layer: str) -> np.ndarray:
            return np.abs(engine.weight_store(prefix + layer).array.astype(np.float64))

        attn_in, mlp_in = norm("attn_norm"), norm("mlp_norm")
        inputs = {
            "q_proj": attn_in, "k_proj": attn_in, "v_proj": attn_in,
            "out_proj": None, "gate_proj": mlp_in, "up_proj": mlp_in,
        }
        cols = {"out_proj": weight("out_proj").sum(axis=0)}
        for layer in ("q_proj", "k_proj", "v_proj", "gate_proj", "up_proj"):
            cols[layer] = inputs[layer] @ weight(layer)
        inputs["down_proj"] = cols["gate_proj"] * cols["up_proj"]
        down = weight("down_proj")
        cols["down_proj"] = inputs["down_proj"] @ down
        top = {layer: float(col.max()) for layer, col in cols.items()}
        return cls(inputs, cols, top, down.max(axis=1))

    def peaks(
        self, score_scale: float, struck: tuple[str, int, int, float] | None = None
    ) -> tuple[float, float, float]:
        """``(score bound, residual growth bound, largest activation
        bound)`` of this block, with ``struck = (layer type, row, col,
        |value|)``: one weight at a finite faulted magnitude, whose term
        adds on top of its column's pristine bound."""
        peak, extra = self.top, 0.0
        if struck is not None:
            layer, r, c, mag = struck
            inputs = self.inputs[layer]
            column = float(self.cols[layer][c]) + (
                1.0 if inputs is None else float(inputs[r])
            ) * mag
            peak = {**peak, layer: max(peak[layer], column)}
            if layer in ("gate_proj", "up_proj"):
                # Feature c of silu(gate)·up moves to the struck column's
                # new bound times the other's; down's columns move by at
                # most that times row c's largest |weight|.
                other = "up_proj" if layer == "gate_proj" else "gate_proj"
                extra = column * float(self.cols[other][c] * self.down_rows[c])
        q, k, v = peak["q_proj"], peak["k_proj"], peak["v_proj"]
        o, d = v * peak["out_proj"], peak["down_proj"] + extra
        return (
            score_scale * q * k,
            o + d,
            max(q, k, v, o, peak["gate_proj"], peak["up_proj"], d),
        )


@dataclass(eq=False)
class MaskBounds:
    """Per-block tables of :func:`shares_row`, from one engine's weights
    as stored: built once per weights digest (:func:`mask_bounds`)."""

    score_scale: float
    """``4·sqrt(head_dim)``: ``|q·k|/sqrt(hd) <= hd·(2Q)(2K)/sqrt(hd)``,
    RoPE at most doubling an element (``|a·cos + b·sin| <= |a| + |b|``)."""
    blocks: list[_BlockBounds]
    residual: float
    """The pristine residual stream's bound past the last block: the
    embedding's largest ``|value|`` plus every block's out_proj and down
    bounds."""


def _pristine_bounds(engine: InferenceEngine) -> MaskBounds | None:
    """The engine's tables, or ``None`` when no class may share a row on
    it: an MoE engine (a token's routing changes an expert's run of rows,
    and so every product of that run), or a pristine forward the bound
    does not hold for."""
    cfg = engine.config
    if cfg.is_moe:
        return None
    scale = 4.0 * np.sqrt(cfg.head_dim)
    blocks = [_BlockBounds.of(engine, b) for b in range(cfg.n_blocks)]
    residual = float(np.abs(engine._plain["embed.weight"]).max())
    for block in blocks:
        score, growth, peak = block.peaks(scale)
        residual += growth
        if not (
            score < _SCORE_LIMIT and peak < _ACTIVATION_LIMIT
            and residual < _ACTIVATION_LIMIT
        ):
            return None
    return MaskBounds(scale, blocks, residual)


_BOUNDS: "weakref.WeakKeyDictionary[InferenceEngine, tuple[bytes, MaskBounds | None]]" = (
    weakref.WeakKeyDictionary()
)
"""Engine -> ``(weights digest, its tables)``: one set per engine,
rebuilt when the stored weights change."""


def mask_bounds(engine: InferenceEngine, digest: bytes) -> MaskBounds | None:
    """``engine``'s tables for the weights ``digest`` names
    (:func:`weights_digest`), built on first use."""
    cached = _BOUNDS.get(engine)
    if cached is None or cached[0] != digest:
        cached = _BOUNDS[engine] = (digest, _pristine_bounds(engine))
    return cached[1]


def shares_row(bounds: MaskBounds, site: FaultSite, value: float) -> bool:
    """Whether a weight fault at ``site``, writing ``value`` into its
    element, keeps the mask exact in every option row: then a class's
    members score off its leader's row bit for bit (module docstring).
    Pure: from ``bounds`` (pristine, so only the struck block moves) and
    the faulted value."""
    if not math.isfinite(value):
        return False
    score, growth, peak = bounds.blocks[site.block].peaks(
        bounds.score_scale, (site.layer_type, site.row, site.col, abs(float(value))),
    )
    return bool(
        score < _SCORE_LIMIT and peak < _ACTIVATION_LIMIT
        and bounds.residual + growth < _ACTIVATION_LIMIT
    )


# ----------------------------------------------------------------------------
# One fault-free pass per engine and example set.
# ----------------------------------------------------------------------------


@dataclass(eq=False)
class SharedBaseline:
    """What a baseline sweep leaves with its engine for the next
    campaign over the same weights, examples and decoding config."""

    key: tuple
    passes: "list[GoldenRun] | list[GoldenOptions]"
    preds: list
    metrics: dict
    scored: dict
    """The ``FICampaign._scored`` seeds: ``(idx, text) -> (metrics,
    outcome)`` of every baseline prediction."""


_SHARED: "weakref.WeakKeyDictionary[InferenceEngine, SharedBaseline]" = (
    weakref.WeakKeyDictionary()
)
"""Engine -> its single entry.  Weakly keyed, and nothing in an entry
refers to the engine, so the passes go when the engine does.  One entry,
not a table: a study visits a (model, task) pair's fault-model cells
back to back, and a second resident example set would be memory no
campaign holds today."""


def weights_digest(engine: InferenceEngine) -> bytes:
    """A content hash of every faultable weight as the forward reads it.

    A pass must never outlive the weights it was decoded on.  A write
    epoch on :class:`~repro.inference.storage.WeightStore` would miss the
    writers that bypass it (``mitigation/weight_guard.py`` zeroes
    ``store.array`` elements directly), so the key is the content: about
    half a millisecond per 0.65 MB of stores, against the tens a sweep
    costs.  Norm gains, embeddings and the head are fault-free by
    construction (no store, no injector, no guard writes them)."""
    digest = hashlib.sha256()
    for name in engine.linear_layer_names():
        digest.update(np.ascontiguousarray(engine.weight_store(name).array))
    return digest.digest()


def take_shared(engine: InferenceEngine, key: tuple) -> SharedBaseline | None:
    """``engine``'s entry when it was swept under ``key``.  An entry
    under another key is dropped here, before the caller decodes its own
    passes, so never two example sets are resident on one engine."""
    entry = _SHARED.get(engine)
    if entry is None:
        return None
    if entry.key != key:
        del _SHARED[engine]
        return None
    return entry


def leave_shared(engine: InferenceEngine, entry: SharedBaseline) -> None:
    """Leave ``entry`` with ``engine``, in place of whatever it held."""
    _SHARED[engine] = entry


def forget(engine: InferenceEngine) -> None:
    """Drop ``engine``'s entry: its next campaign sweeps a cold baseline."""
    _SHARED.pop(engine, None)
