"""Differential oracle: bit-identity between campaign execution paths.

The repo accumulates execution strategies — serial reference loops,
golden runs and option rows, continuous-batched decoding and waves,
multiprocess pools, checkpoint/resume — and every one of them
carries the same contract: *the optimization must not change a single
trial*.  This module is that contract's enforcement point, shared by
the test suite and usable from notebooks or scripts when validating a
new execution path.

Equality here is exact, not approximate: two paths agree when every
:class:`~repro.fi.campaign.TrialRecord` matches field-for-field
(site, prediction, outcome, metrics, ...).  Approximate closeness is
deliberately rejected — the FI-safety gates exist precisely so that
optimized paths fall back to the reference computation whenever
results could differ, so any drift is a bug, not noise.

Aggregate comparison (:func:`assert_results_equal`) compares the
derived statistics too, via ``repr`` — IEEE doubles round-trip
``repr`` exactly, and NaN (a legitimate "no classified trials"
aggregate) compares equal to itself, unlike under ``==``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from repro.fi.campaign import CampaignResult, TrialRecord

__all__ = [
    "record_signature",
    "result_signatures",
    "assert_records_equal",
    "assert_results_equal",
    "assert_sequences_equal",
]

_FIELDS = (
    "site",
    "example_index",
    "prediction",
    "outcome",
    "changed",
    "selection_changed",
    "fired",
    "error",
    "metrics",
)


def record_signature(record: "TrialRecord") -> tuple:
    """Everything a trial computed, in comparable form.

    ``metrics`` is a ``compare=False`` dataclass field (dicts don't
    hash), so plain ``TrialRecord.__eq__`` would silently ignore it —
    the signature folds it back in as sorted items.
    """
    return (
        record.site,
        record.example_index,
        record.prediction,
        record.outcome,
        record.changed,
        record.selection_changed,
        record.fired,
        record.error,
        tuple(sorted(record.metrics.items())),
    )


def _trials(obj) -> list:
    return list(obj.trials) if hasattr(obj, "trials") else list(obj)


def result_signatures(result) -> list[tuple]:
    """Signatures of a :class:`CampaignResult` (or iterable of records)."""
    return [record_signature(t) for t in _trials(result)]


def _diverging_fields(sig_a: tuple, sig_b: tuple) -> list[str]:
    return [
        name for name, va, vb in zip(_FIELDS, sig_a, sig_b) if va != vb
    ]


def assert_records_equal(
    a: "CampaignResult | Iterable[TrialRecord]",
    b: "CampaignResult | Iterable[TrialRecord]",
    label_a: str = "a",
    label_b: str = "b",
) -> None:
    """Assert two campaigns produced bit-identical trial sequences.

    Accepts :class:`CampaignResult` objects or bare record iterables.
    On mismatch the raised ``AssertionError`` pinpoints the first
    diverging trial and the fields that differ — a differential test's
    failure message should localize the bug, not just report it.
    """
    sigs_a = result_signatures(a)
    sigs_b = result_signatures(b)
    if len(sigs_a) != len(sigs_b):
        raise AssertionError(
            f"trial counts differ: {label_a} has {len(sigs_a)},"
            f" {label_b} has {len(sigs_b)}"
        )
    for i, (sig_a, sig_b) in enumerate(zip(sigs_a, sigs_b)):
        if sig_a == sig_b:
            continue
        fields = _diverging_fields(sig_a, sig_b)
        detail = "\n".join(
            f"  {name}: {label_a}={sig_a[_FIELDS.index(name)]!r}"
            f" vs {label_b}={sig_b[_FIELDS.index(name)]!r}"
            for name in fields
        )
        raise AssertionError(
            f"trial {i} diverges between {label_a} and {label_b}"
            f" on {', '.join(fields)}:\n{detail}"
        )


def assert_results_equal(
    a: "CampaignResult",
    b: "CampaignResult",
    label_a: str = "a",
    label_b: str = "b",
) -> None:
    """Assert full aggregate equality: trials, baseline, faulty, CIs.

    This is the resume/interrupt oracle: a stitched-together campaign
    must reproduce not just every trial but every derived statistic of
    an uninterrupted run.  Floats are compared through ``repr`` so NaN
    aggregates (all trials quarantined) compare equal to themselves.
    """
    assert_records_equal(a, b, label_a, label_b)
    for attr in ("task_name", "fault_model", "n_trials"):
        va, vb = getattr(a, attr), getattr(b, attr)
        assert va == vb, f"{attr}: {label_a}={va!r} vs {label_b}={vb!r}"
    for attr in ("baseline", "faulty", "normalized"):
        va, vb = repr(getattr(a, attr)), repr(getattr(b, attr))
        assert va == vb, f"{attr}: {label_a}={va} vs {label_b}={vb}"


def assert_sequences_equal(
    a: Sequence, b: Sequence, label_a: str = "a", label_b: str = "b"
) -> None:
    """Generic first-divergence assertion for token/output sequences."""
    if list(a) == list(b):
        return
    if len(a) != len(b):
        raise AssertionError(
            f"lengths differ: {label_a} has {len(a)}, {label_b} has {len(b)}"
            f" ({label_a}={list(a)!r}, {label_b}={list(b)!r})"
        )
    for i, (va, vb) in enumerate(zip(a, b)):
        if va != vb:
            raise AssertionError(
                f"element {i} diverges: {label_a}={va!r} vs {label_b}={vb!r}"
            )
