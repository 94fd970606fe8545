"""Experiment harness: the study table, its runners and reporting."""

from repro.harness.context import ExperimentContext

# `fig03_overall` is here for benchmarks/ledger's `harness.fig03_mini_s`
# probe, which imports it from this package; every other experiment is
# reached through STUDY / run_study.
from repro.harness.experiments import (
    GENERAL_MODELS,
    STUDY,
    TASK_MODELS,
    fig03_overall,
    run_study,
)
from repro.harness.results import (
    ExperimentResult,
    format_campaign,
    format_table,
    load_result,
    save_result,
)

__all__ = [
    "ExperimentContext",
    "ExperimentResult",
    "GENERAL_MODELS",
    "STUDY",
    "TASK_MODELS",
    "fig03_overall",
    "format_campaign",
    "format_table",
    "load_result",
    "run_study",
    "save_result",
]
