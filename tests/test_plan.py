"""A cell is a value: :class:`~repro.fi.plan.CellPlan`, and rows of two
cells sharing one wave.

A trial's work is a function of its site and its example's golden pass
alone, so the rows of two cells can share forwards: one generative
``Wave`` over the rows of a ``1bit-comp`` and a ``2bits-mem`` cell, one
option wave over the trials of three multiple-choice cells, each cell's
records the ones its own ``decode_strategy="serial"`` run produces.
"""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.fi import FaultModel, assert_records_equal
from repro.fi.options import option_scores
from repro.fi.plan import CellPlan, example_id
from repro.fi.wave import _DECODE_BATCH, Wave, WaveRow
from repro.inference import InferenceEngine
from repro.tasks import ARCTask, GSM8kTask, MMLUTask, TranslationTask

from tests.test_golden import campaign, clean_obs  # noqa: F401 — autouse fixture

ROOT = Path(__file__).parent.parent
N_TRIALS = 8
"""Per cell: the two cells of a wave fit its sixteen slots together."""


def counting(engine, names):
    """Wrap ``engine``'s forwards ``names``; returns the list their calls
    append to."""
    calls = []
    for name in names:
        forward = getattr(engine, name)

        def counted(*args, _forward=forward, **kw):
            calls.append(1)
            return _forward(*args, **kw)

        setattr(engine, name, counted)
    return calls


class TestCellPlan:
    def test_a_plan_is_a_frozen_value(self, untrained_store, tokenizer, world):
        camp = campaign(untrained_store, tokenizer, MMLUTask(world), FaultModel.MEM_2BIT)
        plan = camp.plan
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.seed = 1
        again = CellPlan.build(
            tokenizer, plan.task_name, plan.metrics, list(plan.examples),
            plan.fault_model, plan.seed, plan.generation,
        )
        assert again == plan and again.fingerprint() == camp.fingerprint()
        assert plan.is_mc and plan.example_ids == tuple(map(example_id, plan.examples))
        prompt, options = plan.token_ids[0]
        assert prompt == tuple(tokenizer.encode(plan.examples[0].prompt))
        assert all(isinstance(option, tuple) for option in options)
        assert [plan.key(t) for t in range(3)] == [camp.trial_key(t) for t in range(3)]
        # A site is a function of the plan and the trial alone.
        assert plan.site(camp.engine, 5) == again.site(InferenceEngine(untrained_store), 5)

    def test_a_plan_needs_an_example(self, tokenizer):
        with pytest.raises(ValueError, match="at least one example"):
            CellPlan.build(tokenizer, "mmlu", ("accuracy",), [], FaultModel.MEM_2BIT)


class TestRowsOfTwoCells:
    """Rows of two cells on one engine share forwards, and each cell's
    records are its serial run's."""

    @staticmethod
    def serial(store, tokenizer, task, fault_model, engine, **kw):
        return campaign(
            store, tokenizer, task, fault_model, engine=engine,
            decode_strategy="serial", **kw,
        ).run(N_TRIALS)

    @staticmethod
    def wave(cells, engine, generation) -> dict:
        """``{cell: records}`` of one ``Wave`` over every cell's rows."""
        records = {camp: {} for camp in cells}
        owner = {}
        for camp in cells:
            plan = camp.plan
            n = len(plan.examples)
            for trial in range(N_TRIALS):
                site = plan.site(engine, trial)
                row = WaveRow.of(trial, site, camp._golden[trial % n])
                if row.prefix is not None and site.iteration > len(row.golden.ids):
                    # Unreached: the trial is its golden run, unfired.
                    pred = camp._baseline_preds[trial % n]
                    records[camp][trial] = camp._record(site, trial % n, pred, False)
                else:
                    owner[row] = camp

        def done(w, tokens):
            camp = owner[w]
            n = len(camp.plan.examples)
            text = camp.tokenizer.decode(tokens)
            records[camp][w.trial] = camp._record(w.site, w.trial % n, text, w.injector.fired)

        Wave(engine, engine.new_pool(_DECODE_BATCH), generation, done).run(list(owner))
        return {camp: [got[t] for t in range(N_TRIALS)] for camp, got in records.items()}

    def test_one_wave_runs_the_rows_of_two_cells(self, trained_store, tokenizer, world):
        engine = InferenceEngine(trained_store)
        cells = {
            (TranslationTask(world), FaultModel.COMP_1BIT): None,
            (GSM8kTask(world), FaultModel.MEM_2BIT): None,
        }
        config = {"max_new_tokens": 8}
        for task, fault_model in cells:
            camp = campaign(
                trained_store, tokenizer, task, fault_model, engine=engine,
                generation=config,
            )
            camp.compute_baseline()
            assert camp.trial_plan()[0] == "wave"
            cells[task, fault_model] = camp
        generation = {camp.plan.generation for camp in cells.values()}
        assert len(generation) == 1  # one config, so one round
        (generation,) = generation
        forwards = counting(engine, ["forward_step_batch", "forward_chunk_batch"])
        shared = self.wave(list(cells.values()), engine, generation)
        together = len(forwards)
        for camp in cells.values():
            alone = self.wave([camp], engine, generation)
            assert alone[camp] == shared[camp]
        # Each cell alone ran forwards the shared wave ran once.
        assert together < len(forwards) - together
        for (task, fault_model), camp in cells.items():
            reference = self.serial(
                trained_store, tokenizer, task, fault_model, engine, generation=config
            )
            assert_records_equal(shared[camp], reference.trials, "shared wave", "serial")

    def test_one_option_wave_runs_the_trials_of_three_cells(
        self, trained_store, tokenizer, world
    ):
        engine = InferenceEngine(trained_store)
        mmlu = MMLUTask(world)
        cells = {
            (mmlu, FaultModel.MEM_2BIT): None,
            (mmlu, FaultModel.COMP_1BIT): None,
            (ARCTask(world), FaultModel.COMP_1BIT): None,
        }
        trials = {}
        for task, fault_model in cells:
            camp = cells[task, fault_model] = campaign(
                trained_store, tokenizer, task, fault_model, engine=engine
            )
            camp.compute_baseline()
            assert camp.trial_plan()[0] == "wave"
            n = len(camp.plan.examples)
            trials[camp] = [
                ((task.name, fault_model, t), camp.plan.site(engine, t), camp._golden[t % n])
                for t in range(N_TRIALS)
            ]
        # One engine, one set of mask-exactness tables.
        bounds = next(iter(cells.values()))._bounds
        assert bounds is not None
        assert all(camp._bounds is bounds for camp in cells.values())
        forwards = counting(engine, ["forward_chunk_batch"])
        scores = option_scores(engine, sum(trials.values(), []), bounds)
        together = len(forwards)
        for camp in cells.values():
            alone = option_scores(engine, trials[camp], bounds)
            assert alone == {key: scores[key] for key, _, _ in trials[camp]}
        # The two mmlu cells' rows are equally long: they shared forwards.
        assert together < len(forwards) - together
        for (task, fault_model), camp in cells.items():
            n = len(camp.plan.examples)
            records = []
            for t, (key, site, _) in enumerate(trials[camp]):
                options, fired = scores[key]
                records.append(camp._record(site, t % n, int(np.argmax(options)), fired))
            reference = self.serial(trained_store, tokenizer, task, fault_model, engine)
            assert_records_equal(records, reference.trials, "shared option wave", "serial")


_LONG_ALLOWED = {
    "generation/decode.py": {"beam_search_decode"},
}
"""The named exceptions to the sixty-line bound, each still over it."""


def test_no_inference_fi_or_generation_function_is_longer_than_sixty_code_lines():
    """``scripts/code_lines.py``'s count: non-blank, non-comment lines
    from a function's ``def`` to its end, docstring and nested
    functions included.  Every module of ``repro.inference``,
    ``repro.fi`` and ``repro.generation``; a named exception that is no
    longer over sixty fails too, so it is struck from the list."""
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    src = ROOT / "src" / "repro"
    for package in ("inference", "fi", "generation"):
        for path in sorted((src / package).glob("*.py")):
            allowed = _LONG_ALLOWED.get(path.relative_to(src).as_posix(), set())
            long = {name for name, n in code_lines.functions(path) if n > 60}
            assert long == allowed, path
