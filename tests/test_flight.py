"""Tests for the fault-forensics stack: flight recorder, Chrome trace
export and live campaign watch.

The load-bearing guarantee is *pure observation*: arming the flight
recorder must not change a single trial record (the recorder's whole
value is explaining campaigns whose aggregate numbers are trusted),
and its corruption-front probes must not disengage the batching /
speculation fast paths.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.fi import FaultModel, FICampaign
from repro.fi.differential import assert_records_equal
from repro.generation import GenerationConfig, decode_plan
from repro.inference import InferenceEngine
from repro.obs import (
    WatchState,
    chrome_trace,
    explain_run,
    explain_trial,
    export_trace,
    first_divergence,
    flight_recorder,
    flight_records,
    read_jsonl,
    read_run,
    render_comparison,
    telemetry,
    watch,
)
from repro.tasks import MMLUTask, TranslationTask, standardized_subset


@pytest.fixture(autouse=True)
def clean_obs():
    """Each test starts and ends with a disarmed recorder + telemetry."""
    tel, recorder = telemetry(), flight_recorder()
    tel.reset(), tel.disable()
    recorder.reset(), recorder.disarm()
    yield recorder
    tel.reset(), tel.disable()
    recorder.reset(), recorder.disarm()


def _mc_campaign(engine, tokenizer, world, fault_model=FaultModel.MEM_2BIT, **kw):
    task = MMLUTask(world)
    return FICampaign(
        engine=engine,
        tokenizer=tokenizer,
        task_name=task.name,
        metrics=task.metrics,
        examples=standardized_subset(task, 4),
        fault_model=fault_model,
        seed=5,
        **kw,
    )


def _gen_campaign(
    engine, tokenizer, world, fault_model=FaultModel.MEM_2BIT, seed=5
):
    task = TranslationTask(world)
    return FICampaign(
        engine=engine,
        tokenizer=tokenizer,
        task_name=task.name,
        metrics=task.metrics,
        examples=standardized_subset(task, 4),
        fault_model=fault_model,
        seed=seed,
        generation=GenerationConfig(
            max_new_tokens=12, eos_id=tokenizer.vocab.eos_id
        ),
    )


# ----------------------------------------------------------------------------
# Pure-observer guarantee
# ----------------------------------------------------------------------------


class TestPureObserver:
    def test_recorder_off_by_default(self):
        recorder = flight_recorder()
        assert recorder.active is False
        recorder.event("ignored", layer="x")  # no-op, must not raise
        assert recorder.drain() == []

    @pytest.mark.parametrize(
        "fault_model", FaultModel.all(), ids=lambda m: m.value
    )
    @pytest.mark.parametrize("build", [_mc_campaign, _gen_campaign])
    def test_armed_recorder_is_bit_identical(
        self, untrained_store, tokenizer, world, fault_model, build
    ):
        plain = build(
            InferenceEngine(untrained_store), tokenizer, world, fault_model
        ).run(5)
        recorder = flight_recorder().arm()
        armed = build(
            InferenceEngine(untrained_store), tokenizer, world, fault_model
        ).run(5)
        assert_records_equal(plain, armed, "recorder-off", "recorder-on")
        records = recorder.drain()
        assert len(records) == 5
        assert all(r["front"] for r in records)

    def test_armed_recorder_bit_identical_under_pool(
        self, untrained_store, tokenizer, world, tmp_path
    ):
        plain = _mc_campaign(
            InferenceEngine(untrained_store), tokenizer, world
        ).run(4)
        recorder = flight_recorder().arm()
        journal = tmp_path / "journal.jsonl"
        armed = _mc_campaign(
            InferenceEngine(untrained_store), tokenizer, world
        ).run(4, n_workers=2, checkpoint=journal)
        assert_records_equal(plain, armed, "serial-off", "pool-on")
        # Worker-side records merge back in trial order, each carrying
        # the pid of the process that ran its trial — the one the
        # journal names — and this process ran its share.
        records = recorder.drain()
        assert [r["trial"] for r in records] == [0, 1, 2, 3]
        ran_on = {
            line["trial"]: line["worker"]
            for line in read_jsonl(journal) if line.get("kind") == "trial"
        }
        assert {r["trial"]: r["worker_pid"] for r in records} == ran_on
        assert os.getpid() in ran_on.values()
        assert len(set(ran_on.values())) == 2

    def test_front_probes_keep_gates_engaged(self, untrained_engine):
        recorder = flight_recorder().arm()
        recorder.begin_trial(0, "k", {"layer_name": "x"}, 0)
        detach = recorder.attach_front(untrained_engine, iteration=0)
        try:
            assert len(untrained_engine.hooks) > 0
            assert decode_plan(untrained_engine)[0] == "batched"
            assert decode_plan(
                untrained_engine, untrained_engine
            )[0] == "composed"
        finally:
            detach()
        assert len(untrained_engine.hooks) == 0
        recorder.abort_trial()

    def test_abort_discards_open_trial(self):
        recorder = flight_recorder().arm()
        recorder.begin_trial(3, "k", {"layer_name": "x"}, 0)
        recorder.event("inject.arm", layer="x")
        recorder.abort_trial()
        assert recorder.drain() == []


# ----------------------------------------------------------------------------
# Recorded content + explain rendering
# ----------------------------------------------------------------------------


class TestFlightRecords:
    def test_first_divergence(self):
        assert first_divergence("a b c", "a b c") is None
        assert first_divergence("a x c", "a b c") == {
            "index": 1,
            "baseline": "b",
            "faulty": "x",
        }
        assert first_divergence("a b", "a b c") == {
            "index": 2,
            "baseline": "c",
            "faulty": None,
        }

    def test_records_carry_site_events_and_front(
        self, untrained_store, tokenizer, world
    ):
        recorder = flight_recorder().arm()
        _gen_campaign(InferenceEngine(untrained_store), tokenizer, world).run(
            4
        )
        records = recorder.drain()
        assert len(records) == 4
        for record in records:
            assert record["site"]["fault_model"] == "2bits-mem"
            names = [e["event"] for e in record["events"]]
            assert "inject.arm" in names and "inject.restore" in names
            site_layer = record["site"]["layer_name"]
            assert any(f["layer"] == site_layer for f in record["front"])
            assert record["outcome"].startswith(("masked", "sdc"))

    def test_explain_reconstructs_a_trial_story(
        self, untrained_store, tokenizer, world, tmp_path
    ):
        out = tmp_path / "run.jsonl"
        tel = telemetry()
        tel.enable(out)
        recorder = flight_recorder().arm()
        # Seed 7 yields several sdc-distorted trials at this size.
        _gen_campaign(
            InferenceEngine(untrained_store), tokenizer, world, seed=7
        ).run(12)
        tel.flush(seed=7, command="test", extra_records=recorder.drain())

        loaded = flight_records(read_run(out))
        assert sorted(loaded) == list(range(12))
        index = explain_run(out)
        assert "outcome" in index and "site" in index
        # An SDC trial's story must name the injection site, show the
        # corruption front and the first divergent token.
        sdc = next(
            (r for r in loaded.values() if r["outcome"] != "masked"), None
        )
        assert sdc is not None, "mini-campaign produced no SDC trial"
        story = explain_trial(sdc)
        assert sdc["site"]["layer_name"] in story
        assert "corruption front" in story
        if sdc["divergence"] is not None:
            assert (
                f"first divergent token at index"
                f" {sdc['divergence']['index']}" in story
            )
        assert explain_run(out, trial=sdc["trial"]) == story

    def test_report_includes_flight_section(
        self, untrained_store, tokenizer, world, tmp_path
    ):
        from repro.obs import render_report

        out = tmp_path / "run.jsonl"
        tel = telemetry()
        tel.enable(out)
        recorder = flight_recorder().arm()
        _gen_campaign(InferenceEngine(untrained_store), tokenizer, world).run(
            4
        )
        tel.flush(seed=5, command="test", extra_records=recorder.drain())
        report = render_report(read_run(out))
        assert "flight: outcomes by injection layer" in report


# ----------------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------------


class TestTraceExport:
    def test_export_is_valid_stitched_chrome_trace(
        self, untrained_store, tokenizer, world, tmp_path
    ):
        out = tmp_path / "run.jsonl"
        tel = telemetry()
        tel.enable(out)
        # The serial reference: each multiple-choice trial is a unit of
        # its own (on the auto route every fault model's trials share
        # forwards, in waves).
        _mc_campaign(
            InferenceEngine(untrained_store), tokenizer, world, FaultModel.ACC_1BIT,
            decode_strategy="serial",
        ).run(4, n_workers=2)
        tel.flush(seed=5, command="test")
        trace_path = export_trace(out, tmp_path / "trace.json")
        trace = json.loads(trace_path.read_text())

        events = trace["traceEvents"]
        durations = [e for e in events if e["ph"] == "X"]
        assert durations, "no duration events"
        for event in durations:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["name"], str)
        # One lane per process, stitched under the campaign timeline
        # with trial attribution: this process's trial spans on the main
        # lane, the fork's on its pid's.
        tids = {e["tid"] for e in durations}
        assert len(tids) == 2 and 0 in tids, f"not one lane per process: {tids}"
        worker_trials = [
            e for e in durations if e["args"].get("worker_pid") is not None
        ]
        own = [e for e in worker_trials if e["args"]["worker_pid"] == os.getpid()]
        assert own and {e["tid"] for e in own} == {0}
        for event in worker_trials:
            if event not in own:
                assert event["tid"] == event["args"]["worker_pid"]
        assert {e["args"]["trial"] for e in worker_trials} == {0, 1, 2, 3}
        assert len({e["args"]["campaign_hash"] for e in worker_trials}) == 1
        # Rebased worker spans sit inside the campaign.run wall window.
        campaign = next(e for e in durations if e["name"] == "campaign.run")
        for event in worker_trials:
            assert campaign["ts"] <= event["ts"]
            assert event["ts"] + event["dur"] <= (
                campaign["ts"] + campaign["dur"] + 1
            )

    def test_trace_is_strict_json(self, untrained_store, tokenizer, world,
                                  tmp_path):
        out = tmp_path / "run.jsonl"
        tel = telemetry()
        tel.enable(out)
        with tel.tracer.span("weird", value=float("nan")):
            pass
        tel.flush(seed=1, command="test")
        trace = chrome_trace(read_run(out))
        json.dumps(trace, allow_nan=False)  # must not raise


# ----------------------------------------------------------------------------
# Live watch
# ----------------------------------------------------------------------------


def _journal_lines(n_trials, total=8):
    header = {
        "kind": "campaign-checkpoint",
        "campaign": {"task": "wmt16", "fault_model": "2bits-mem"},
        "campaign_hash": "abc123",
        "n_trials": total,
    }
    lines = [json.dumps(header)]
    for trial in range(n_trials):
        lines.append(
            json.dumps(
                {
                    "kind": "trial",
                    "trial": trial,
                    "attempts": 2 if trial == 1 else 1,
                    "record": {
                        "outcome": "masked" if trial % 2 else "distorted"
                    },
                }
            )
        )
    return lines


class TestWatch:
    def test_state_tracks_progress_and_outcomes(self):
        state = WatchState()
        state.feed("\n".join(_journal_lines(4)) + "\n")
        assert state.done == 4
        assert state.total == 8
        assert state.retries == 1
        assert state.outcome_mix() == {"distorted": 2, "masked": 2}
        rendered = state.render()
        assert "4/8" in rendered and "2bits-mem" in rendered

    def test_torn_line_buffered_until_complete(self):
        state = WatchState()
        lines = _journal_lines(2)
        whole, torn = "\n".join(lines[:2]) + "\n", lines[2]
        state.feed(whole + torn[:10])  # trailing partial line
        assert state.done == 1
        state.feed(torn[10:] + "\n")  # completion arrives
        assert state.done == 2

    def test_garbage_lines_skipped(self):
        state = WatchState()
        state.feed("not json\n" + _journal_lines(1)[1] + "\n")
        assert state.done == 1

    def test_watch_once_renders_file(self, tmp_path, capsys):
        journal = tmp_path / "ckpt.jsonl"
        journal.write_text("\n".join(_journal_lines(3)) + "\n")
        assert watch(journal, once=True, clear=False) == 0
        assert "3/8" in capsys.readouterr().out

    def test_watch_exits_when_complete(self, tmp_path):
        journal = tmp_path / "ckpt.jsonl"
        journal.write_text("\n".join(_journal_lines(8)) + "\n")
        # Not --once: returns because done == total, not via timeout.
        assert watch(journal, interval=0.01, clear=False) == 0


# ----------------------------------------------------------------------------
# JSONL reader torn-line tolerance + report comparison
# ----------------------------------------------------------------------------


class TestReaderAndComparison:
    def _run_file(self, tmp_path, name="run.jsonl"):
        out = tmp_path / name
        tel = telemetry()
        tel.enable(out)
        with tel.tracer.span("campaign.run"):
            pass
        tel.metrics.counter("campaign.trials").add(3)
        tel.metrics.histogram("campaign.trial_ms").observe(1.5)
        tel.flush(seed=1, command="test")
        tel.reset(), tel.disable()
        return out

    def test_torn_final_line_tolerated(self, tmp_path):
        out = self._run_file(tmp_path)
        whole = read_jsonl(out)
        with out.open("a") as fh:
            fh.write('{"kind": "trial", "tru')  # crash mid-write
        assert read_jsonl(out) == whole
        run = read_run(out)  # full reader tolerates it too
        assert run.metrics.counters["campaign.trials"].value == 3

    def test_mid_file_corruption_raises_with_line(self, tmp_path):
        out = self._run_file(tmp_path)
        lines = out.read_text().splitlines()
        lines[1] = lines[1][:5]  # truncate a non-final record
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            read_jsonl(out)

    def test_comparison_renders_delta_column(self, tmp_path):
        run_a = read_run(self._run_file(tmp_path, "a.jsonl"))
        tel = telemetry()
        tel.enable(tmp_path / "b.jsonl")
        tel.metrics.counter("campaign.trials").add(5)
        tel.metrics.histogram("campaign.trial_ms").observe(2.0)
        tel.flush(seed=1, command="test")
        run_b = read_run(tmp_path / "b.jsonl")
        text = render_comparison([("a", run_a), ("b", run_b)])
        assert "delta" in text
        assert "campaign.trials" in text and "campaign.trial_ms" in text
        # Three-run comparison drops the delta column.
        three = render_comparison([("a", run_a), ("b", run_b), ("c", run_a)])
        assert "delta" not in three
