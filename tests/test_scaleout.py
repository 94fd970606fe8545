"""Scale-out: the zoo's mmap arena, fault isolation, persistent pool.

The campaign pool's scale-out story rests on three invariants:

* **inheritance** — a pool worker is a fork of the campaign's process
  and runs the very campaign and engine the parent holds, hooks
  included (a perturbing guard on the engine guards the workers too),
  respawned workers as well;
* **fault isolation** — a weight fault reads a private faulted copy of
  the targeted tensor; no stored plane is ever written, so a worker
  shares every weight page with its parent, and exit puts the pristine
  array back;
* **schedule-invariance** — TrialRecords from the pre-forked
  persistent pool (any worker count, with worker deaths, across
  kill-and-resume boundaries, with or without hooks) are bit-identical
  to serial, enforced through :mod:`repro.fi.differential`.

The zoo keeps its own arena: a model's weights are written once as a
memory-mappable sidecar beside its ``.npz`` and attached read-only.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter

import numpy as np
import pytest

import repro
from repro.fi import (
    CampaignChaos,
    FaultModel,
    FICampaign,
    assert_records_equal,
    assert_results_equal,
    executor,
)
from repro.fi.checkpoint import load_checkpoint
from repro.fi.executor import _WAVE_TRIALS, _batch_size
from repro.fi.injector import MemoryFaultInjector
from repro.fi.sites import FaultSite
from repro.inference import InferenceEngine
from repro.mitigation.ranger import RangeRestrictor
from repro.model.params import ParamStore, arena_valid, open_arena, write_arena
from repro.obs import telemetry

from tests.test_differential import REFERENCE, make_campaign


@pytest.fixture(autouse=True)
def clean_telemetry():
    tel = telemetry()
    tel.reset()
    tel.disable()
    yield tel
    tel.reset()
    tel.disable()


POLICIES = ["fp32", "fp16", "bf16", "int8", "int4"]


def record_in_workers(monkeypatch, directory, method, facts):
    """Wrap ``FICampaign.<method>`` so that every call which returns in
    a pool worker writes ``facts(campaign)`` to ``directory/<pid>.json``
    afterwards; returns a reader of ``{pid: facts}``.  A forked worker's
    objects sit at the addresses the parent's do, so facts built from
    ``id()`` say whether a worker runs the parent's very objects."""
    parent, original = os.getpid(), getattr(FICampaign, method)
    directory.mkdir()

    def wrapped(self, *args, **kw):
        result = original(self, *args, **kw)
        if os.getpid() != parent:
            (directory / f"{os.getpid()}.json").write_text(json.dumps(facts(self)))
        return result

    monkeypatch.setattr(FICampaign, method, wrapped)
    return lambda: {
        int(path.stem): json.loads(path.read_text())
        for path in directory.glob("*.json")
    }


def record_boots(monkeypatch, directory, facts):
    """Have every forked pool worker write ``facts(campaign)`` to
    ``directory/<pid>.json`` as it boots — the first forks and every
    respawn, whether or not it is dealt a trial before the pool
    closes; returns a reader of ``{pid: facts}``."""
    boot = executor._boot_worker
    directory.mkdir()

    def recording(campaign):
        serve = boot(campaign)
        (directory / f"{os.getpid()}.json").write_text(json.dumps(facts(campaign)))
        return serve

    monkeypatch.setattr(executor, "_boot_worker", recording)
    return lambda: {
        int(path.stem): json.loads(path.read_text())
        for path in directory.glob("*.json")
    }


def identity(campaign) -> list[int]:
    """The campaign, its engine and the engine's hooks, by address."""
    return [id(campaign), id(campaign.engine), id(campaign.engine.hooks)]


def install_ranger(campaign) -> RangeRestrictor:
    """A range restrictor calibrated on the campaign's prompts and
    installed on its engine: a perturbing hook on every linear layer."""
    guard = RangeRestrictor(margin=0.1)
    guard.calibrate(
        campaign.engine,
        [campaign.tokenizer.encode(ex.prompt) for ex in campaign.plan.examples],
    )
    guard.install(campaign.engine)
    return guard


class TestArenaFormat:
    def test_round_trip_and_alignment(self, tmp_path):
        arrays = {
            "a": np.arange(12, dtype=np.float32).reshape(3, 4),
            "b": np.arange(7, dtype=np.uint8),
            "c": np.array(3.5, dtype=np.float64),
        }
        write_arena(tmp_path / "arena", arrays, meta={"kind": "test"})
        views, meta = open_arena(tmp_path / "arena")
        assert meta["kind"] == "test"
        assert set(views) == set(arrays)
        for name, expected in arrays.items():
            assert views[name].dtype == expected.dtype
            assert views[name].shape == expected.shape
            assert np.array_equal(views[name], expected)
            assert not views[name].flags.writeable
        assert arena_valid(tmp_path / "arena")

    def test_meta_order_preserved(self, tmp_path):
        """Dict order in meta survives the JSON round trip — an
        attached engine must enumerate stores in the exporter's order
        or uniform site sampling diverges between processes."""
        meta = {"stores": {"z_first": 1, "a_second": 2}}
        write_arena(
            tmp_path / "arena", {"x": np.zeros(2, np.float32)}, meta=meta
        )
        _views, got = open_arena(tmp_path / "arena")
        assert list(got["stores"]) == ["z_first", "a_second"]

    def test_torn_write_detected(self, tmp_path):
        write_arena(tmp_path / "arena", {"x": np.zeros(4, np.float32)})
        (tmp_path / "arena" / "index.json").write_text("{ torn")
        assert not arena_valid(tmp_path / "arena")
        assert not arena_valid(tmp_path / "missing")


class TestSharedParamStore:
    def test_fingerprint_identity(self, untrained_store, tmp_path):
        shared = untrained_store.to_shared(tmp_path / "arena")
        assert shared.fingerprint() == untrained_store.fingerprint()
        assert shared.shared_dir == tmp_path / "arena"
        reopened = ParamStore.open_shared(tmp_path / "arena")
        assert reopened.fingerprint() == untrained_store.fingerprint()
        for name, array in untrained_store.items():
            view = reopened[name]
            assert not view.flags.writeable
            assert np.array_equal(view, array)


class TestSharedEngine:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_cow_isolation_under_memory_fault(self, untrained_store, policy):
        """A weight fault never writes a stored plane, so a forked
        worker keeps sharing every weight page with its parent
        copy-on-write: with the planes read-only the fault still arms,
        its faulted copy is private to the faulting engine, a sibling
        engine over the same parameters stays pristine, and exit puts
        the pristine array itself back."""
        faulty = InferenceEngine(untrained_store, weight_policy=policy)
        sibling = InferenceEngine(untrained_store, weight_policy=policy)
        layer = faulty.linear_layer_names()[0]
        store = faulty.weight_store(layer)
        for plane in store.planes().values():
            plane.setflags(write=False)
        view = store.array
        pristine = np.array(view, copy=True)
        site = FaultSite(
            fault_model=FaultModel.MEM_2BIT,
            layer_name=layer,
            row=1,
            col=2,
            bits=(0, 1),
            iteration=0,
        )

        def read_only():
            return not any(p.flags.writeable for p in store.planes().values())

        with MemoryFaultInjector(faulty, site):
            corrupted = store.array
            assert corrupted is not view and corrupted.flags.writeable
            assert not np.array_equal(corrupted, pristine) and read_only()
            assert np.array_equal(sibling.weight_store(layer).array, pristine)
        # Exit puts the pristine array back, so a worker holds no
        # private tensor between trials however many it executes.
        assert store.array is view and read_only()
        assert np.array_equal(view, pristine)


class TestPooledEquivalence:
    @pytest.mark.parametrize("n_workers", [2, 3, 4])
    @pytest.mark.parametrize("fault_model", FaultModel.extended())
    def test_pool_matches_serial(
        self, untrained_store, tokenizer, world, fault_model, n_workers
    ):
        serial = make_campaign(
            untrained_store, tokenizer, world, "gen", fault_model, **REFERENCE
        ).run(6)
        pooled_campaign = make_campaign(
            untrained_store, tokenizer, world, "gen", fault_model
        )
        try:
            pooled = pooled_campaign.run(6, n_workers=n_workers)
        finally:
            pooled_campaign.close_pool()
        assert_records_equal(
            pooled.trials, serial.trials, f"pool{n_workers}", "serial"
        )

    @pytest.mark.parametrize("fault_model", FaultModel.all())
    def test_kill_and_resume_into_live_pool(
        self, untrained_store, tokenizer, world, tmp_path, fault_model
    ):
        """Resuming on the same campaign reuses the persistent pool —
        same pool object, same worker pids, zero re-spinup — and the
        stitched result is bit-identical to one uninterrupted run."""
        full = make_campaign(
            untrained_store, tokenizer, world, "mc", fault_model, **REFERENCE
        ).run(6)
        campaign = make_campaign(
            untrained_store, tokenizer, world, "mc", fault_model
        )
        try:
            ck = tmp_path / "campaign.jsonl"
            campaign.run(3, n_workers=2, checkpoint=ck)
            pool = campaign._executor.pool
            assert pool is not None and not pool.closed
            pids = pool.worker_pids()
            resumed = campaign.resume(ck, 6, n_workers=2)
            assert campaign._executor.pool is pool
            assert pool.worker_pids() == pids
        finally:
            campaign.close_pool()
        assert_records_equal(
            resumed.trials, full.trials, "resumed-into-pool", "uninterrupted"
        )

    def test_respawn_forks_from_the_same_parent_state(
        self, untrained_store, tokenizer, world, tmp_path, monkeypatch, no_backoff
    ):
        """Every first attempt in a fork kills it — trial 0, the fork's
        first batch, for one — so the fork is respawned at least once;
        each respawn runs the campaign, engine and hooks the parent
        holds, as the fork it replaced did, and the records (the
        parent's share and the respawns' alike) are those of a run
        without deaths."""
        clean = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.COMP_1BIT,
            **REFERENCE,
        ).run(6)
        seen = record_boots(monkeypatch, tmp_path / "workers", identity)
        campaign = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.COMP_1BIT,
            chaos=CampaignChaos(die_in_worker=set(range(6))),
        )
        monkeypatch.setattr(executor, "_MAX_POOL_REBUILDS", 6)
        try:
            result = campaign.run(6, n_workers=2)
        finally:
            campaign.close_pool()
        workers = seen()
        assert len(workers) >= 2 and os.getpid() not in workers
        assert all(facts == identity(campaign) for facts in workers.values())
        assert not campaign._in_worker
        assert_records_equal(result.trials, clean.trials, "respawned", "clean")

    @pytest.mark.parametrize("fault_model", FaultModel.extended())
    def test_a_guarded_engine_guards_its_workers(
        self, untrained_store, tokenizer, world, fault_model
    ):
        """A hook on the campaign's engine — here a range restrictor,
        which changes what the engine computes — is on every worker's
        engine too: pooled records equal the serial reference's."""
        reference = make_campaign(
            untrained_store, tokenizer, world, "gen", fault_model, **REFERENCE
        )
        install_ranger(reference)
        serial = reference.run(6)
        for n_workers in (0, 2):
            campaign = make_campaign(
                untrained_store, tokenizer, world, "gen", fault_model
            )
            install_ranger(campaign)
            try:
                pooled = campaign.run(6, n_workers=n_workers)
            finally:
                campaign.close_pool()
            assert_results_equal(pooled, serial, f"{n_workers} workers", "serial")

    def test_a_hook_registered_between_runs_rebuilds_the_pool(
        self, untrained_store, tokenizer, world
    ):
        """Workers run the hooks the engine carried when they forked, so
        a hook registered — or removed — since is a new pool, and each
        run's records equal the same sequence of runs in-process."""

        def runs(n_workers):
            campaign = make_campaign(
                untrained_store, tokenizer, world, "gen", FaultModel.COMP_2BIT
            )
            pools, results = [], []
            try:
                for step in ("bare", "guarded", "bare again"):
                    if step == "guarded":
                        guard = install_ranger(campaign)
                    elif step == "bare again":
                        guard.uninstall()
                    results.append(campaign.run(6, n_workers=n_workers))
                    pool = campaign._executor.pool
                    pools.append(pool.worker_pids() if pool else None)
            finally:
                campaign.close_pool()
            return results, pools

        serial, _ = runs(0)
        pooled, pids = runs(2)
        for step, (mine, theirs) in enumerate(zip(pooled, serial)):
            assert_results_equal(mine, theirs, f"pooled run {step}", "serial")
        assert all(pids) and len({tuple(p) for p in pids}) == 3

    def test_a_pooled_run_writes_no_weight_arena(
        self, untrained_store, tokenizer, world, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        campaign = make_campaign(
            untrained_store, tokenizer, world, "gen", FaultModel.MEM_2BIT
        )
        try:
            campaign.run(6, n_workers=2)
            assert campaign._executor.pool is not None
            assert not list(tmp_path.glob("repro-arena-*"))
        finally:
            campaign.close_pool()


class TestTheSupervisorRunsAShare:
    """A pool of ``n_workers`` processes is ``n_workers - 1`` forks and
    the process that supervises them, which takes the next batch itself
    whenever no fork is free."""

    def test_two_workers_are_one_fork_and_this_process(
        self, untrained_store, tokenizer, world, tmp_path, clean_telemetry
    ):
        serial = make_campaign(
            untrained_store, tokenizer, world, "gen", FaultModel.COMP_1BIT,
            **REFERENCE,
        ).run(6)
        clean_telemetry.enable()
        ck = tmp_path / "campaign.jsonl"
        campaign = make_campaign(
            untrained_store, tokenizer, world, "gen", FaultModel.COMP_1BIT
        )
        try:
            pooled = campaign.run(6, n_workers=2, checkpoint=ck)
            assert len(campaign._executor.pool.worker_pids()) == 1
        finally:
            campaign.close_pool()
        assert clean_telemetry.metrics.counters["campaign.worker_boots"].value == 1
        assert clean_telemetry.manifest_extra["scaleout"]["workers"] == 2
        ran = Counter(
            line["worker"]
            for line in map(json.loads, ck.read_text().splitlines()[1:])
        )
        # Each ran a wave of its even share: three trials apiece.
        assert ran[os.getpid()] == 3 and sorted(ran.values()) == [3, 3]
        assert_records_equal(pooled.trials, serial.trials, "pool2", "serial")

    def test_a_fork_dying_during_this_process_unit_is_reaped_after_it(
        self, untrained_store, tokenizer, world, tmp_path, monkeypatch, no_backoff
    ):
        """Trial 0 is the fork's first batch and kills it; trial 1, this
        process's, outlasts the death.  The fork is reaped once trial 1
        is done, and trial 0 is re-queued and re-run an attempt older
        after it, with the records of a run without deaths."""
        clean = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT
        ).run(4)
        parent, run_trial = os.getpid(), FICampaign._run_trial
        dying, own_done, retried = (
            tmp_path / name for name in ("dying", "own_done", "retried")
        )

        def timed(self, trial, attempt=0):
            if os.getpid() != parent and (trial, attempt) == (0, 0):
                dying.touch()  # chaos strikes next
            elif (trial, attempt) == (0, 1):
                retried.write_text(repr(time.monotonic()))
            record = run_trial(self, trial, attempt)
            if os.getpid() == parent and trial == 1:
                deadline = time.monotonic() + 30.0
                while not dying.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.2)  # the fork is gone by now
                own_done.write_text(repr(time.monotonic()))
            return record

        monkeypatch.setattr(FICampaign, "_run_trial", timed)
        ck = tmp_path / "campaign.jsonl"
        campaign = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            chaos=CampaignChaos(die_in_worker={0}),
        )
        try:
            result = campaign.run(4, n_workers=2, checkpoint=ck)
        finally:
            campaign.close_pool()
        assert dying.exists()
        assert float(retried.read_text()) > float(own_done.read_text())
        _, _, attempts = load_checkpoint(ck)
        assert attempts == {0: 2, 1: 1, 2: 1, 3: 1}
        assert_records_equal(result.trials, clean.trials, "reaped", "clean")

    def test_a_busy_fork_is_dealt_its_next_batch_ahead(
        self, untrained_store, tokenizer, world, tmp_path, monkeypatch
    ):
        """On the reference route a batch is one trial.  Trial 0 is the
        fork's first batch and trial 1 this process's;
        trial 2 is queued behind trial 0, so the fork runs it while this
        process is still inside trial 1's unit instead of waiting for
        that unit to end to be dealt it."""
        clean = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            **REFERENCE,
        ).run(4)
        parent, run_trial = os.getpid(), FICampaign._run_trial
        ran = tmp_path / "ran"
        ran.mkdir()
        ran_during_own = []

        def slow(self, trial, attempt=0):
            record = run_trial(self, trial, attempt)
            if os.getpid() != parent:
                (ran / str(trial)).touch()
            elif trial == 1:
                deadline = time.monotonic() + 10.0
                while not (ran / "2").exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                ran_during_own.extend(sorted(int(p.name) for p in ran.iterdir()))
            return record

        monkeypatch.setattr(FICampaign, "_run_trial", slow)
        campaign = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.MEM_2BIT,
            **REFERENCE,
        )
        try:
            result = campaign.run(4, n_workers=2)
        finally:
            campaign.close_pool()
        assert ran_during_own == [0, 2]
        assert_records_equal(result.trials, clean.trials, "ahead", "clean")


class TestBatches:
    @pytest.mark.parametrize(
        "n_todo, n_workers, wave, size",
        [
            (80, 2, True, 40),  # 40 + 40: a worker's even share
            (6, 4, True, 2),  # at most 2 each, no worker left idle
            (1000, 2, True, _WAVE_TRIALS),  # never more than a wave's worth
            (80, 0, True, 80),  # in this process: the whole cell, one wave
            (300, 0, True, _WAVE_TRIALS),
            (80, 2, False, 1),  # trials that keep to themselves
            (80, 0, False, 1),
        ],
    )
    def test_batch_size_is_derived(self, n_todo, n_workers, wave, size):
        assert _batch_size(n_todo, n_workers, wave) == size

    def test_pool_and_executor_never_import_the_campaign(self):
        """The executor drives whatever knows what a trial is; with the
        package's eager ``__init__`` out of the way, importing it and
        the pool pulls in no ``repro.fi.campaign``."""
        code = """if True:
            import sys, types
            root = sys.argv[1]
            for name, path in (("repro", root), ("repro.fi", root + "/fi")):
                pkg = sys.modules[name] = types.ModuleType(name)
                pkg.__path__ = [path]
            import repro.fi.pool, repro.fi.executor
            assert "repro.inference.engine" in sys.modules
            assert "repro.fi.campaign" not in sys.modules
        """
        subprocess.run(
            [sys.executable, "-c", code, repro.__path__[0]], check=True, timeout=60
        )


class TestZooSidecar:
    def _patch_zoo(self, monkeypatch, tmp_path, store):
        from repro.zoo import build as zoo_build

        npz = tmp_path / "tiny-cafe012345ab.npz"
        monkeypatch.setattr(
            zoo_build, "cache_path", lambda name, directory=None: npz
        )
        monkeypatch.setattr(
            zoo_build,
            "build_model",
            lambda name, directory=None, verbose=True: store,
        )
        return zoo_build, npz

    def test_build_emits_sidecar_and_load_prefers_it(
        self, monkeypatch, tmp_path, untrained_store
    ):
        zoo_build, npz = self._patch_zoo(monkeypatch, tmp_path, untrained_store)
        sidecar = npz.with_suffix(".arena")

        built = zoo_build.load_model("tiny")  # cold: builds npz + sidecar
        assert npz.exists() and arena_valid(sidecar)
        assert built.fingerprint() == untrained_store.fingerprint()
        assert built.shared_dir == sidecar

        warm = zoo_build.load_model("tiny")  # warm: attaches the sidecar
        assert warm.shared_dir == sidecar
        assert warm.fingerprint() == untrained_store.fingerprint()

    def test_sidecar_regenerated_from_npz(
        self, monkeypatch, tmp_path, untrained_store
    ):
        zoo_build, npz = self._patch_zoo(monkeypatch, tmp_path, untrained_store)
        sidecar = npz.with_suffix(".arena")
        zoo_build.load_model("tiny")
        shutil.rmtree(sidecar)  # cache predating the sidecar (or torn)

        regen = zoo_build.load_model("tiny")
        assert arena_valid(sidecar)
        assert regen.fingerprint() == untrained_store.fingerprint()
