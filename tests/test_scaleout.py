"""Shared-weight scale-out: mmap arena, fault isolation, persistent pool.

The campaign pool's scale-out story rests on three invariants:

* **bit-identity of attachment** — a store/engine attached to the
  exported arena is indistinguishable from the exporting one
  (``fingerprint()`` equal, forwards bit-equal), because the arena
  holds the *policy-encoded* planes verbatim, never a re-encoding;
* **fault isolation** — a weight fault in one attachment reads a
  private faulted copy of the targeted tensor; no arena plane is ever
  written, and exit puts the arena view back;
* **schedule-invariance** — TrialRecords from the pre-forked
  persistent pool (any worker count, with worker deaths, across
  kill-and-resume boundaries) are bit-identical to serial, enforced
  through :mod:`repro.fi.differential`.
"""

import shutil
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.fi import CampaignChaos, FaultModel, assert_records_equal
from repro.fi.executor import _WAVE_TRIALS, _batch_size
from repro.fi.injector import MemoryFaultInjector
from repro.fi.sites import FaultSite
from repro.inference import InferenceEngine
from repro.model.params import (
    ParamStore,
    arena_nbytes,
    arena_valid,
    open_arena,
    write_arena,
)
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
        assert arena_nbytes(tmp_path / "arena") > 0
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
    def test_attached_forward_bit_identical(
        self, untrained_store, tmp_path, policy
    ):
        engine = InferenceEngine(untrained_store, weight_policy=policy)
        engine.export_shared(tmp_path / "engine")
        attached = InferenceEngine.open_shared(tmp_path / "engine")
        assert attached.linear_layer_names() == engine.linear_layer_names()
        ids = [3, 7, 11, 2]
        assert np.array_equal(
            attached.forward_full(ids), engine.forward_full(ids)
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_cow_isolation_under_memory_fault(
        self, untrained_store, tmp_path, policy
    ):
        """A weight fault in one attachment never leaks into the arena
        or a sibling: the struck tensor's faulted copy is private to the
        faulting engine, no plane is ever writeable, and exit puts the
        arena view itself back."""
        engine = InferenceEngine(untrained_store, weight_policy=policy)
        engine.export_shared(tmp_path / "engine")
        faulty = InferenceEngine.open_shared(tmp_path / "engine")
        sibling = InferenceEngine.open_shared(tmp_path / "engine")
        layer = faulty.linear_layer_names()[0]
        store = faulty.weight_store(layer)
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
            return not any(p.flags.writeable for p in store.export_state()[0].values())

        with MemoryFaultInjector(faulty, site):
            corrupted = store.array
            assert corrupted is not view and corrupted.flags.writeable
            assert not np.array_equal(corrupted, pristine) and read_only()
            # Sibling attachment and the arena itself stay pristine.
            assert np.array_equal(
                sibling.weight_store(layer).array, pristine
            )
            fresh = InferenceEngine.open_shared(tmp_path / "engine")
            assert np.array_equal(fresh.weight_store(layer).array, pristine)
        # Exit puts the arena view back, so a worker holds no private
        # tensor between trials however many it executes.
        assert store.array is view and read_only()
        assert np.array_equal(view, pristine)


class TestPooledEquivalence:
    @pytest.mark.parametrize("n_workers", [2, 4])
    @pytest.mark.parametrize("fault_model", FaultModel.all())
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

    def test_respawn_reattaches_existing_arena(
        self, untrained_store, tokenizer, world, monkeypatch
    ):
        """A worker death respawns against the already-exported arena:
        the weights are exported exactly once per campaign, never
        re-shipped through a rebuilt pool."""
        exports = []
        original = InferenceEngine.export_shared

        def counting_export(self, directory):
            exports.append(str(directory))
            return original(self, directory)

        monkeypatch.setattr(InferenceEngine, "export_shared", counting_export)
        clean = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.COMP_1BIT,
            **REFERENCE,
        ).run(6)
        campaign = make_campaign(
            untrained_store, tokenizer, world, "mc", FaultModel.COMP_1BIT,
            chaos=CampaignChaos(die_in_worker={1, 4}),
        )
        try:
            result = campaign.run(6, n_workers=2, retry_backoff=0.0)
            arena = campaign._executor.arena
            assert arena is not None and arena_valid(arena.root / "target")
        finally:
            campaign.close_pool()
        assert len(exports) == 1  # two deaths, two respawns, one export
        assert_records_equal(
            result.trials, clean.trials, "respawned", "clean"
        )


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
