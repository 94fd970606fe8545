"""Tests for memory and computational fault injectors."""

import numpy as np
import pytest

from repro.fi import (
    ComputationalFaultInjector,
    FaultModel,
    FaultSite,
    MemoryFaultInjector,
    inject,
)

TOKENS = [1, 4, 9, 2, 6]


def _mem_site(layer="blocks.0.up_proj", row=3, col=5, bits=(30, 2)):
    return FaultSite(FaultModel.MEM_2BIT, layer, row, col, bits=bits)


def _comp_site(layer="blocks.0.up_proj", col=5, bits=(30,), iteration=0):
    return FaultSite(
        FaultModel.COMP_1BIT, layer, 0, col, bits=bits,
        iteration=iteration, row_frac=0.5,
    )


class TestMemoryInjector:
    def test_corrupts_then_restores_exactly(self, untrained_engine):
        site = _mem_site()
        store = untrained_engine.weight_store(site.layer_name)
        pristine = store.array.copy()
        baseline = untrained_engine.forward_full(TOKENS)
        with MemoryFaultInjector(untrained_engine, site):
            faulty = untrained_engine.forward_full(TOKENS)
            assert store.array[site.row, site.col] != pristine[site.row, site.col]
        np.testing.assert_array_equal(store.array, pristine)
        np.testing.assert_array_equal(
            untrained_engine.forward_full(TOKENS), baseline
        )
        assert not np.allclose(faulty, baseline)

    def test_restores_on_exception(self, untrained_engine):
        site = _mem_site()
        store = untrained_engine.weight_store(site.layer_name)
        pristine = store.array.copy()
        with pytest.raises(RuntimeError):
            with MemoryFaultInjector(untrained_engine, site):
                raise RuntimeError("inference crashed")
        np.testing.assert_array_equal(store.array, pristine)

    def test_rejects_comp_model(self, untrained_engine):
        with pytest.raises(ValueError):
            MemoryFaultInjector(untrained_engine, _comp_site())

    def test_persistent_across_iterations(self, untrained_engine):
        """Memory faults affect every generation iteration (paper §4.3.2)."""
        site = _mem_site(bits=(30, 28))
        baseline = untrained_engine.start_session(TOKENS[:3])
        base_logits = [baseline.last_logits.copy(), baseline.step(1).copy()]
        with MemoryFaultInjector(untrained_engine, site):
            faulty = untrained_engine.start_session(TOKENS[:3])
            fault_logits = [faulty.last_logits.copy(), faulty.step(1).copy()]
        assert not np.allclose(base_logits[0], fault_logits[0], equal_nan=True)
        assert not np.allclose(base_logits[1], fault_logits[1], equal_nan=True)


    def test_keyed_by_row_writes_no_store(self, untrained_engine):
        """``rows=``: the struck tensor's faulted copy is registered for
        those rows and nothing else — the store is never written, the
        engine-wide depth stays 0, and exit unregisters, exception or
        not."""
        engine, site = untrained_engine, _mem_site()
        store = engine.weight_store(site.layer_name)
        pristine = store.array.copy()
        with pytest.raises(RuntimeError, match="inference crashed"):
            with MemoryFaultInjector(engine, site, rows=[2, 5]) as injector:
                faulted = engine.row_weights[site.layer_name]
                assert faulted.keys() == {2, 5} and faulted[2] is faulted[5]
                assert engine.weight_fault_depth == 0
                np.testing.assert_array_equal(store.array, pristine)
                with MemoryFaultInjector(engine, site):
                    # The copy the engine-wide leg swaps in.
                    np.testing.assert_array_equal(faulted[2], store.array)
                raise RuntimeError("inference crashed")
        assert engine.row_weights == {} and injector._faulted is None
        np.testing.assert_array_equal(store.array, pristine)

    def test_a_row_carries_one_fault_per_layer(self, untrained_engine):
        engine, site = untrained_engine, _mem_site()
        other = _mem_site(row=4)
        with MemoryFaultInjector(engine, site, rows=(0, 1)):
            with pytest.raises(RuntimeError, match=r"rows \[1\] already carry"):
                with MemoryFaultInjector(engine, other, rows=(1, 2)):
                    pass
            # The refused arming registered nothing; another layer is free.
            assert engine.row_weights[site.layer_name].keys() == {0, 1}
            with MemoryFaultInjector(engine, _mem_site("blocks.0.q_proj"), rows=(1,)):
                assert len(engine.row_weights) == 2
        assert engine.row_weights == {}

    @pytest.mark.parametrize("rows", [None, (0,)], ids=["engine_wide", "keyed"])
    def test_a_swapped_layer_takes_no_second_fault(self, untrained_engine, rows):
        engine, site = untrained_engine, _mem_site()
        store = engine.weight_store(site.layer_name)
        own = store.array
        with MemoryFaultInjector(engine, site):
            armed, corrupted = store.array, store.array.copy()
            with pytest.raises(RuntimeError, match="already swapped"):
                with MemoryFaultInjector(engine, _mem_site(row=4), rows=rows):
                    pass
            # The refused arming left the armed fault as it was.
            assert store.array is armed and (armed != own).sum() == 1
            np.testing.assert_array_equal(armed, corrupted)
            assert engine.weight_fault_depth == 1 and engine.row_weights == {}
        assert store.array is own and engine.weight_fault_depth == 0


class TestComputationalInjector:
    def test_one_shot_at_iteration(self, untrained_engine):
        site = _comp_site(iteration=1)
        baseline = untrained_engine.start_session(TOKENS[:3])
        base0 = baseline.last_logits.copy()
        base1 = baseline.step(2).copy()
        base2 = baseline.step(3).copy()
        with ComputationalFaultInjector(untrained_engine, site) as injector:
            session = untrained_engine.start_session(TOKENS[:3])
            out0 = session.last_logits.copy()
            assert not injector.fired  # iteration 0 untouched
            out1 = session.step(2).copy()
            assert injector.fired  # fired at iteration 1
            out2 = session.step(3).copy()
        np.testing.assert_array_equal(out0, base0)
        assert not np.allclose(out1, base1)
        # KV cache carries the corruption forward even though the
        # injector fired once.
        assert not np.allclose(out2, base2)

    def test_detaches_at_the_strike_and_siblings_still_run(self, untrained_engine):
        """The hook leaves the engine as it fires, inside
        ``HookManager.apply``: a probe registered after it on the same
        layer (layer timing, say) still runs once in that call, and in
        every later one; exit is idempotent."""
        site = _comp_site(iteration=1)
        calls = []
        hooks = untrained_engine.hooks
        with ComputationalFaultInjector(untrained_engine, site) as injector:
            remove = hooks.register(
                site.layer_name,
                lambda out, ctx: calls.append(ctx.iteration),
                row_scoped=True, observer=True,
            )
            session = untrained_engine.start_session(TOKENS[:3])
            assert len(hooks) == 2 and not hooks.all_observers()
            session.step(2)
            assert injector.fired and calls == [0, 1]
            assert len(hooks) == 1 and hooks.all_observers()
            session.step(3)
            assert calls == [0, 1, 2]
        injector.__exit__(None, None, None)
        assert len(hooks) == 1
        remove()
        assert len(hooks) == 0 and hooks.all_row_scoped() and hooks.all_observers()

    def test_hook_removed_after_context(self, untrained_engine):
        with ComputationalFaultInjector(untrained_engine, _comp_site()):
            assert len(untrained_engine.hooks) == 1
        assert len(untrained_engine.hooks) == 0
        baseline = untrained_engine.forward_full(TOKENS)
        np.testing.assert_array_equal(
            untrained_engine.forward_full(TOKENS), baseline
        )

    def test_single_element_corruption(self, untrained_engine):
        """Exactly one element of the hooked layer output changes."""
        site = _comp_site(bits=(3,))
        from repro.inference import Recorder

        with Recorder(untrained_engine, [site.layer_name]) as recorder:
            untrained_engine.forward_full(TOKENS)
        clean = recorder.layer_outputs[site.layer_name]
        with ComputationalFaultInjector(untrained_engine, site):
            with Recorder(untrained_engine, [site.layer_name]) as recorder:
                untrained_engine.forward_full(TOKENS)
        corrupted = recorder.layer_outputs[site.layer_name]
        assert (clean != corrupted).sum() <= 1

    def test_rejects_memory_model(self, untrained_engine):
        with pytest.raises(ValueError):
            ComputationalFaultInjector(untrained_engine, _mem_site())


class TestInjectDispatch:
    def test_dispatch(self, untrained_engine):
        assert isinstance(
            inject(untrained_engine, _mem_site()), MemoryFaultInjector
        )
        assert isinstance(
            inject(untrained_engine, _comp_site()), ComputationalFaultInjector
        )

    @pytest.mark.parametrize("policy", ["bf16", "int4"])
    def test_memory_injection_per_policy(self, untrained_store, policy):
        from repro.inference import InferenceEngine

        engine = InferenceEngine(untrained_store, weight_policy=policy)
        width = engine.weight_store("blocks.0.up_proj").n_storage_bits
        site = _mem_site(bits=(width - 1, 0))
        pristine = engine.weight_store(site.layer_name).array.copy()
        with inject(engine, site):
            assert engine.weight_store(site.layer_name).array[
                site.row, site.col
            ] != pytest.approx(float(pristine[site.row, site.col]))
        np.testing.assert_array_equal(
            engine.weight_store(site.layer_name).array, pristine
        )
