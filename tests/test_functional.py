"""Tests for differentiable NN primitives and their NumPy twins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import (
    Tensor,
    check_gradients,
    cross_entropy,
    log_softmax,
    log_softmax_np,
    rms_norm,
    rms_norm_np,
    rope,
    silu,
    silu_np,
    softmax,
    softmax_np,
)
from repro.model.transformer import rope_tables

RNG = np.random.default_rng(7)


class TestNumpyPrimitives:
    def test_softmax_normalizes(self):
        x = RNG.normal(size=(4, 9)).astype(np.float32)
        p = softmax_np(x)
        np.testing.assert_allclose(p.sum(-1), 1.0, rtol=1e-5)
        assert (p >= 0).all()

    def test_softmax_shift_invariant(self):
        x = RNG.normal(size=8).astype(np.float32)
        np.testing.assert_allclose(
            softmax_np(x), softmax_np(x + 100.0), rtol=1e-4
        )

    def test_softmax_extreme_values_stable(self):
        x = np.array([1e30, -1e30, 0.0], np.float32)
        p = softmax_np(x)
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0)

    def test_log_softmax_consistent(self):
        x = RNG.normal(size=(3, 5)).astype(np.float32)
        np.testing.assert_allclose(
            np.exp(log_softmax_np(x)), softmax_np(x), rtol=1e-5
        )

    def test_silu_known_values(self):
        assert silu_np(np.float32(0.0)) == 0.0
        assert silu_np(np.float32(100.0)) == pytest.approx(100.0)
        assert silu_np(np.float32(-100.0)) == pytest.approx(0.0, abs=1e-5)

    def test_rms_norm_unit_scale(self):
        x = RNG.normal(size=(5, 16)).astype(np.float32)
        w = np.ones(16, np.float32)
        out = rms_norm_np(x, w)
        rms = np.sqrt((out * out).mean(-1))
        np.testing.assert_allclose(rms, 1.0, rtol=1e-3)

    def test_rms_norm_contains_huge_values(self):
        """The paper's containment mechanism: a huge activation is
        squashed to O(sqrt(d)) after RMSNorm."""
        x = np.ones((1, 16), np.float32)
        x[0, 3] = 1e20
        out = rms_norm_np(x, np.ones(16, np.float32))
        assert np.abs(out).max() <= np.sqrt(16) + 1e-3

    def test_rms_norm_is_the_np_mean_expression_bit_for_bit(self):
        """The reduction spelling must not move a bit of any forward:
        equal to ``np.mean`` across scales, widths and row counts, and
        where the square overflows to inf."""

        def reference(x, weight, eps=1e-5):
            ms = np.mean(x * x, axis=-1, keepdims=True)
            return x / np.sqrt(ms + eps) * weight

        rng = np.random.default_rng(3)
        cases = [
            (rng.normal(size=(t, d)) * 10.0 ** rng.uniform(-3, 3)).astype(np.float32)
            for t in (1, 3, 8, 29)
            for d in (16, 64, 100)
            for _ in range(20)
        ]
        huge = np.ones((1, 16), np.float32)
        huge[0, 3] = 1e20
        for x in [*cases, huge]:
            weight = rng.normal(size=x.shape[-1]).astype(np.float32)
            with np.errstate(over="ignore"):
                got, want = rms_norm_np(x, weight), reference(x, weight)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestDifferentiable:
    def test_softmax_grad(self):
        check_gradients(lambda a: softmax(a), [RNG.normal(size=(3, 5))])

    def test_log_softmax_grad(self):
        check_gradients(lambda a: log_softmax(a), [RNG.normal(size=(2, 7))])

    def test_silu_grad(self):
        check_gradients(lambda a: silu(a), [RNG.normal(size=(4, 3))])

    def test_rms_norm_grad(self):
        check_gradients(
            lambda a, w: rms_norm(a, w),
            [RNG.normal(size=(3, 8)), RNG.normal(size=8)],
        )

    def test_rope_grad(self):
        cos, sin = rope_tables(8, 6, 10000.0)
        check_gradients(lambda a: rope(a, cos[:4], sin[:4]), [RNG.normal(size=(2, 4, 8))])

    def test_rope_preserves_norm(self):
        """Rotary embedding is orthogonal: vector norms are unchanged."""
        cos, sin = rope_tables(8, 10, 10000.0)
        x = RNG.normal(size=(3, 10, 8)).astype(np.float32)
        out = rope(Tensor(x), cos, sin).data
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1),
            np.linalg.norm(x, axis=-1),
            rtol=1e-4,
        )


class TestCrossEntropy:
    def test_matches_manual(self):
        logits = RNG.normal(size=(4, 6)).astype(np.float32)
        targets = np.array([1, 0, 5, 2])
        loss = cross_entropy(Tensor(logits), targets)
        manual = -log_softmax_np(logits)[np.arange(4), targets].mean()
        assert float(loss.data) == pytest.approx(manual, rel=1e-5)

    def test_grad(self):
        targets = np.array([1, 0, 2])
        check_gradients(
            lambda a: cross_entropy(a, targets), [RNG.normal(size=(3, 4))]
        )

    def test_ignore_index(self):
        logits = RNG.normal(size=(4, 5)).astype(np.float32)
        targets = np.array([1, -100, 2, -100])
        loss = cross_entropy(Tensor(logits), targets)
        only_valid = cross_entropy(Tensor(logits[[0, 2]]), targets[[0, 2]])
        assert float(loss.data) == pytest.approx(float(only_valid.data), rel=1e-6)

    def test_ignored_rows_get_no_grad(self):
        t = Tensor(RNG.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        cross_entropy(t, np.array([-100, 1])).backward()
        np.testing.assert_array_equal(t.grad[0], 0.0)
        assert np.abs(t.grad[1]).sum() > 0

    def test_all_ignored_zero_loss(self):
        loss = cross_entropy(
            Tensor(RNG.normal(size=(2, 3)).astype(np.float32)),
            np.array([-100, -100]),
        )
        assert float(loss.data) == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3, 4))), np.array([0, 1]))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-20, max_value=20), min_size=2, max_size=12
    )
)
def test_property_softmax_argmax_preserved(logits):
    """Softmax keeps the largest entry (near-)largest.

    Exact argmax can shift between float-equal near-ties, so we assert
    the original winner's probability is within rounding of the max.
    """
    x = np.asarray(logits, dtype=np.float32)
    p = softmax_np(x)
    assert p[int(np.argmax(x))] >= p.max() - 1e-6
