"""Tests for GPTQ-style group quantization (paper Fig. 17 substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics import QuantizedMatrix, quantize_matrix


def _random_weight(seed: int, shape=(64, 16)) -> np.ndarray:
    return np.random.default_rng(seed).normal(0, 0.1, size=shape).astype(np.float32)


class TestQuantize:
    @pytest.mark.parametrize("nbits", [4, 8])
    def test_roundtrip_error_bounded(self, nbits):
        w = _random_weight(0)
        q = quantize_matrix(w, nbits=nbits, group_size=32)
        err = np.abs(q.dequantize() - w)
        # Error <= half a quantization step of the group scale.
        step = q.scales.max()
        assert err.max() <= 0.5 * step + 1e-7

    def test_8bit_tighter_than_4bit(self):
        w = _random_weight(1)
        err4 = np.abs(quantize_matrix(w, 4).dequantize() - w).mean()
        err8 = np.abs(quantize_matrix(w, 8).dequantize() - w).mean()
        assert err8 < err4

    def test_codes_within_width(self):
        w = _random_weight(2)
        q = quantize_matrix(w, nbits=4)
        assert q.codes.max() <= q.qmax
        assert q.codes.min() >= -q.qmax

    def test_zero_matrix(self):
        q = quantize_matrix(np.zeros((8, 4), np.float32), nbits=4)
        np.testing.assert_array_equal(q.dequantize(), 0.0)

    def test_group_structure(self):
        w = _random_weight(3, shape=(64, 8))
        q = quantize_matrix(w, nbits=8, group_size=16)
        assert q.scales.shape == (4, 8)
        assert q.group_of_row(0) == 0
        assert q.group_of_row(63) == 3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            quantize_matrix(_random_weight(0), nbits=5)
        with pytest.raises(ValueError):
            quantize_matrix(np.zeros(8, np.float32), nbits=4)

    def test_requantization_idempotent(self):
        """Quantize(dequantize(q)) == q — the parallel campaign relies on
        rebuilding quantized stores from their dequantized arrays."""
        w = _random_weight(4)
        q1 = quantize_matrix(w, nbits=4, group_size=32)
        q2 = quantize_matrix(q1.dequantize(), nbits=4, group_size=32)
        np.testing.assert_array_equal(q1.codes, q2.codes)
        np.testing.assert_allclose(q1.scales, q2.scales, rtol=1e-6)


class TestCodeFlips:
    def test_flip_and_restore(self):
        """A flipped code is computed, never stored."""
        q = quantize_matrix(_random_weight(5), nbits=4)
        codes = q.codes.copy()
        code = q.flipped_code(10, 3, [2])
        assert code != codes[10, 3]
        assert q.dequantize_element(10, 3, code) != q.dequantize_element(10, 3)
        np.testing.assert_array_equal(q.codes, codes)

    def test_flip_bounded_deviation(self):
        """Observation #8 mechanism: an int-code bit flip moves the
        value at most ~2^nbits quantization steps (vs 2^128 for BF16)."""
        q = quantize_matrix(_random_weight(6), nbits=4)
        scale = q.scales[q.group_of_row(5), 2]
        before = q.dequantize_element(5, 2)
        # Flip the highest magnitude bit.
        after = q.dequantize_element(5, 2, q.flipped_code(5, 2, [3]))
        assert abs(after - before) <= 16 * scale

    def test_sign_bit_flip_sign_extends(self):
        q = quantize_matrix(_random_weight(7), nbits=4)
        q.codes[0, 0] = 3
        # Set the top bit: 0b0011 -> 0b1011, two's complement -5.
        assert q.flipped_code(0, 0, [3]) == 11 - 16

    def test_invalid_bit_rejected(self):
        q = quantize_matrix(_random_weight(8), nbits=4)
        with pytest.raises(ValueError):
            q.flipped_code(0, 0, [4])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([4, 8]),
    st.integers(min_value=0, max_value=7),
)
def test_property_double_flip_restores(seed, nbits, bit):
    """Flipping the same code bit twice is an exact no-op."""
    bit = bit % nbits
    q = quantize_matrix(_random_weight(seed, shape=(16, 4)), nbits=nbits)
    assert q.flipped_code(3, 1, [bit, bit]) == q.codes[3, 1]
