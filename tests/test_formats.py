"""Tests for the bit-exact float format layer (paper Table 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics import (
    BF16,
    FORMATS,
    FP16,
    FP32,
    FloatFormat,
    bit_roles,
    flip_bits,
    flip_value_bits,
    from_bits,
    get_format,
    round_to_format,
    to_bits,
)


class TestFormatRegistry:
    def test_table2_layouts(self):
        # Exact bit allocations from the paper's Table 2.
        assert (FP16.bits, FP16.exp_bits, FP16.man_bits) == (16, 5, 10)
        assert (BF16.bits, BF16.exp_bits, BF16.man_bits) == (16, 8, 7)
        assert (FP32.bits, FP32.exp_bits, FP32.man_bits) == (32, 8, 23)

    def test_table2_ranges(self):
        assert FP16.max_finite == 65504.0
        assert FP16.min_normal == pytest.approx(6.1035e-5, rel=1e-3)
        # BF16 shares FP32's exponent: ~3.4e38 / ~1.2e-38.
        assert BF16.max_finite == pytest.approx(3.39e38, rel=1e-2)
        assert BF16.min_normal == pytest.approx(1.1755e-38, rel=1e-3)
        assert FP32.max_finite == pytest.approx(np.finfo(np.float32).max, rel=1e-6)

    def test_bias(self):
        assert FP16.bias == 15
        assert BF16.bias == 127
        assert FP32.bias == 127

    def test_invalid_layout_rejected(self):
        with pytest.raises(ValueError):
            FloatFormat("bad", 16, 5, 11)

    def test_get_format(self):
        assert get_format("FP16") is FP16
        assert get_format(BF16) is BF16
        with pytest.raises(KeyError):
            get_format("fp8")

    def test_bit_roles(self):
        roles = bit_roles(FP16)
        assert roles[0] == "mantissa"
        assert roles[10] == "exponent"
        assert roles[15] == "sign"
        assert len(roles) == 16


class TestEncodeDecode:
    @pytest.mark.parametrize("fmt", ["fp16", "bf16", "fp32"])
    def test_roundtrip_exact_values(self, fmt):
        # Powers of two and small integers are exact in every format.
        values = np.array([0.0, 1.0, -1.0, 0.5, 2.0, -4.0, 0.25], np.float32)
        np.testing.assert_array_equal(round_to_format(values, fmt), values)

    def test_fp32_roundtrip_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=257).astype(np.float32)
        np.testing.assert_array_equal(round_to_format(x, "fp32"), x)

    def test_bf16_is_truncated_fp32(self):
        x = np.float32(1.0 + 2.0**-7)  # exactly representable in bf16
        assert round_to_format(x, "bf16") == x
        y = np.float32(1.0 + 2.0**-9)  # not representable: rounds
        assert round_to_format(y, "bf16") in (1.0, np.float32(1.0 + 2.0**-7))

    def test_bf16_round_to_nearest_even(self):
        # 1 + 2^-8 is exactly halfway between 1.0 and 1 + 2^-7:
        # ties-to-even keeps the even mantissa (1.0).
        assert round_to_format(np.float32(1.0 + 2.0**-8), "bf16") == 1.0

    def test_fp16_matches_numpy_half(self):
        rng = np.random.default_rng(1)
        x = (rng.normal(size=500) * 100).astype(np.float32)
        ours = round_to_format(x, "fp16")
        numpy_half = x.astype(np.float16).astype(np.float32)
        np.testing.assert_array_equal(ours, numpy_half)

    def test_bits_dtype(self):
        assert to_bits(1.0, "fp16").dtype == np.uint16
        assert to_bits(1.0, "bf16").dtype == np.uint16
        assert to_bits(1.0, "fp32").dtype == np.uint32


class TestBitFlips:
    def test_sign_flip_negates(self):
        for fmt in FORMATS.values():
            flipped = flip_value_bits(1.5, [fmt.bits - 1], fmt)
            assert flipped == -1.5

    def test_double_flip_is_identity(self):
        x = np.float32(3.25)
        once = flip_value_bits(x, [7], "fp16")
        twice = flip_value_bits(once, [7], "fp16")
        assert twice == round_to_format(x, "fp16")

    def test_msb_exponent_flip_bf16_huge(self):
        # Paper Obs #8: flipping the top exponent bit of BF16 0.5 gives
        # ~1.7e38 — an extreme value.
        corrupted = float(flip_value_bits(0.5, [14], "bf16"))
        assert corrupted > 1e38

    def test_msb_exponent_flip_fp16_bounded(self):
        corrupted = float(flip_value_bits(0.5, [14], "fp16"))
        assert corrupted < 1e5  # fp16 range tops out at 65504

    def test_mantissa_flip_small_relative_change(self):
        x = 1.0
        corrupted = float(flip_value_bits(x, [0], "fp32"))
        assert abs(corrupted - x) < 1e-6

    def test_out_of_range_position_rejected(self):
        with pytest.raises(ValueError):
            flip_bits(to_bits(1.0, "fp16"), [16], "fp16")

    def test_flip_is_elementwise_on_arrays(self):
        x = np.array([1.0, 2.0, 4.0], np.float32)
        flipped = flip_value_bits(x, [FP32.bits - 1], "fp32")
        np.testing.assert_array_equal(flipped, -x)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(
        min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
    ),
    st.sampled_from(["fp16", "bf16", "fp32"]),
)
def test_property_roundtrip_idempotent(value, fmt):
    """Rounding to a format twice equals rounding once."""
    once = round_to_format(np.float32(value), fmt)
    twice = round_to_format(once, fmt)
    np.testing.assert_array_equal(once, twice)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    st.integers(min_value=0, max_value=15),
    st.sampled_from(["fp16", "bf16"]),
)
def test_property_flip_twice_restores(value, bit, fmt):
    """Flipping the same bit twice restores the stored value exactly."""
    stored = round_to_format(np.float32(value), fmt)
    once = flip_value_bits(stored, [bit], fmt)
    twice = flip_value_bits(once, [bit], fmt)
    np.testing.assert_array_equal(twice, stored)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.sampled_from(["fp16", "bf16"]),
)
def test_property_rounding_error_bounded(value, fmt_name):
    """Format rounding error is below one ULP at the value's scale."""
    fmt = get_format(fmt_name)
    stored = float(round_to_format(np.float32(value), fmt))
    ulp = max(abs(value), fmt.min_normal) * 2.0 ** (-fmt.man_bits)
    assert abs(stored - float(np.float32(value))) <= ulp
