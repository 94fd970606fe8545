"""Bit-exact floating-point format layer.

The paper's fault models act on the *stored representation* of weights
and activations: flipping bit ``k`` of an FP16 value has a very
different effect than flipping bit ``k`` of a BF16 value, because the
formats allocate sign/exponent/mantissa bits differently (paper
Table 2, Observation #11).  This module provides

* a :class:`FloatFormat` registry describing each format's bit layout,
* vectorised encode/decode between ``float`` arrays and integer bit
  patterns, and
* vectorised bit-flip operations on values *as stored in a format*.

All arithmetic elsewhere in the library is carried out in ``float32``
(or wider); formats only govern how values are stored and how faults
corrupt them.  This matches GPU inference, where tensor-core
accumulation is wider than the storage type, and preserves the property
the paper measures: the representable range of the storage format
determines the worst-case deviation a bit flip can cause.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FloatFormat",
    "FP16",
    "BF16",
    "FP32",
    "FORMATS",
    "get_format",
    "to_bits",
    "from_bits",
    "round_to_format",
    "flip_bits",
    "flip_value_bits",
    "bit_roles",
]


@dataclass(frozen=True)
class FloatFormat:
    """Description of an IEEE-754-style binary floating point format.

    Attributes
    ----------
    name:
        Short identifier, e.g. ``"fp16"``.
    bits:
        Total storage width in bits.
    exp_bits:
        Number of exponent bits.
    man_bits:
        Number of explicit mantissa (fraction) bits.
    """

    name: str
    bits: int
    exp_bits: int
    man_bits: int

    def __post_init__(self) -> None:
        if self.bits != 1 + self.exp_bits + self.man_bits:
            raise ValueError(
                f"{self.name}: bits ({self.bits}) != 1 + exp ({self.exp_bits})"
                f" + mantissa ({self.man_bits})"
            )

    @property
    def bias(self) -> int:
        """Exponent bias (2^(e-1) - 1)."""
        return (1 << (self.exp_bits - 1)) - 1

    @property
    def max_finite(self) -> float:
        """Largest finite representable magnitude."""
        max_exp = (1 << self.exp_bits) - 2 - self.bias
        frac = 2.0 - 2.0 ** (-self.man_bits)
        return frac * 2.0**max_exp

    @property
    def min_normal(self) -> float:
        """Smallest positive normal magnitude."""
        return 2.0 ** (1 - self.bias)


FP16 = FloatFormat("fp16", 16, 5, 10)
BF16 = FloatFormat("bf16", 16, 8, 7)
FP32 = FloatFormat("fp32", 32, 8, 23)

FORMATS: dict[str, FloatFormat] = {f.name: f for f in (FP16, BF16, FP32)}


def get_format(name: str | FloatFormat) -> FloatFormat:
    """Look a format up by name, passing instances through unchanged."""
    if isinstance(name, FloatFormat):
        return name
    try:
        return FORMATS[name.lower()]
    except KeyError as exc:
        raise KeyError(
            f"unknown float format {name!r}; known: {sorted(FORMATS)}"
        ) from exc


def _as_f32(x: np.ndarray | float) -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


def to_bits(x: np.ndarray | float, fmt: str | FloatFormat) -> np.ndarray:
    """Encode values into the integer bit patterns of ``fmt``.

    Rounding uses round-to-nearest-even, matching IEEE-754 default and
    what a GPU cast instruction produces.
    """
    fmt = get_format(fmt)
    x32 = _as_f32(x)
    if fmt is FP32:
        return x32.view(np.uint32)
    if fmt is FP16:
        return x32.astype(np.float16).view(np.uint16)
    if fmt is BF16:
        u = x32.view(np.uint32)
        # Round-to-nearest-even on the truncated 16 low bits.
        rounding = np.uint32(0x7FFF) + ((u >> np.uint32(16)) & np.uint32(1))
        return ((u + rounding) >> np.uint32(16)).astype(np.uint16)
    raise KeyError(f"unsupported format {fmt.name}")


def from_bits(bits: np.ndarray, fmt: str | FloatFormat) -> np.ndarray:
    """Decode integer bit patterns of ``fmt`` back to float32 values."""
    fmt = get_format(fmt)
    bits = np.asarray(bits)
    if fmt is FP32:
        return bits.astype(np.uint32).view(np.float32)
    if fmt is FP16:
        return bits.astype(np.uint16).view(np.float16).astype(np.float32)
    if fmt is BF16:
        return (bits.astype(np.uint32) << np.uint32(16)).view(np.float32)
    raise KeyError(f"unsupported format {fmt.name}")


def round_to_format(x: np.ndarray | float, fmt: str | FloatFormat) -> np.ndarray:
    """Round values to the nearest representable value of ``fmt``.

    The result is float32 data whose values are exactly representable in
    the target format, i.e. a cast down and back up.
    """
    return from_bits(to_bits(x, fmt), fmt)


def flip_bits(
    bits: np.ndarray, positions: np.ndarray | list[int], fmt: str | FloatFormat
) -> np.ndarray:
    """XOR the given LSB-first bit positions into every bit pattern."""
    fmt = get_format(fmt)
    positions = np.asarray(positions, dtype=np.uint64)
    if positions.size and int(positions.max()) >= fmt.bits:
        raise ValueError(
            f"bit position {int(positions.max())} out of range for"
            f" {fmt.name} ({fmt.bits} bits)"
        )
    mask = np.bitwise_or.reduce(np.uint64(1) << positions) if positions.size else 0
    out = bits.copy()
    out ^= np.asarray(mask, dtype=bits.dtype)
    return out


def flip_value_bits(
    x: np.ndarray | float,
    positions: np.ndarray | list[int],
    fmt: str | FloatFormat,
) -> np.ndarray:
    """Flip bits of values *as stored in* ``fmt`` and decode the result.

    This is the core fault primitive: ``x`` is first rounded into the
    storage format (as it would be on chip), the requested bits of the
    stored pattern are flipped, and the corrupted pattern is decoded
    back to float32 for further computation.
    """
    return from_bits(flip_bits(to_bits(x, fmt), positions, fmt), fmt)


def bit_roles(fmt: str | FloatFormat) -> list[str]:
    """Return the role ("sign" / "exponent" / "mantissa") of each bit.

    Index ``i`` of the returned list describes bit ``i`` (LSB-first).
    Used by the bit-position-vulnerability experiments (paper Figs 9/10).
    """
    fmt = get_format(fmt)
    roles = ["mantissa"] * fmt.man_bits + ["exponent"] * fmt.exp_bits + ["sign"]
    return roles
