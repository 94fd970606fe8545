"""Weight-storage policies: how parameters live in (faultable) memory.

The paper's memory fault model flips bits in a weight *as stored*:
BF16/FP16/FP32 bit patterns for the dtype study (Fig. 21) and integer
codes for the GPTQ-quantized study (Fig. 17).  A storage policy owns
the stored representation and exposes a float32 ``array`` for compute
(GPU-style wide accumulation).  No plane a policy stores is ever
written: a memory fault is a faulted copy of the compute array
(:meth:`WeightStore.faulted_array`, the struck element decoded from its
stored form with the bits flipped), which a campaign either swaps in as
the compute array for one run and swaps back out after it
(:meth:`WeightStore.swap`) or keys to batch rows — so every trial starts
from the pristine model, and a forked campaign worker shares every
plane with its parent copy-on-write for as long as it lives.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.numerics.formats import (
    FloatFormat,
    flip_bits,
    from_bits,
    get_format,
    to_bits,
)
from repro.numerics.quantized import QuantizedMatrix, quantize_matrix

__all__ = [
    "WeightStore",
    "FloatWeightStore",
    "QuantizedWeightStore",
    "make_weight_store",
]


class WeightStore(Protocol):
    """Protocol implemented by every storage policy."""

    @property
    def array(self) -> np.ndarray:
        """Float32 view used by compute (already dequantized/rounded):
        the policy's own, or the faulted copy swapped in for it."""

    @property
    def shape(self) -> tuple[int, int]: ...

    @property
    def n_storage_bits(self) -> int:
        """Bit width of one stored element (fault-site address space)."""

    def faulted_array(
        self, row: int, col: int, positions: list[int]
    ) -> np.ndarray:
        """A fresh copy of the policy's compute array with element
        ``(row, col)`` decoded from its stored form with ``positions``
        flipped.  Pure: the store is not written.  Raises while a faulted
        copy is swapped in — a second fault would be built on the first."""

    def faulted_value(self, row: int, col: int, positions: list[int]) -> float:
        """The one element :meth:`faulted_array` changes, as it writes
        it: the compute value of ``(row, col)`` with ``positions`` of its
        stored bits flipped."""

    def swap(self, array: np.ndarray) -> np.ndarray:
        """Make ``array`` what :attr:`array` returns, and so what every
        forward reads; returns the array it replaces."""

    def planes(self) -> dict[str, np.ndarray]:
        """The arrays the policy stores, by name: the stored encoding
        and the pristine compute array (``"array"``).  No fault writes
        any of them."""


class _Policy:
    """The compute array both policies keep, and its swap."""

    def _adopt(self, array: np.ndarray) -> None:
        self._pristine = array
        self._array = array

    @property
    def array(self) -> np.ndarray:
        return self._array

    @property
    def shape(self) -> tuple[int, int]:
        return self._pristine.shape  # type: ignore[return-value]

    def swap(self, array: np.ndarray) -> np.ndarray:
        previous, self._array = self._array, array
        return previous

    def faulted_array(
        self, row: int, col: int, positions: list[int]
    ) -> np.ndarray:
        if self._array is not self._pristine:
            raise RuntimeError("a faulted copy is already swapped into this store")
        array = self._pristine.copy()
        array[row, col] = self.faulted_value(row, col, positions)
        return array


class FloatWeightStore(_Policy):
    """Weights stored as FP32/FP16/BF16 bit patterns.

    The compute array holds the format-rounded float32 values; a fault
    flips the stored integer pattern of one element and decodes it.
    """

    def __init__(self, weight: np.ndarray, fmt: str | FloatFormat = "fp32") -> None:
        self.fmt = get_format(fmt)
        self._bits = to_bits(np.asarray(weight, np.float32), self.fmt)
        self._adopt(from_bits(self._bits, self.fmt))

    @property
    def n_storage_bits(self) -> int:
        return self.fmt.bits

    def planes(self) -> dict[str, np.ndarray]:
        """fp32 stores hold only the compute array (the stored bits are
        a reinterpreting view of the same bytes); fp16/bf16 keep
        distinct bit and compute planes."""
        if self.fmt.bits == 32:
            return {"array": self._pristine}
        return {"bits": self._bits, "array": self._pristine}

    def faulted_value(self, row: int, col: int, positions: list[int]) -> float:
        bits = flip_bits(self._bits[row, col : col + 1], positions, self.fmt)
        return from_bits(bits, self.fmt)[0]


class QuantizedWeightStore(_Policy):
    """Weights stored as GPTQ-style group-quantized integer codes."""

    def __init__(
        self, weight: np.ndarray, nbits: int, group_size: int = 32
    ) -> None:
        self.quantized: QuantizedMatrix = quantize_matrix(
            weight, nbits=nbits, group_size=group_size
        )
        self._adopt(self.quantized.dequantize())

    @property
    def n_storage_bits(self) -> int:
        return self.quantized.nbits

    def planes(self) -> dict[str, np.ndarray]:
        return {
            "codes": self.quantized.codes,
            "scales": self.quantized.scales,
            "array": self._pristine,
        }

    def faulted_value(self, row: int, col: int, positions: list[int]) -> float:
        q = self.quantized
        return q.dequantize_element(row, col, q.flipped_code(row, col, positions))


def make_weight_store(weight: np.ndarray, policy: str) -> WeightStore:
    """Build a storage policy by name.

    ``policy`` is one of ``fp32``, ``fp16``, ``bf16``, ``int8``,
    ``int4`` (the paper's BF16 baseline plus its GPTQ-8bit / GPTQ-4bit
    variants and the dtype-study formats).
    """
    policy = policy.lower()
    if policy in ("fp32", "fp16", "bf16"):
        return FloatWeightStore(weight, policy)
    if policy == "int8":
        return QuantizedWeightStore(weight, nbits=8)
    if policy == "int4":
        return QuantizedWeightStore(weight, nbits=4)
    raise KeyError(f"unknown storage policy {policy!r}")
