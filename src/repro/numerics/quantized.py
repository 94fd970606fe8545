"""Group-wise post-training integer quantization (GPTQ-style storage).

The paper's Observation #8 studies GPTQ 4-bit / 8-bit variants of
Qwen2.5-7B under the 2-bit memory fault model and finds quantized
models *more* resilient: a bit flip inside a k-bit integer code can
move the dequantized value by at most ~``2^k`` quantization steps,
whereas an exponent-bit flip in BF16 can scale a weight by ``~2^128``.

We reproduce the storage mechanism: weights are quantized group-wise
with a symmetric per-group scale (the de-facto standard layout used by
GPTQ/AWQ checkpoints), stored as signed integer codes, and dequantized
for computation.  Memory faults flip bits inside the stored codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuantizedMatrix", "quantize_matrix"]


@dataclass
class QuantizedMatrix:
    """A 2-D weight matrix stored as group-quantized integer codes.

    Quantization is symmetric and applied along axis 0 (the input
    dimension) in groups of ``group_size`` rows, mirroring the row-major
    group layout used by GPTQ kernels.

    Attributes
    ----------
    codes:
        ``int16`` array of shape ``(rows, cols)`` holding signed codes in
        ``[-qmax, qmax]``.  (Stored widened to int16 so 8-bit arithmetic
        cannot silently wrap; the *logical* width is ``nbits``.)
    scales:
        ``float32`` array of shape ``(n_groups, cols)``.
    nbits:
        Logical code width (4 or 8).
    group_size:
        Rows per quantization group.
    """

    codes: np.ndarray
    scales: np.ndarray
    nbits: int
    group_size: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes.shape  # type: ignore[return-value]

    @property
    def qmax(self) -> int:
        """Largest code magnitude, ``2^(nbits-1) - 1``."""
        return (1 << (self.nbits - 1)) - 1

    def group_of_row(self, row: int) -> int:
        return row // self.group_size

    def dequantize(self) -> np.ndarray:
        """Reconstruct the float32 weight matrix."""
        rows = self.codes.shape[0]
        group_idx = np.arange(rows) // self.group_size
        return self.codes.astype(np.float32) * self.scales[group_idx]

    def dequantize_element(
        self, row: int, col: int, code: int | None = None
    ) -> float:
        """The value at ``(row, col)``: of its stored code, or of
        ``code`` in its place."""
        if code is None:
            code = self.codes[row, col]
        return float(code) * float(self.scales[self.group_of_row(row), col])

    def flipped_code(self, row: int, col: int, positions: list[int]) -> int:
        """The code at ``(row, col)`` with ``positions`` flipped, the
        stored one left as it is.  Bit positions are LSB-first within
        the ``nbits``-wide two's complement code."""
        for pos in positions:
            if not 0 <= pos < self.nbits:
                raise ValueError(
                    f"bit position {pos} out of range for int{self.nbits}"
                )
        # Two's complement pattern.
        raw = int(self.codes[row, col]) & ((1 << self.nbits) - 1)
        for pos in positions:
            raw ^= 1 << pos
        # Sign-extend back to a Python int.
        if raw & (1 << (self.nbits - 1)):
            raw -= 1 << self.nbits
        return raw


def quantize_matrix(
    weight: np.ndarray, nbits: int, group_size: int = 32
) -> QuantizedMatrix:
    """Quantize a float matrix to ``nbits`` with per-group symmetric scales.

    Parameters
    ----------
    weight:
        Float array of shape ``(rows, cols)``.
    nbits:
        Logical integer width; 4 and 8 mirror the paper's GPTQ variants.
    group_size:
        Rows per scale group; clipped to the matrix height.
    """
    if nbits not in (2, 3, 4, 8):
        raise ValueError(f"unsupported quantization width: {nbits}")
    weight = np.asarray(weight, dtype=np.float32)
    if weight.ndim != 2:
        raise ValueError("quantize_matrix expects a 2-D weight matrix")
    rows, cols = weight.shape
    group_size = min(group_size, rows)
    n_groups = (rows + group_size - 1) // group_size
    qmax = (1 << (nbits - 1)) - 1

    codes = np.empty((rows, cols), dtype=np.int16)
    scales = np.empty((n_groups, cols), dtype=np.float32)
    for g in range(n_groups):
        lo, hi = g * group_size, min((g + 1) * group_size, rows)
        block = weight[lo:hi]
        absmax = np.abs(block).max(axis=0)
        scale = np.where(absmax > 0, absmax / qmax, 1.0).astype(np.float32)
        scales[g] = scale
        codes[lo:hi] = np.clip(np.rint(block / scale), -qmax, qmax).astype(np.int16)
    return QuantizedMatrix(codes=codes, scales=scales, nbits=nbits, group_size=group_size)
