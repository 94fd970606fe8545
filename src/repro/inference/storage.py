"""Weight-storage policies: how parameters live in (faultable) memory.

The paper's memory fault model flips bits in a weight *as stored*:
BF16/FP16/FP32 bit patterns for the dtype study (Fig. 21) and integer
codes for the GPTQ-quantized study (Fig. 17).  A storage policy owns
the stored representation, exposes a float32 ``array`` for compute
(GPU-style wide accumulation), and implements bit flips on the stored
form with exact restoration — campaigns flip the same bits back after
every run so each trial starts from a pristine model.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "RestoreToken",
    "WeightStore",
    "FloatWeightStore",
    "QuantizedWeightStore",
    "make_weight_store",
    "attach_weight_store",
]


@dataclass(frozen=True)
class RestoreToken:
    """Opaque receipt for undoing a weight corruption."""

    row: int
    col: int
    stored_value: object  # raw bit pattern (float store) or code (quantized)
    compute_value: float


class WeightStore(Protocol):
    """Protocol implemented by every storage policy."""

    @property
    def array(self) -> np.ndarray:
        """Float32 view used by compute (already dequantized/rounded)."""

    @property
    def shape(self) -> tuple[int, int]: ...

    @property
    def n_storage_bits(self) -> int:
        """Bit width of one stored element (fault-site address space)."""

    def flip_element_bits(
        self, row: int, col: int, positions: list[int]
    ) -> RestoreToken: ...

    def faulted_array(
        self, row: int, col: int, positions: list[int]
    ) -> np.ndarray:
        """A fresh copy of :attr:`array` with element ``(row, col)`` set
        to exactly what :meth:`flip_element_bits` would write there.
        Pure: the store is not written, so shared planes stay shared."""

    def restore(self, token: RestoreToken) -> None: ...

    def export_state(self) -> tuple[dict[str, np.ndarray], dict]:
        """``(planes, meta)`` sufficient to reattach without recompute.

        Planes are the raw storage arrays (shareable read-only across
        processes); ``meta`` is the JSON-able recipe
        :func:`attach_weight_store` rebuilds the policy from.
        """

    def release_private(self) -> bool:
        """Drop a CoW-private copy once it is bit-identical to the
        shared planes again (i.e. after fault restoration), rebinding
        to the shared views.  Returns whether a release happened."""


class FloatWeightStore:
    """Weights stored as FP32/FP16/BF16 bit patterns.

    The compute array holds the format-rounded float32 values; flips
    act on the stored integer patterns and update the compute array in
    place, so downstream matmuls see the corruption with no copies.
    """

    def __init__(self, weight: np.ndarray, fmt: str | FloatFormat = "fp32") -> None:
        self.fmt = get_format(fmt)
        self._bits = to_bits(np.asarray(weight, np.float32), self.fmt)
        self._array = from_bits(self._bits, self.fmt)
        self._shared_planes: dict[str, np.ndarray] | None = None

    @property
    def array(self) -> np.ndarray:
        return self._array

    @property
    def shape(self) -> tuple[int, int]:
        return self._array.shape  # type: ignore[return-value]

    @property
    def n_storage_bits(self) -> int:
        return self.fmt.bits

    def export_state(self) -> tuple[dict[str, np.ndarray], dict]:
        """Shareable planes: fp32 stores need only the compute array
        (the stored bits are a reinterpreting view of the same bytes);
        fp16/bf16 keep distinct bit and compute planes."""
        meta = {"kind": "float", "fmt": self.fmt.name}
        if self.fmt.bits == 32:
            planes = {"array": self._array}
        else:
            planes = {"bits": self._bits, "array": self._array}
        meta["planes"] = sorted(planes)
        return planes, meta

    @staticmethod
    def attach(planes: dict[str, np.ndarray], meta: dict) -> "FloatWeightStore":
        """Rebuild over exported planes without copying or re-encoding.

        The attached planes are typically read-only mmap views shared
        with other processes; the first bit flip copies them (see
        :meth:`_ensure_writable`), so corruption stays private to the
        flipping process while pristine tensors stay shared.
        """
        store = FloatWeightStore.__new__(FloatWeightStore)
        store.fmt = get_format(meta["fmt"])
        store._array = planes["array"]
        store._bits = (
            planes["bits"]
            if "bits" in planes
            else store._array.view(np.uint32)
        )
        store._shared_planes = dict(planes)
        return store

    def _ensure_writable(self) -> None:
        """Copy-on-write: privatize shared planes before the first flip.

        Stores attached to a read-only arena (or built directly over
        ``ParamStore.open_shared`` views) clone *only this tensor* the
        moment a weight fault targets it — sibling processes and the
        arena itself keep the pristine bytes.
        """
        if not self._array.flags.writeable:
            self._array = self._array.copy()
            if self.fmt.bits == 32:
                # fp32: stored bits are the compute array's own bytes;
                # re-view the private copy to keep them aliased.
                self._bits = self._array.view(np.uint32)
        if not self._bits.flags.writeable:
            self._bits = self._bits.copy()

    def release_private(self) -> bool:
        """Rebind to the shared-arena planes once the private copy is
        pristine again.  Without this, a long campaign would privatize
        every tensor a weight fault ever touched and a worker's RSS
        would creep toward a full model copy; with it, steady-state
        private memory is bounded by the one in-flight tensor.  The
        bit-exact comparison makes the release unconditionally safe:
        while any corruption is live the planes differ and nothing is
        released."""
        shared = self._shared_planes
        if shared is None or not self._array.flags.writeable:
            return False
        shared_array = shared["array"]
        shared_bits = shared.get("bits")
        if shared_bits is None:  # fp32: bits alias the compute bytes
            shared_bits = shared_array.view(np.uint32)
        # Compare bit patterns, not floats: exact, and NaN-proof.
        if not np.array_equal(self._bits, shared_bits):
            return False
        if self.fmt.bits != 32 and not np.array_equal(
            self._array.view(np.uint32), shared_array.view(np.uint32)
        ):
            return False
        self._array = shared_array
        self._bits = shared_bits
        return True

    def _flipped(self, row: int, col: int, positions: list[int]) -> tuple:
        """``(stored bits, compute value)`` of element ``(row, col)``
        with ``positions`` flipped."""
        bits = flip_bits(
            np.asarray(self._bits[row, col])[None], positions, self.fmt
        )[0]
        return bits, from_bits(np.asarray(bits)[None], self.fmt)[0]

    def flip_element_bits(
        self, row: int, col: int, positions: list[int]
    ) -> RestoreToken:
        self._ensure_writable()
        token = RestoreToken(
            row, col, self._bits[row, col], float(self._array[row, col])
        )
        self._bits[row, col], self._array[row, col] = self._flipped(
            row, col, positions
        )
        return token

    def faulted_array(
        self, row: int, col: int, positions: list[int]
    ) -> np.ndarray:
        array = self._array.copy()
        array[row, col] = self._flipped(row, col, positions)[1]
        return array

    def restore(self, token: RestoreToken) -> None:
        self._bits[token.row, token.col] = token.stored_value
        self._array[token.row, token.col] = token.compute_value


class QuantizedWeightStore:
    """Weights stored as GPTQ-style group-quantized integer codes."""

    def __init__(
        self, weight: np.ndarray, nbits: int, group_size: int = 32
    ) -> None:
        self.quantized: QuantizedMatrix = quantize_matrix(
            weight, nbits=nbits, group_size=group_size
        )
        self._array = self.quantized.dequantize()
        self._shared_planes: dict[str, np.ndarray] | None = None

    @property
    def array(self) -> np.ndarray:
        return self._array

    @property
    def shape(self) -> tuple[int, int]:
        return self.quantized.shape

    @property
    def n_storage_bits(self) -> int:
        return self.quantized.nbits

    def export_state(self) -> tuple[dict[str, np.ndarray], dict]:
        planes = {
            "codes": self.quantized.codes,
            "scales": self.quantized.scales,
            "array": self._array,
        }
        meta = {
            "kind": "quant",
            "nbits": self.quantized.nbits,
            "group_size": self.quantized.group_size,
            "planes": sorted(planes),
        }
        return planes, meta

    @staticmethod
    def attach(
        planes: dict[str, np.ndarray], meta: dict
    ) -> "QuantizedWeightStore":
        """Rebuild over exported planes — the exact codes and scales,
        not a requantization of the dequantized array."""
        store = QuantizedWeightStore.__new__(QuantizedWeightStore)
        store.quantized = QuantizedMatrix(
            codes=planes["codes"],
            scales=planes["scales"],
            nbits=int(meta["nbits"]),
            group_size=int(meta["group_size"]),
        )
        store._array = planes["array"]
        store._shared_planes = dict(planes)
        return store

    def _ensure_writable(self) -> None:
        """Copy-on-write for shared-arena attachment: flips write the
        codes and the compute array, so privatize those two planes on
        the first fault.  Scales are never written and stay shared."""
        q = self.quantized
        if not q.codes.flags.writeable:
            self.quantized = QuantizedMatrix(
                codes=q.codes.copy(),
                scales=q.scales,
                nbits=q.nbits,
                group_size=q.group_size,
            )
        if not self._array.flags.writeable:
            self._array = self._array.copy()

    def release_private(self) -> bool:
        """See :meth:`FloatWeightStore.release_private`.  All-or-nothing:
        codes *and* compute array must both match the shared planes, so
        a nested still-corrupted fault (which could leave one plane
        pristine, e.g. a zero-scale group dequantizing identically for
        any code) never gets a read-only plane under its restore."""
        shared = self._shared_planes
        q = self.quantized
        if shared is None or not (
            q.codes.flags.writeable or self._array.flags.writeable
        ):
            return False
        if not np.array_equal(q.codes, shared["codes"]):
            return False
        if not np.array_equal(
            self._array.view(np.uint32), shared["array"].view(np.uint32)
        ):
            return False
        self.quantized = QuantizedMatrix(
            codes=shared["codes"],
            scales=q.scales,
            nbits=q.nbits,
            group_size=q.group_size,
        )
        self._array = shared["array"]
        return True

    def flip_element_bits(
        self, row: int, col: int, positions: list[int]
    ) -> RestoreToken:
        self._ensure_writable()
        token = RestoreToken(row, col, None, float(self._array[row, col]))
        old_code = self.quantized.flip_code_bits(row, col, positions)
        token = RestoreToken(row, col, old_code, token.compute_value)
        self._array[row, col] = self.quantized.dequantize_element(row, col)
        return token

    def faulted_array(
        self, row: int, col: int, positions: list[int]
    ) -> np.ndarray:
        q = self.quantized
        array = self._array.copy()
        array[row, col] = q.dequantize_element(
            row, col, q.flipped_code(row, col, positions)
        )
        return array

    def restore(self, token: RestoreToken) -> None:
        self.quantized.set_code(token.row, token.col, int(token.stored_value))
        self._array[token.row, token.col] = token.compute_value


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


def attach_weight_store(
    planes: dict[str, np.ndarray], meta: dict
) -> WeightStore:
    """Rebuild a storage policy over planes exported by ``export_state``.

    Unlike :func:`make_weight_store`, nothing is re-encoded: the policy
    adopts the planes as-is (typically read-only shared-arena views),
    so the attached store is bit-identical to the exporting one.
    """
    kind = meta.get("kind")
    if kind == "float":
        return FloatWeightStore.attach(planes, meta)
    if kind == "quant":
        return QuantizedWeightStore.attach(planes, meta)
    raise KeyError(f"unknown weight-store kind {kind!r}")
