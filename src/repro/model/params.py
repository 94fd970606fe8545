"""Named parameter store with the addressing scheme fault injection uses.

Weights are addressed the way the paper specifies fault-injection
targets: ``(block id, layer name, row, column)``.  The canonical layer
names per transformer block are::

    attn_norm  q_proj  k_proj  v_proj  out_proj
    mlp_norm   gate_proj  up_proj  down_proj          (dense MLP)
    mlp_norm   router  experts.{e}.{gate,up,down}_proj (MoE)

plus the model-level ``embed``, ``final_norm`` and ``lm_head``.  Linear
weights are stored ``(in_features, out_features)`` so that the forward
pass is ``y = x @ W``; a fault in ``W[r, c]`` therefore corrupts column
``c`` of the output — the propagation geometry in the paper's Fig. 5.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.model.config import ModelConfig

__all__ = [
    "ParamStore",
    "init_params",
    "block_linear_layers",
    "LINEAR_LAYER_NAMES",
    "MOE_LINEAR_LAYER_NAMES",
    "ARENA_SCHEMA_VERSION",
    "write_arena",
    "open_arena",
    "arena_valid",
]

# ----------------------------------------------------------------------------
# Shared-memory arenas: a directory holding one flat binary file of
# concatenated tensors plus a JSON index describing their layout.  The
# arena is written once per zoo build, beside the model's ``.npz``, and
# mapped read-only by every process that loads the model; the OS page
# cache backs every mapping with the same physical pages.
# ----------------------------------------------------------------------------

ARENA_SCHEMA_VERSION = 1
_ARENA_ALIGN = 64
"""Tensor offsets are aligned so every view starts on a cache line."""

_ARENA_BIN = "arena.bin"
_ARENA_INDEX = "index.json"


def _align(offset: int) -> int:
    return (offset + _ARENA_ALIGN - 1) // _ARENA_ALIGN * _ARENA_ALIGN


def write_arena(
    directory: str | Path,
    arrays: dict[str, np.ndarray],
    meta: dict | None = None,
) -> Path:
    """Serialize named arrays into a memory-mappable arena directory.

    Layout: ``arena.bin`` holds the tensors' raw bytes back to back
    (64-byte aligned, insertion order preserved); ``index.json`` maps
    each name to ``(dtype, shape, offset)`` plus caller metadata.  The
    index is written *last*, so a directory without one is an aborted
    write and readers treat it as absent — re-exporting over it is
    always safe.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index_path = directory / _ARENA_INDEX
    index_path.unlink(missing_ok=True)  # invalidate while rewriting
    entries = []
    offset = 0
    with (directory / _ARENA_BIN).open("wb") as fh:
        for name, array in arrays.items():
            shape = list(np.asarray(array).shape)
            # ascontiguousarray promotes 0-d to 1-d; the index keeps
            # the original shape so attachment round-trips exactly.
            array = np.ascontiguousarray(array)
            offset = _align(offset)
            fh.seek(offset)
            fh.write(array.tobytes())
            entries.append(
                {
                    "name": name,
                    "dtype": array.dtype.str,
                    "shape": shape,
                    "offset": offset,
                    "nbytes": array.nbytes,
                }
            )
            offset += array.nbytes
        fh.flush()
    index = {
        "schema_version": ARENA_SCHEMA_VERSION,
        "total_bytes": offset,
        "meta": meta or {},
        "arrays": entries,
    }
    # No sort_keys: dict order in ``meta`` is semantic (an attached
    # engine must enumerate its stores in the exporter's order, or
    # uniform site sampling would pick different layers per process).
    index_path.write_text(json.dumps(index, indent=1))
    return directory


def open_arena(directory: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Map an arena read-only; returns ``(name -> view, meta)``.

    Every returned array is a zero-copy, non-writeable view into one
    shared ``np.memmap`` of ``arena.bin`` — attaching from many
    processes shares physical pages.  Mutating a view raises; a
    weight-fault trial reads a faulted copy of the one tensor it
    strikes instead of writing one.
    """
    directory = Path(directory)
    index = json.loads((directory / _ARENA_INDEX).read_text())
    version = index.get("schema_version")
    if version != ARENA_SCHEMA_VERSION:
        raise ValueError(
            f"arena schema mismatch in {directory}: file has {version!r},"
            f" this build reads {ARENA_SCHEMA_VERSION}"
        )
    mm = np.memmap(directory / _ARENA_BIN, dtype=np.uint8, mode="r")
    arrays: dict[str, np.ndarray] = {}
    for entry in index["arrays"]:
        start = entry["offset"]
        raw = mm[start : start + entry["nbytes"]]
        arrays[entry["name"]] = raw.view(entry["dtype"]).reshape(
            entry["shape"]
        )
    return arrays, index["meta"]


def arena_valid(directory: str | Path) -> bool:
    """Whether ``directory`` holds a complete, readable arena."""
    directory = Path(directory)
    if not (directory / _ARENA_INDEX).exists():
        return False
    try:
        index = json.loads((directory / _ARENA_INDEX).read_text())
    except (OSError, json.JSONDecodeError):
        return False
    return (
        index.get("schema_version") == ARENA_SCHEMA_VERSION
        and (directory / _ARENA_BIN).exists()
    )

# Linear layers inside a dense transformer block -- the FI target set
# (the paper restricts injection to linear layers in the blocks, which
# dominate compute: ~94% of FLOPs in Llama2-7B).
LINEAR_LAYER_NAMES: tuple[str, ...] = (
    "q_proj",
    "k_proj",
    "v_proj",
    "out_proj",
    "gate_proj",
    "up_proj",
    "down_proj",
)

MOE_MLP_NAMES: tuple[str, ...] = ("gate_proj", "up_proj", "down_proj")
MOE_LINEAR_LAYER_NAMES: tuple[str, ...] = (
    "q_proj",
    "k_proj",
    "v_proj",
    "out_proj",
    "router",
)


def block_linear_layers(config: ModelConfig, block: int) -> list[str]:
    """Full parameter names of every FI-targetable linear layer in a block."""
    prefix = f"blocks.{block}."
    if not config.is_moe:
        return [prefix + name for name in LINEAR_LAYER_NAMES]
    names = [prefix + name for name in MOE_LINEAR_LAYER_NAMES]
    for e in range(config.n_experts):
        names.extend(prefix + f"experts.{e}.{n}" for n in MOE_MLP_NAMES)
    return names


class ParamStore:
    """An ordered mapping of parameter name -> float32 ndarray."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]) -> None:
        self.config = config
        self._params = dict(params)
        self.shared_dir: Path | None = None
        """Arena directory backing this store's arrays, when it was
        opened via :meth:`open_shared` (views are then read-only)."""

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        if name in self._params and self._params[name].shape != value.shape:
            raise ValueError(
                f"shape mismatch for {name}: {self._params[name].shape}"
                f" vs {value.shape}"
            )
        self._params[name] = np.asarray(value, dtype=np.float32)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self) -> Iterator[str]:
        return iter(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._params.items())

    def names(self) -> list[str]:
        """All parameter names in insertion order."""
        return list(self._params)

    def linear_layer_names(self) -> list[str]:
        """All FI-targetable linear layers across all blocks."""
        out: list[str] = []
        for b in range(self.config.n_blocks):
            out.extend(block_linear_layers(self.config, b))
        return out

    def n_params(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self._params.values())

    def copy(self) -> "ParamStore":
        """Deep copy (weights duplicated)."""
        return ParamStore(
            self.config, {k: v.copy() for k, v in self._params.items()}
        )

    def fingerprint(self) -> str:
        """Content hash of all weights (order-sensitive, deterministic)."""
        digest = hashlib.sha256()
        digest.update(self.config.to_json().encode())
        for name in sorted(self._params):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(self._params[name]).tobytes())
        return digest.hexdigest()[:16]

    # -- shared (memory-mapped) backing --------------------------------------

    def to_shared(self, directory: str | Path) -> "ParamStore":
        """Export into a read-only mmap arena and return the shared view.

        The returned store's :meth:`fingerprint` is bit-identical to
        this one's (same config JSON, same parameter bytes); its arrays
        are zero-copy views any number of processes can attach to via
        :meth:`open_shared` without duplicating the weights.
        """
        write_arena(
            directory,
            self._params,
            meta={"kind": "param-store", "config": self.config.to_json()},
        )
        return ParamStore.open_shared(directory)

    @staticmethod
    def open_shared(directory: str | Path) -> "ParamStore":
        """Attach to an arena written by :meth:`to_shared` (zero-copy)."""
        arrays, meta = open_arena(directory)
        if meta.get("kind") != "param-store":
            raise ValueError(
                f"{directory} is not a ParamStore arena"
                f" (kind={meta.get('kind')!r})"
            )
        store = ParamStore(ModelConfig.from_json(meta["config"]), arrays)
        store.shared_dir = Path(directory)
        return store

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Serialize config + weights to an ``.npz`` archive."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, __config__=np.frombuffer(self.config.to_json().encode(), np.uint8),
            **self._params,
        )

    @staticmethod
    def load(path: str | Path) -> "ParamStore":
        """Inverse of :meth:`save`."""
        with np.load(Path(path)) as archive:
            config = ModelConfig.from_json(bytes(archive["__config__"]).decode())
            params = {
                k: archive[k].astype(np.float32)
                for k in archive.files
                if k != "__config__"
            }
        return ParamStore(config, params)


def _normal(rng: np.random.Generator, shape: tuple[int, ...], std: float) -> np.ndarray:
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def init_params(config: ModelConfig, seed: int) -> ParamStore:
    """GPT-2-style scaled-normal initialization, fully seed-deterministic.

    ``config.init_gain`` scales all linear initializations; the model
    "families" in the zoo use different gains (and shapes), giving them
    different weight-value distributions — the property behind the
    paper's Fig. 13 / Observation #3.
    """
    rng = np.random.default_rng(seed)
    d, f, v = config.d_model, config.d_ff, config.vocab_size
    std = config.init_gain * d**-0.5
    # Residual-path projections get the 1/sqrt(2L) depth correction.
    res_std = std / np.sqrt(2.0 * config.n_blocks)

    params: dict[str, np.ndarray] = {"embed.weight": _normal(rng, (v, d), 0.02)}
    for b in range(config.n_blocks):
        p = f"blocks.{b}."
        params[p + "attn_norm.weight"] = np.ones(d, dtype=np.float32)
        params[p + "q_proj.weight"] = _normal(rng, (d, d), std)
        params[p + "k_proj.weight"] = _normal(rng, (d, d), std)
        params[p + "v_proj.weight"] = _normal(rng, (d, d), std)
        params[p + "out_proj.weight"] = _normal(rng, (d, d), res_std)
        params[p + "mlp_norm.weight"] = np.ones(d, dtype=np.float32)
        if config.is_moe:
            params[p + "router.weight"] = _normal(rng, (d, config.n_experts), std)
            for e in range(config.n_experts):
                ep = p + f"experts.{e}."
                params[ep + "gate_proj.weight"] = _normal(rng, (d, f), std)
                params[ep + "up_proj.weight"] = _normal(rng, (d, f), std)
                params[ep + "down_proj.weight"] = _normal(rng, (f, d), res_std)
        else:
            params[p + "gate_proj.weight"] = _normal(rng, (d, f), std)
            params[p + "up_proj.weight"] = _normal(rng, (d, f), std)
            params[p + "down_proj.weight"] = _normal(rng, (f, d), res_std)
    params["final_norm.weight"] = np.ones(d, dtype=np.float32)
    params["lm_head.weight"] = _normal(rng, (d, v), std)
    return ParamStore(config, params)
