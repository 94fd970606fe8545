"""Fast NumPy inference: engine, KV cache, hooks, storage policies."""

from repro.inference.engine import InferenceEngine, Session
from repro.inference.hooks import HookContext, HookFn, HookManager
from repro.inference.kvcache import KVCache, PooledKVCache, PromptCache
from repro.inference.recorder import Recorder
from repro.inference.storage import (
    FloatWeightStore,
    QuantizedWeightStore,
    WeightStore,
    make_weight_store,
)

__all__ = [
    "FloatWeightStore",
    "HookContext",
    "HookFn",
    "HookManager",
    "InferenceEngine",
    "KVCache",
    "PooledKVCache",
    "PromptCache",
    "QuantizedWeightStore",
    "Recorder",
    "Session",
    "WeightStore",
    "make_weight_store",
]
