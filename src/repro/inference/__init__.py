"""Fast NumPy inference: engine, KV cache, hooks, storage policies."""

from repro.inference.engine import CaptureState, InferenceEngine, Session
from repro.inference.hooks import HookContext, HookFn, HookManager
from repro.inference.kvcache import KVCache, PooledKVCache, PromptCache
from repro.inference.storage import (
    FloatWeightStore,
    QuantizedWeightStore,
    RestoreToken,
    WeightStore,
    make_weight_store,
)

__all__ = [
    "CaptureState",
    "FloatWeightStore",
    "HookContext",
    "HookFn",
    "HookManager",
    "InferenceEngine",
    "KVCache",
    "PooledKVCache",
    "PromptCache",
    "QuantizedWeightStore",
    "RestoreToken",
    "Session",
    "WeightStore",
    "make_weight_store",
]
