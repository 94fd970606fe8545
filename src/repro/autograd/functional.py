"""Differentiable neural-network primitives used by the transformer.

Softmax and cross-entropy get dedicated fused backward rules (the
composed form is both slower and less numerically stable); the rest are
thin compositions over :class:`~repro.autograd.tensor.Tensor` ops.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor

__all__ = [
    "softmax",
    "log_softmax",
    "silu",
    "rms_norm",
    "cross_entropy",
    "rope",
    "rotate_half",
    "softmax_np",
    "log_softmax_np",
    "silu_np",
    "silu_np_unguarded",
    "rms_norm_np",
]

# ----------------------------------------------------------------------------
# Plain-NumPy versions, shared with the fast inference engine.
# ----------------------------------------------------------------------------


def softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax over ``axis`` (pure NumPy)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax over ``axis`` (pure NumPy)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def silu_np(x: np.ndarray) -> np.ndarray:
    """SiLU / swish activation (pure NumPy).

    exp overflow saturates the logistic to its correct limit, so the
    plain form is used under errstate suppression for speed.
    """
    with np.errstate(over="ignore"):
        return silu_np_unguarded(x)


def silu_np_unguarded(x: np.ndarray) -> np.ndarray:
    """:func:`silu_np` without its own ``np.errstate`` (about 2 us a
    call), for a caller already under one that ignores overflow — the
    inference engine's forward."""
    return x / (1.0 + np.exp(-x))


def rms_norm_np(x: np.ndarray, weight: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Root-mean-square layer normalization (pure NumPy).

    The mean square is spelled as its reduction — the same bits as
    ``np.mean`` at under half its call overhead, nine times a forward.
    """
    ms = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1]
    return x / np.sqrt(ms + eps) * weight


# ----------------------------------------------------------------------------
# Differentiable versions.
# ----------------------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax with a fused Jacobian-vector backward rule."""
    out_data = softmax_np(x.data, axis=axis)

    def backward() -> None:
        assert out.grad is not None
        if x.requires_grad:
            g = out.grad
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (g - dot))

    out = Tensor._make(out_data, (x,), backward)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax with a fused backward rule."""
    out_data = log_softmax_np(x.data, axis=axis)
    probs = np.exp(out_data)

    def backward() -> None:
        assert out.grad is not None
        if x.requires_grad:
            g = out.grad
            x._accumulate(g - probs * g.sum(axis=axis, keepdims=True))

    out = Tensor._make(out_data, (x,), backward)
    return out


def silu(x: Tensor) -> Tensor:
    """SiLU activation ``x * sigmoid(x)`` (the Llama MLP nonlinearity)."""
    return x * x.sigmoid()


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-5) -> Tensor:
    """RMSNorm: ``x / sqrt(mean(x^2) + eps) * weight``.

    Llama-style transformers place this before the attention and MLP
    blocks; the paper identifies it as the mechanism that contains
    computational-fault propagation (Fig. 6).
    """
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x * (ms + eps) ** -0.5 * weight


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: int = -100,
) -> Tensor:
    """Mean token-level cross entropy with a fused backward rule.

    Parameters
    ----------
    logits:
        Tensor of shape ``(N, V)``.
    targets:
        Integer array of shape ``(N,)``; positions equal to
        ``ignore_index`` contribute neither loss nor gradient (used to
        mask padding and prompt tokens during fine-tuning).
    """
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ValueError(
            f"cross_entropy expects (N, V) logits and (N,) targets, got"
            f" {logits.shape} and {targets.shape}"
        )
    valid = targets != ignore_index
    n_valid = int(valid.sum())
    logp = log_softmax_np(logits.data, axis=-1)
    if n_valid == 0:
        return as_tensor(0.0)
    rows = np.nonzero(valid)[0]
    picked = logp[rows, targets[rows]]
    loss_value = -picked.mean()

    probs = np.exp(logp)

    def backward() -> None:
        assert out.grad is not None
        if logits.requires_grad:
            grad = probs.copy()
            grad[rows, targets[rows]] -= 1.0
            grad[~valid] = 0.0
            logits._accumulate(grad * (float(out.grad) / n_valid))

    out = Tensor._make(np.asarray(loss_value, dtype=np.float32), (logits,), backward)
    return out


def _rotate_half_np(x: np.ndarray) -> np.ndarray:
    half = x.shape[-1] // 2
    return np.concatenate([-x[..., half:], x[..., :half]], axis=-1)


def rotate_half(x: np.ndarray) -> np.ndarray:
    """Llama rotate-half helper: ``(x1, x2) -> (-x2, x1)``."""
    return _rotate_half_np(x)


def rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary positional embedding applied to the last dimension.

    ``cos``/``sin`` are constant tables broadcastable against ``x``
    (shape ``(T, head_dim)`` against ``(..., T, head_dim)``).  The
    rotation is orthogonal, so the backward pass applies the transpose
    rotation ``g * cos - rotate_half(g * sin)``.
    """
    out_data = x.data * cos + _rotate_half_np(x.data) * sin

    def backward() -> None:
        assert out.grad is not None
        if x.requires_grad:
            g = out.grad
            x._accumulate(g * cos - _rotate_half_np(g * sin))

    out = Tensor._make(out_data, (x,), backward)
    return out
