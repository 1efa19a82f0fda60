"""Numerically-stable activations and their derivatives.

Minimal by design: the controller needs softmax sampling, tanh/sigmoid for
the LSTM gates, and log-softmax for REINFORCE losses. Everything is
vectorized over leading batch axes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sigmoid", "dsigmoid", "tanh", "dtanh", "softmax", "log_softmax"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, stable for large |x| (no overflow in exp)."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    exp_x = np.exp(x[~pos])
    out[~pos] = exp_x / (1.0 + exp_x)
    return out


def dsigmoid(y: np.ndarray) -> np.ndarray:
    """Derivative in terms of the *output* ``y = sigmoid(x)``."""
    return y * (1.0 - y)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def dtanh(y: np.ndarray) -> np.ndarray:
    """Derivative in terms of the *output* ``y = tanh(x)``."""
    return 1.0 - y**2


def softmax(logits: np.ndarray) -> np.ndarray:
    """Shift-invariant softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """``log softmax`` along the last axis, computed without forming the
    ratio (stable)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
