"""Gradient-descent updates for layer parameter dicts.

These operate on the ``params``/``grads`` dictionaries of
:mod:`repro.ml.layers` modules — separate from :mod:`repro.optimizers`,
which minimizes black-box objectives over flat vectors.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = ["AdamUpdater", "clip_gradients", "global_grad_norm"]


def global_grad_norm(layers: Iterable) -> float:
    """L2 norm over every gradient buffer of every layer."""
    total = 0.0
    for layer in layers:
        for g in layer.grads.values():
            total += float(np.sum(g**2))
    return float(np.sqrt(total))


def clip_gradients(layers: Iterable, max_norm: float) -> float:
    """Scale all gradients so the global norm is at most ``max_norm``;
    returns the pre-clip norm (REINFORCE through an LSTM needs this)."""
    layers = list(layers)
    norm = global_grad_norm(layers)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for layer in layers:
            for g in layer.grads.values():
                g *= scale
    return norm


class AdamUpdater:
    """Adam over layer dicts (the controller's default trainer)."""

    #: moment decays and denominator guard: class constants
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, layers: Iterable, lr: float = 0.01) -> None:
        self.layers = list(layers)
        self.lr = float(lr)
        self._t = 0
        self._m = [
            {k: np.zeros_like(v) for k, v in layer.params.items()} for layer in self.layers
        ]
        self._v = [
            {k: np.zeros_like(v) for k, v in layer.params.items()} for layer in self.layers
        ]

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for layer, m_state, v_state in zip(self.layers, self._m, self._v):
            for key, param in layer.params.items():
                grad = layer.grads[key]
                m = m_state[key]
                v = v_state[key]
                m *= self.beta1
                m += (1 - self.beta1) * grad
                v *= self.beta2
                v += (1 - self.beta2) * grad**2
                param -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()
