"""Parameter-dict optimizers and gradient clipping."""

import numpy as np
import pytest

from repro.ml.layers import Dense
from repro.ml.optim import AdamUpdater, clip_gradients, global_grad_norm


def _layer_with_grad(grad_value=1.0):
    layer = Dense(2, 2, seed=0)
    layer.grads["W"][...] = grad_value
    layer.grads["b"][...] = grad_value
    return layer


class TestGradNorm:
    def test_norm_value(self):
        layer = _layer_with_grad(2.0)
        expected = np.sqrt(4.0 * (4 + 2))
        assert global_grad_norm([layer]) == pytest.approx(expected)

    def test_clip_reduces_norm(self):
        layer = _layer_with_grad(10.0)
        pre = clip_gradients([layer], max_norm=1.0)
        assert pre > 1.0
        assert global_grad_norm([layer]) == pytest.approx(1.0)

    def test_clip_noop_when_small(self):
        layer = _layer_with_grad(0.001)
        before = layer.grads["W"].copy()
        clip_gradients([layer], max_norm=10.0)
        np.testing.assert_array_equal(layer.grads["W"], before)


class TestAdamUpdater:
    def test_minimizes_quadratic(self):
        """Drive a Dense layer's W toward a target by hand-fed gradients."""
        layer = Dense(1, 1, seed=1)
        target = 3.0
        opt = AdamUpdater([layer], lr=0.1)
        for _ in range(300):
            w = layer.params["W"][0, 0]
            layer.zero_grad()
            layer.grads["W"][0, 0] = 2 * (w - target)
            opt.step()
        assert layer.params["W"][0, 0] == pytest.approx(target, abs=1e-3)

    def test_bias_correction_first_step(self):
        layer = _layer_with_grad(1.0)
        before = layer.params["W"].copy()
        AdamUpdater([layer], lr=0.5).step()
        # first Adam step magnitude ~ lr regardless of gradient scale
        np.testing.assert_allclose(layer.params["W"], before - 0.5, atol=1e-6)
