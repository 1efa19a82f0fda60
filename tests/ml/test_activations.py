"""Activation functions: values, stability, derivative identities."""

import numpy as np
import pytest

from repro.ml.activations import dsigmoid, dtanh, sigmoid, softmax, tanh


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_saturation_no_overflow(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(out))

    def test_derivative_identity(self):
        x = np.linspace(-3, 3, 11)
        y = sigmoid(x)
        eps = 1e-6
        numeric = (sigmoid(x + eps) - sigmoid(x - eps)) / (2 * eps)
        np.testing.assert_allclose(dsigmoid(y), numeric, atol=1e-8)

    def test_symmetry(self):
        x = np.array([1.7])
        assert sigmoid(x)[0] + sigmoid(-x)[0] == pytest.approx(1.0)


class TestTanh:
    def test_derivative_identity(self):
        x = np.linspace(-2, 2, 9)
        y = tanh(x)
        eps = 1e-6
        numeric = (tanh(x + eps) - tanh(x - eps)) / (2 * eps)
        np.testing.assert_allclose(dtanh(y), numeric, atol=1e-8)


class TestSoftmax:
    def test_sums_to_one(self):
        p = softmax(np.array([1.0, 2.0, 3.0]))
        assert p.sum() == pytest.approx(1.0)

    def test_shift_invariance(self):
        logits = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))

    def test_large_logits_stable(self):
        p = softmax(np.array([1000.0, 999.0]))
        assert np.all(np.isfinite(p))
        assert p[0] > p[1]

    def test_batch_axis(self):
        logits = np.random.default_rng(0).normal(size=(4, 3))
        p = softmax(logits)  # rows of a batch normalize along the last axis
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(4))

