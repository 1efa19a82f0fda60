"""Hypothesis-driven finite-difference verification of every ml/ backward.

The deterministic gradient checks in ``test_layers.py`` pin one shape and
one seed per layer; these properties sweep shapes, seeds, and inputs, so a
backward pass that is only accidentally right at the pinned point (a
transposed matmul that cancels at a symmetric size, a gate-slice
off-by-one that vanishes at hidden_dim == in_dim) still fails. The same
treatment covers the REINFORCE objective: ``backprop_episode`` must
produce the gradients of ``scale * log pi(actions) - entropy_weight *
sum_t H_t`` for *every* episode, scale, and entropy weight.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alphabet import GateAlphabet
from repro.core.controller import PolicyController
from repro.ml.layers import Dense, Embedding, LSTMCell
from repro.utils.rng import as_rng

EPS = 1e-6
TOL = 1e-4  # central differences at eps=1e-6 are good to ~1e-8 relative


def numerical_grad(loss, param):
    """Central finite differences of scalar ``loss()`` w.r.t. ``param``
    (an ndarray mutated in place)."""
    grad = np.zeros_like(param)
    flat = param.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + EPS
        plus = loss()
        flat[i] = keep - EPS
        minus = loss()
        flat[i] = keep
        out[i] = (plus - minus) / (2 * EPS)
    return grad


def assert_close(analytic, numeric, label):
    np.testing.assert_allclose(
        analytic, numeric, rtol=TOL, atol=TOL, err_msg=f"gradient of {label}"
    )


dims = st.integers(min_value=1, max_value=5)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestDenseGradcheck:
    @given(in_dim=dims, out_dim=dims, seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_params_and_input(self, in_dim, out_dim, seed):
        rng = as_rng(seed)
        layer = Dense(in_dim, out_dim, seed=seed)
        x = rng.normal(size=in_dim)
        dy = rng.normal(size=out_dim)  # fixed upstream: loss = dy . y

        def loss():
            y, _ = layer.forward(x)
            return float(dy @ y)

        layer.zero_grad()
        _, cache = layer.forward(x)
        dx = layer.backward(dy, cache)
        for name in ("W", "b"):
            assert_close(
                layer.grads[name],
                numerical_grad(loss, layer.params[name]),
                f"Dense.{name}",
            )
        assert_close(dx, numerical_grad(loss, x), "Dense input")

    @given(in_dim=dims, out_dim=dims, batch=st.integers(2, 4), seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_batched(self, in_dim, out_dim, batch, seed):
        rng = as_rng(seed)
        layer = Dense(in_dim, out_dim, seed=seed)
        x = rng.normal(size=(batch, in_dim))
        dy = rng.normal(size=(batch, out_dim))

        def loss():
            y, _ = layer.forward(x)
            return float((dy * y).sum())

        layer.zero_grad()
        _, cache = layer.forward(x)
        dx = layer.backward(dy, cache)
        for name in ("W", "b"):
            assert_close(
                layer.grads[name],
                numerical_grad(loss, layer.params[name]),
                f"Dense.{name} (batched)",
            )
        assert_close(dx, numerical_grad(loss, x), "Dense input (batched)")


class TestEmbeddingGradcheck:
    @given(vocab=st.integers(2, 6), dim=dims, seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_lookup_row(self, vocab, dim, seed):
        rng = as_rng(seed)
        layer = Embedding(vocab, dim, seed=seed)
        token = int(rng.integers(vocab))
        dvec = rng.normal(size=dim)

        def loss():
            vec, _ = layer.forward(token)
            return float(dvec @ vec)

        layer.zero_grad()
        _, cache = layer.forward(token)
        layer.backward(dvec, cache)
        assert_close(
            layer.grads["E"], numerical_grad(loss, layer.params["E"]), "Embedding.E"
        )


class TestLSTMCellGradcheck:
    @given(
        in_dim=dims,
        hidden=dims,
        steps=st.integers(1, 3),
        seed=seeds,
    )
    @settings(max_examples=10, deadline=None)
    def test_bptt_params_and_inputs(self, in_dim, hidden, steps, seed):
        rng = as_rng(seed)
        cell = LSTMCell(in_dim, hidden, seed=seed)
        xs = [rng.normal(size=in_dim) for _ in range(steps)]
        # per-step upstream gradients exercise the dh-accumulation path,
        # not just the final state
        dhs = [rng.normal(size=hidden) for _ in range(steps)]

        def loss():
            h, c = cell.initial_state()
            total = 0.0
            for x, dh in zip(xs, dhs):
                h, c, _ = cell.forward(x, h, c)
                total += float(dh @ h)
            return total

        cell.zero_grad()
        h, c = cell.initial_state()
        caches = []
        for x in xs:
            h, c, cache = cell.forward(x, h, c)
            caches.append(cache)
        dh_next = np.zeros(hidden)
        dc_next = np.zeros(hidden)
        dxs = [None] * steps
        for t in reversed(range(steps)):
            dx, dh_next, dc_next = cell.backward(
                dhs[t] + dh_next, dc_next, caches[t]
            )
            dxs[t] = dx
        for name in ("Wx", "Wh", "b"):
            assert_close(
                cell.grads[name],
                numerical_grad(loss, cell.params[name]),
                f"LSTMCell.{name} over {steps} steps",
            )
        for t in range(steps):
            assert_close(dxs[t], numerical_grad(loss, xs[t]), f"LSTM input {t}")


class TestReinforceLossGradcheck:
    """``backprop_episode`` == gradients of the written-down objective."""

    @staticmethod
    def _episode_loss(controller, taken, scale, entropy_weight):
        """Teacher-forced replay of the episode's action sequence:
        ``scale * log pi(actions) - entropy_weight * sum_t H_t``."""
        h, c = controller.lstm.initial_state()
        prev = controller.start_index
        total = 0.0
        for step, action in enumerate(taken):
            probs, h, c, _ = controller.step_probs(prev, h, c, step)
            total += scale * float(np.log(probs[action]))
            safe_log = np.log(np.maximum(probs, 1e-300))
            total -= entropy_weight * (-float(probs @ safe_log))
            prev = action
        return total

    @given(
        seed=seeds,
        scale=st.floats(-2.0, 2.0, allow_nan=False),
        entropy_weight=st.floats(0.0, 0.5, allow_nan=False),
    )
    @settings(max_examples=8, deadline=None)
    def test_backprop_episode_matches_objective(
        self, seed, scale, entropy_weight
    ):
        alphabet = GateAlphabet(("rx", "ry", "rz"))
        with pytest.MonkeyPatch.context() as patch:  # a fixture would outlive one example
            patch.setattr(PolicyController, "embedding_dim", 3)
            controller = PolicyController(alphabet, max_gates=3, hidden_dim=4, seed=seed)
        episode = controller.sample_episode(as_rng(seed + 1))
        # the sampled trajectory includes the END step when one was drawn
        taken = [cache[-1] for cache in episode.caches]

        def loss():
            return self._episode_loss(controller, taken, scale, entropy_weight)

        controller.zero_grad()
        controller.backprop_episode(
            episode, scale=scale, entropy_weight=entropy_weight
        )
        for layer, layer_name in zip(
            controller.layers, ("embedding", "lstm", "head")
        ):
            for name, param in layer.params.items():
                assert_close(
                    layer.grads[name],
                    numerical_grad(loss, param),
                    f"{layer_name}.{name}",
                )
