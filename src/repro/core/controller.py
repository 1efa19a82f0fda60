"""LSTM policy controller — the "Deep Neural Net" of Fig. 1.

The released paper evaluates random search but its architecture diagram and
future-work section (§4, citing Zoph & Le 2016 and Zhou et al. 2018)
specify a neural predictor trained by reward propagation. This module
implements it: an LSTM emits gate tokens autoregressively, REINFORCE with a
moving baseline and entropy bonus trains it on the evaluator's rewards.

Vocabulary layout: indices ``0..V-1`` are alphabet tokens, ``V`` is END
(stop emitting; masked at step 0 so candidates are non-empty), ``V+1`` is
the START input symbol (never an output).
"""

from __future__ import annotations

import numpy as np

from repro.core.alphabet import GateAlphabet
from repro.core.predictor import Predictor
from repro.ml.activations import softmax
from repro.ml.layers import Dense, Embedding, LSTMCell
from repro.ml.optim import AdamUpdater, clip_gradients
from repro.ml.reinforce import Episode, MovingBaseline
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive

__all__ = ["PolicyController", "ControllerPredictor"]

_MASK = -1e9
#: global gradient-norm bound applied before each policy update
GRAD_CLIP = 5.0


class PolicyController:
    """Autoregressive token policy with manual BPTT, trained through
    :class:`ControllerPredictor` in the Algorithm-1 search loop."""

    #: token-embedding width: a class constant (a test monkeypatches it)
    embedding_dim = 16

    def __init__(
        self,
        alphabet: GateAlphabet,
        max_gates: int = 4,
        *,
        hidden_dim: int = 32,
        learning_rate: float = 0.02,
        allow_end: bool = True,
        seed: int = 0,
    ) -> None:
        check_positive(max_gates, "max_gates")
        self.alphabet = alphabet
        self.max_gates = max_gates
        self.allow_end = allow_end
        self.vocab = alphabet.size  # output tokens
        self.end_index = alphabet.size
        self.start_index = alphabet.size + 1
        self.embedding = Embedding(self.vocab + 2, self.embedding_dim, seed=seed)
        self.lstm = LSTMCell(self.embedding_dim, hidden_dim, seed=seed + 1)
        self.head = Dense(hidden_dim, self.vocab + 1, seed=seed + 2)  # +1 for END
        self._layers = [self.embedding, self.lstm, self.head]
        self._updater = AdamUpdater(self._layers, lr=learning_rate)

    # -- sampling ----------------------------------------------------------------

    def _mask(self, step: int) -> np.ndarray:
        """Additive logit mask: END is illegal at step 0 or when disabled."""
        mask = np.zeros(self.vocab + 1)
        if step == 0 or not self.allow_end:
            mask[self.end_index] = _MASK
        return mask

    def step_probs(self, prev_token: int, h, c, step: int):
        """One policy step; returns (probs, h, c, caches)."""
        x, e_cache = self.embedding.forward(prev_token)
        h, c, l_cache = self.lstm.forward(x, h, c)
        logits, d_cache = self.head.forward(h)
        probs = softmax(logits + self._mask(step))
        return probs, h, c, (e_cache, l_cache, d_cache, probs)

    def sample_episode(self, rng: np.random.Generator | None = None) -> Episode:
        """Sample a token sequence (END-terminated or max_gates long)."""
        rng = as_rng(rng)
        h, c = self.lstm.initial_state()
        prev = self.start_index
        actions: list[int] = []
        caches = []
        log_prob = 0.0
        for step in range(self.max_gates):
            probs, h, c, cache = self.step_probs(prev, h, c, step)
            action = int(rng.choice(self.vocab + 1, p=probs))
            caches.append(cache + (action,))
            log_prob += float(np.log(probs[action] + 1e-300))
            if action == self.end_index:
                break
            actions.append(action)
            prev = action
        return Episode(tuple(actions), log_prob, tuple(caches))

    def greedy_episode(self) -> tuple[str, ...]:
        """Argmax decoding — the controller's current best guess."""
        h, c = self.lstm.initial_state()
        prev = self.start_index
        tokens: list[str] = []
        for step in range(self.max_gates):
            probs, h, c, _ = self.step_probs(prev, h, c, step)
            action = int(np.argmax(probs))
            if action == self.end_index:
                break
            tokens.append(self.alphabet.token(action))
            prev = action
        return tuple(tokens)

    def tokens_of(self, episode: Episode) -> tuple[str, ...]:
        return tuple(self.alphabet.token(a) for a in episode.actions)

    # -- training ----------------------------------------------------------------

    def zero_grad(self) -> None:
        self._updater.zero_grad()

    def backprop_episode(
        self, episode: Episode, scale: float, entropy_weight: float = 0.0
    ) -> None:
        """Accumulate gradients of ``scale * log pi(actions)`` minus an
        entropy bonus, via backprop-through-time."""
        dh_next = np.zeros(self.lstm.hidden_dim)
        dc_next = np.zeros(self.lstm.hidden_dim)
        for cache in reversed(episode.caches):
            e_cache, l_cache, d_cache, probs, action = cache
            onehot = np.zeros_like(probs)
            onehot[action] = 1.0
            # d/dlogits of scale*log pi(a): scale * (onehot - probs);
            # entropy bonus H: dH/dlogit_j = -p_j (log p_j + H).
            dlogits = scale * (onehot - probs)
            if entropy_weight:
                safe_log = np.log(np.maximum(probs, 1e-300))
                entropy = -float(probs @ safe_log)
                dlogits += entropy_weight * probs * (safe_log + entropy)
            dh = self.head.backward(dlogits, d_cache) + dh_next
            dx, dh_next, dc_next = self.lstm.backward(dh, dc_next, l_cache)
            self.embedding.backward(dx, e_cache)

    def apply_gradients(self) -> None:
        clip_gradients(self._layers, GRAD_CLIP)
        self._updater.step()

    @property
    def layers(self):
        return list(self._layers)


class ControllerPredictor(Predictor):
    """Adapts :class:`PolicyController` to the Predictor interface.

    ``propose`` samples episodes; ``update`` buffers (episode, reward)
    pairs and performs one REINFORCE update per full batch — the
    "Reward Propagation" edge of Fig. 1 inside Algorithm 1's loop.
    """

    name = "controller"

    def __init__(
        self,
        controller: PolicyController,
        *,
        batch_size: int = 8,
        entropy_weight: float = 0.01,
        seed=None,
    ) -> None:
        check_positive(batch_size, "batch_size")
        self.controller = controller
        self.batch_size = batch_size
        self.entropy_weight = entropy_weight
        self.baseline = MovingBaseline()
        self._rng = as_rng(seed)
        self._pending: list[Episode] = []
        self._batch: list[tuple[Episode, float]] = []
        self.updates = 0

    def propose(self, num: int) -> list[tuple[str, ...]]:
        check_positive(num, "num")
        proposals = []
        for _ in range(num):
            episode = self.controller.sample_episode(self._rng)
            if not episode.actions:  # degenerate: resample once without END
                episode = self.controller.sample_episode(self._rng)
            if not episode.actions:
                continue
            self._pending.append(episode)
            proposals.append(self.controller.tokens_of(episode))
        return proposals

    def update(self, tokens: tuple[str, ...], reward: float) -> None:
        episode = self._pop_pending(tokens)
        if episode is None:
            return
        self._batch.append((episode, reward))
        if len(self._batch) >= self.batch_size:
            self._flush()

    def _pop_pending(self, tokens: tuple[str, ...]) -> Episode | None:
        for i, episode in enumerate(self._pending):
            if self.controller.tokens_of(episode) == tuple(tokens):
                return self._pending.pop(i)
        return None

    def _flush(self) -> None:
        batch, self._batch = self._batch, []
        self.controller.zero_grad()
        n = len(batch)
        for episode, reward in batch:
            advantage = reward - self.baseline.value
            self.controller.backprop_episode(
                episode,
                scale=-advantage / n,
                entropy_weight=self.entropy_weight / n,
            )
        mean_reward = float(np.mean([r for _, r in batch]))
        self.baseline.update(mean_reward)
        self.controller.apply_gradients()
        self.updates += 1
