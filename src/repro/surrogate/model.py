"""The learned ranker: a token-sequence regressor on :mod:`repro.ml`.

``SurrogateModel`` maps a candidate ``(tokens, p)`` to a predicted
evaluation outcome (the trained reward, by default) without touching a
simulator: tokens run through an :class:`~repro.ml.layers.Embedding` →
:class:`~repro.ml.layers.LSTMCell` encoder, the final hidden state plus
a scaled depth feature feeds a :class:`~repro.ml.layers.Dense`
regression head. Training is online: the runtime streams every
completed :class:`~repro.core.results.CandidateEvaluation` into
:meth:`observe`, and :meth:`fit` (called before the next depth ranks)
replays the buffer for a few full-batch Adam epochs against
z-normalized targets — the same hand-written backward passes the
gradient-check suite pins (``tests/ml/test_gradcheck.py``).

The model is deliberately tiny and deterministic (seeded init, seeded
nothing-else — full-batch training has no draw order), so a sweep's
ranking decisions are reproducible run to run.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.alphabet import GateAlphabet
from repro.ml.layers import Dense, Embedding, LSTMCell
from repro.ml.optim import AdamUpdater, clip_gradients
from repro.surrogate.config import SurrogateConfig

__all__ = ["SurrogateModel"]

#: global gradient-norm bound applied before each Adam step
GRAD_CLIP = 5.0
#: training rows kept; the oldest go first
MAX_BUFFER = 4096


class SurrogateModel:
    """Online ``(tokens, p) -> predicted value`` regressor for ranking.

    ``observe`` buffers training rows, ``fit`` trains on the whole buffer
    (cheap at search scale: a few hundred rows through a 32-wide LSTM),
    ``predict`` scores one candidate and ``predict_many`` a pool. Scores
    are in the target's units (denormalized), so ranking by descending
    prediction means "highest expected reward first" — the same ordering
    Algorithm 1's SELECT_BEST uses.
    """

    def __init__(self, alphabet: GateAlphabet, *, seed: int = 0) -> None:
        self.alphabet = alphabet
        # the widths, rate and epochs are SurrogateConfig's class constants
        self.hidden_dim = hidden_dim = SurrogateConfig.hidden_dim
        self.train_epochs = SurrogateConfig.train_epochs
        embedding_dim = SurrogateConfig.embedding_dim
        self.embedding = Embedding(alphabet.size, embedding_dim, seed=seed)
        self.lstm = LSTMCell(embedding_dim, hidden_dim, seed=seed + 1)
        # +1 input: the scaled depth feature rides next to the final h.
        self.head = Dense(hidden_dim + 1, 1, seed=seed + 2)
        self._layers = [self.embedding, self.lstm, self.head]
        self._updater = AdamUpdater(self._layers, lr=SurrogateConfig.learning_rate)
        self._buffer: list[tuple[tuple[int, ...], int, float]] = []
        self._dirty = False
        #: z-normalization of targets, refreshed at each fit
        self._mean = 0.0
        self._std = 1.0
        self.observations = 0
        self.fits = 0

    # -- data ---------------------------------------------------------------

    def observe(self, tokens: Sequence[str], p: int, target: float) -> None:
        """Buffer one completed evaluation (its trained reward, typically)."""
        ids = tuple(self.alphabet.index(t) for t in tokens)
        if not ids:
            return
        self._buffer.append((ids, int(p), float(target)))
        if len(self._buffer) > MAX_BUFFER:
            del self._buffer[: len(self._buffer) - MAX_BUFFER]
        self.observations += 1
        self._dirty = True

    @property
    def trained(self) -> bool:
        return self.fits > 0

    # -- forward / backward -------------------------------------------------

    def _forward(self, ids: Sequence[int], p: int):
        h, c = self.lstm.initial_state()
        caches = []
        for token_id in ids:
            x, e_cache = self.embedding.forward(token_id)
            h, c, l_cache = self.lstm.forward(x, h, c)
            caches.append((e_cache, l_cache))
        features = np.concatenate([h, [0.25 * p]])
        prediction, d_cache = self.head.forward(features)
        return float(prediction[0]), (caches, d_cache)

    def _backward(self, dprediction: float, cache) -> None:
        caches, d_cache = cache
        dfeatures = self.head.backward(np.array([dprediction]), d_cache)
        dh = dfeatures[: self.hidden_dim]  # the p feature has no parameters
        dc = np.zeros(self.hidden_dim)
        for e_cache, l_cache in reversed(caches):
            dx, dh, dc = self.lstm.backward(dh, dc, l_cache)
            self.embedding.backward(dx, e_cache)

    # -- training -----------------------------------------------------------

    def fit(self) -> float | None:
        """Train on the buffer if new rows arrived; returns the final
        epoch's mean-squared error (in z-units), or None if nothing new."""
        if not self._dirty or len(self._buffer) < 2:
            return None
        targets = np.array([row[2] for row in self._buffer])
        self._mean = float(targets.mean())
        self._std = float(targets.std()) or 1.0
        z = (targets - self._mean) / self._std
        n = len(self._buffer)
        loss = 0.0
        for _ in range(self.train_epochs):
            self._updater.zero_grad()
            loss = 0.0
            for (ids, p, _), z_target in zip(self._buffer, z):
                prediction, cache = self._forward(ids, p)
                error = prediction - z_target
                loss += error * error / n
                self._backward(2.0 * error / n, cache)
            clip_gradients(self._layers, GRAD_CLIP)
            self._updater.step()
        self.fits += 1
        self._dirty = False
        return float(loss)

    # -- inference ----------------------------------------------------------

    def predict(self, tokens: Sequence[str], p: int) -> float:
        """Predicted target (denormalized) for one candidate."""
        ids = [self.alphabet.index(t) for t in tokens]
        z, _ = self._forward(ids, p)
        return z * self._std + self._mean

    def predict_many(
        self, candidates: Sequence[Sequence[str]], p: int
    ) -> np.ndarray:
        return np.array([self.predict(tokens, p) for tokens in candidates])
