"""Learned evaluation-cost model: measured seconds → shard placement.

:func:`~repro.core.runtime.predicted_cost` is the static heuristic the
sharded runtime has balanced placement on since PR 4 — ``p * (len(tokens)
+ 1)``, proportional to parameter count. It ignores everything the
optimizer actually does (engine, graph sizes, how quickly a candidate
converges). Every completed evaluation already measures the truth
(:attr:`~repro.core.results.CandidateEvaluation.seconds`), so this model
fits that signal and replaces the heuristic for *placement* once enough
observations accrue — the second consumer of the surrogate layer's
result stream (the first decides *what* to evaluate, this one decides
*where* to run it).

The fit is a tiny least-squares regression on candidate shape features
``[1, p, len(tokens), p * (len(tokens) + 1)]`` — refit after every depth
costs microseconds, predictions are clamped positive so the greedy
least-loaded partitioner always sees valid loads, and an unfitted model
falls back to the static heuristic, so placement never degrades below
the PR-4 behaviour. Placement changes where work runs, never what it
computes, so no fingerprint involves this model.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.runtime import predicted_cost

__all__ = ["CostModel"]

#: least-squares needs at least as many rows as features (4), with headroom
MIN_OBSERVATIONS = 8


def _features(tokens: Sequence[str], p: int) -> np.ndarray:
    length = len(tokens)
    return np.array([1.0, float(p), float(length), float(p) * (length + 1)])


class CostModel:
    """Per-candidate evaluation-seconds predictor, fit from measurements."""

    def __init__(self) -> None:
        self._rows: list[np.ndarray] = []
        self._seconds: list[float] = []
        self._coef: np.ndarray | None = None
        self._dirty = False
        self.observations = 0

    def observe(self, tokens: Sequence[str], p: int, seconds: float) -> None:
        if seconds < 0.0:
            return
        self._rows.append(_features(tokens, p))
        self._seconds.append(float(seconds))
        self.observations += 1
        self._dirty = True

    def fit(self) -> None:
        """Refit the least-squares coefficients if new rows arrived."""
        if not self._dirty or len(self._rows) < MIN_OBSERVATIONS:
            return
        X = np.stack(self._rows)
        y = np.array(self._seconds)
        self._coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        self._dirty = False

    @property
    def fitted(self) -> bool:
        return self._coef is not None

    def predict(self, tokens: Sequence[str], p: int) -> float:
        """Predicted evaluation seconds; the static ``p * (len + 1)``
        heuristic until fitted, and never below a positive floor (the
        least-loaded partitioner divides by total load)."""
        if self._coef is None:
            return predicted_cost(tokens, p)
        return float(max(_features(tokens, p) @ self._coef, 1e-9))
