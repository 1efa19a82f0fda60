"""REINFORCE policy-gradient pieces.

The "Reward Propagation" arrow of the paper's Fig. 1: episodes are token
sequences sampled from a policy, rewards come from the Evaluator, and the
policy ascends ``E[(R - b) * grad log pi(a|s)]`` with a moving baseline
``b`` for variance reduction (Zoph & Le 2016 style). The update itself is
:meth:`repro.core.controller.ControllerPredictor.update`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Episode", "MovingBaseline"]


@dataclass(frozen=True)
class Episode:
    """One sampled action sequence with its per-step log-probabilities and
    the policy caches needed for backprop."""

    actions: tuple[int, ...]
    log_prob: float
    caches: tuple


class MovingBaseline:
    """Exponential-moving-average reward baseline."""

    #: weight of the old baseline in each update: a class constant
    decay = 0.8

    def __init__(self) -> None:
        self._value: float | None = None

    @property
    def value(self) -> float:
        return 0.0 if self._value is None else self._value

    def update(self, reward: float) -> float:
        """Fold in a new reward; returns the advantage ``reward - baseline``
        computed *before* the update (unbiased at step one)."""
        advantage = reward - self.value
        if self._value is None:
            self._value = reward
        else:
            self._value = self.decay * self._value + (1.0 - self.decay) * reward
        return advantage
