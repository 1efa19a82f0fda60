"""Predictor module: proposes candidate circuits, consumes rewards.

The released paper's search is "an instance of random search which has
shown to be a strong baseline in neural architecture search [Li &
Talwalkar 2020]" (§2.1) — :class:`RandomPredictor`. The serial profiling
run of §3.1 examines *every* combination — :class:`ExhaustivePredictor`.
:class:`EpsilonGreedyPredictor` adds a cheap bandit between random search
and the full RL controller (:mod:`repro.core.controller`).

The interface is deliberately tiny: ``propose(n)`` yields token tuples,
``update(tokens, reward)`` closes Fig. 1's reward-propagation arrow.

:class:`Proposer` is the one seam the runtime's depth loop drives
(``pool = propose(p)``, run it, ``observe(evaluations)``): a
:class:`FixedPoolProposer` is the exhaustive sweep, a
:class:`PredictorProposer` adapts any :class:`Predictor`, and the
surrogate (:class:`~repro.surrogate.ranking.SurrogateAssistant`) is a
filter wrapped around either.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

import numpy as np

from repro.core.alphabet import GateAlphabet, enumerate_search_space
from repro.core.constraints import ConstraintSet
from repro.core.results import CandidateEvaluation
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive

__all__ = [
    "PREDICTORS",
    "FixedPoolProposer",
    "Predictor",
    "PredictorProposer",
    "Proposer",
    "RandomPredictor",
    "ExhaustivePredictor",
    "EpsilonGreedyPredictor",
    "make_predictor",
    "predicted_cost",
]


class Predictor(abc.ABC):
    """Candidate-architecture proposal strategy."""

    name: str = "abstract"

    @abc.abstractmethod
    def propose(self, num: int) -> list[tuple[str, ...]]:
        """Next ``num`` candidate token sequences (may repeat across calls)."""

    def update(self, tokens: tuple[str, ...], reward: float) -> None:
        """Feed back the evaluator's reward (no-op for open-loop searches)."""

    def exhausted(self) -> bool:
        """True when the predictor has nothing new to propose."""
        return False


class RandomPredictor(Predictor):
    """Uniform random search over sequences of 1..k_max alphabet gates."""

    name = "random"

    def __init__(self, alphabet: GateAlphabet, k_max: int, *, seed=None) -> None:
        check_positive(k_max, "k_max")
        self.alphabet = alphabet
        self.k_max = k_max
        self._rng = as_rng(seed)

    def propose(self, num: int) -> list[tuple[str, ...]]:
        check_positive(num, "num")
        out = []
        for _ in range(num):
            length = int(self._rng.integers(1, self.k_max + 1))
            out.append(self.alphabet.sample_sequence(length, self._rng))
        return out


class ExhaustivePredictor(Predictor):
    """Enumerates the full search space once, in a deterministic order."""

    name = "exhaustive"

    def __init__(
        self,
        alphabet: GateAlphabet,
        k_max: int,
        *,
        mode: str = "sequences",
    ) -> None:
        self._space = enumerate_search_space(alphabet, k_max, mode=mode)
        self._cursor = 0

    @property
    def space_size(self) -> int:
        return len(self._space)

    def propose(self, num: int) -> list[tuple[str, ...]]:
        check_positive(num, "num")
        batch = self._space[self._cursor : self._cursor + num]
        self._cursor += len(batch)
        return list(batch)

    def exhausted(self) -> bool:
        return self._cursor >= len(self._space)

    def reset(self) -> None:
        self._cursor = 0


class EpsilonGreedyPredictor(Predictor):
    """Positional bandit: per (position, token) running mean rewards.

    With probability epsilon a position is explored uniformly; otherwise
    the best-scoring token so far is chosen. Lengths are drawn from the
    empirical distribution of rewards by length. A lightweight learner to
    sit between random search and the LSTM controller in the predictor
    ablation.
    """

    name = "epsilon_greedy"

    def __init__(
        self,
        alphabet: GateAlphabet,
        k_max: int,
        *,
        epsilon: float = 0.3,
        seed=None,
    ) -> None:
        check_positive(k_max, "k_max")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.alphabet = alphabet
        self.k_max = k_max
        self.epsilon = epsilon
        self._rng = as_rng(seed)
        self._sum = np.zeros((k_max, alphabet.size))
        self._count = np.zeros((k_max, alphabet.size), dtype=np.int64)
        self._length_sum = np.zeros(k_max)
        self._length_count = np.zeros(k_max, dtype=np.int64)

    def _pick_length(self) -> int:
        if self._rng.random() < self.epsilon or not self._length_count.any():
            return int(self._rng.integers(1, self.k_max + 1))
        means = np.where(
            self._length_count > 0, self._length_sum / np.maximum(self._length_count, 1), -np.inf
        )
        return int(np.argmax(means)) + 1

    def _pick_token(self, position: int) -> str:
        if self._rng.random() < self.epsilon or not self._count[position].any():
            return self.alphabet.token(int(self._rng.integers(self.alphabet.size)))
        means = np.where(
            self._count[position] > 0,
            self._sum[position] / np.maximum(self._count[position], 1),
            -np.inf,
        )
        return self.alphabet.token(int(np.argmax(means)))

    def propose(self, num: int) -> list[tuple[str, ...]]:
        check_positive(num, "num")
        out = []
        for _ in range(num):
            length = self._pick_length()
            out.append(tuple(self._pick_token(t) for t in range(length)))
        return out

    def update(self, tokens: tuple[str, ...], reward: float) -> None:
        length = len(tokens)
        if not 1 <= length <= self.k_max:
            return
        self._length_sum[length - 1] += reward
        self._length_count[length - 1] += 1
        for position, token in enumerate(tokens):
            idx = self.alphabet.index(token)
            self._sum[position, idx] += reward
            self._count[position, idx] += 1


# -- registry ---------------------------------------------------------------


def _make_random(alphabet: GateAlphabet, k_max: int, *, seed=None) -> Predictor:
    return RandomPredictor(alphabet, k_max, seed=seed)


def _make_exhaustive(alphabet: GateAlphabet, k_max: int, *, seed=None) -> Predictor:
    return ExhaustivePredictor(alphabet, k_max)


def _make_epsilon_greedy(
    alphabet: GateAlphabet, k_max: int, *, seed=None
) -> Predictor:
    return EpsilonGreedyPredictor(alphabet, k_max, seed=seed)


def _make_controller(alphabet: GateAlphabet, k_max: int, *, seed=None) -> Predictor:
    # Imported lazily: repro.core.controller subclasses Predictor from here.
    from repro.core.controller import ControllerPredictor, PolicyController

    seed = int(seed or 0)
    return ControllerPredictor(
        PolicyController(alphabet, max_gates=k_max, seed=seed), seed=seed
    )


#: every registered proposal strategy, by :attr:`Predictor.name` — the
#: contract test suite runs each factory against the protocol invariants
PREDICTORS = {
    "random": _make_random,
    "exhaustive": _make_exhaustive,
    "epsilon_greedy": _make_epsilon_greedy,
    "controller": _make_controller,
}


def make_predictor(
    name: str, alphabet: GateAlphabet, k_max: int, *, seed=None
) -> Predictor:
    """Instantiate a registered predictor by name (seeded when it samples)."""
    try:
        factory = PREDICTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown predictor {name!r}; registered: {sorted(PREDICTORS)}"
        ) from None
    return factory(alphabet, k_max, seed=seed)


# -- the proposal seam --------------------------------------------------------


def predicted_cost(tokens: Sequence[str], p: int) -> float:
    """Relative training cost of one candidate: parameters scale with
    ``p * (len(tokens) + 1)`` and the optimizer budget rides along, so a
    longer mixer at a deeper p is proportionally more work. Used to
    balance shard placement; only ratios matter, not units."""
    return float(p) * (len(tokens) + 1)


class Proposer:
    """What :meth:`SearchRuntime.run` drives: Algorithm 1 line 5 and
    Fig. 1's reward arrow, once per depth."""

    name: str = "abstract"
    #: True when sibling ``shard_index`` processes would propose identical
    #: pools — i.e. proposals never depend on the rewards fed back
    shard_safe: bool = False
    #: pool entries a filtering proposer forwarded to / withheld from
    #: evaluation (the result config's ``surrogate_kept``/``_skipped``)
    kept: int = 0
    skipped: int = 0

    def propose(self, p: int) -> list[tuple[str, ...]]:
        """The candidate pool to evaluate at depth ``p``."""
        raise NotImplementedError

    def observe(self, evaluations: Sequence[CandidateEvaluation]) -> None:
        """Depth feedback, delivered before the next ``propose`` (restored
        and cached evaluations included, so a resumed sweep rebuilds the
        same state)."""

    def predicted_cost(self, tokens: Sequence[str], p: int) -> float:
        """Shard-placement cost of one candidate."""
        return predicted_cost(tokens, p)


class FixedPoolProposer(Proposer):
    """The same pool at every depth — exhaustive search."""

    name = "exhaustive"
    shard_safe = True

    def __init__(self, pool: Sequence[tuple[str, ...]]) -> None:
        self.pool = list(pool)

    def propose(self, p: int) -> list[tuple[str, ...]]:
        return self.pool


class PredictorProposer(Proposer):
    """Any :class:`Predictor` behind the seam: ``num`` proposals per depth,
    deduplicated (learners must not double-count a reward) and filtered by
    ``constraints``; every evaluation's reward is fed back through
    ``update`` before the next depth proposes."""

    def __init__(
        self,
        predictor: Predictor,
        num: int = 32,
        constraints: ConstraintSet | None = None,
    ) -> None:
        check_positive(num, "candidates_per_depth")
        self.predictor = predictor
        self.name = predictor.name
        self.num = num
        self.constraints = constraints

    def propose(self, p: int) -> list[tuple[str, ...]]:
        pool = list(dict.fromkeys(self.predictor.propose(self.num)))
        if self.constraints is not None:
            pool = self.constraints.filter(pool)
        return pool

    def observe(self, evaluations: Sequence[CandidateEvaluation]) -> None:
        for evaluation in evaluations:
            self.predictor.update(evaluation.tokens, evaluation.reward)
