"""Search-space constraints.

§6: "Our software can also incorporate arbitrary constraints in the search
procedure and thus deliver custom architectures that exceed performance of
manually designed ones." This module makes that concrete: a constraint is a
predicate over candidate token sequences, composable into a
:class:`ConstraintSet` that filters enumeration and every proposer's pool
(:class:`~repro.core.predictor.PredictorProposer`), and annotates results
with why candidates were excluded.

Built-in constraints cover the practical cases: gate-count budgets,
forbidden/required tokens, alphabet restrictions, parameterized-gate
requirements (a mixer with no trainable gate cannot respond to beta), and
estimated circuit-depth budgets for depth-limited hardware.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.qaoa.mixers import ENTANGLER_TOKENS, PARAMETERIZED_TOKENS

__all__ = [
    "Constraint",
    "MaxGates",
    "MinGates",
    "ForbiddenTokens",
    "RequiredTokens",
    "RequiresParameterizedGate",
    "NoAdjacentRepeats",
    "MaxMixerDepth",
    "PredicateConstraint",
    "ConstraintSet",
]

Tokens = tuple[str, ...]


class Constraint(abc.ABC):
    """A named predicate over candidate gate sequences."""

    name: str = "constraint"

    @abc.abstractmethod
    def satisfied(self, tokens: Tokens) -> bool:
        """True iff the candidate is admissible."""

    def __call__(self, tokens: Tokens) -> bool:
        return self.satisfied(tokens)


@dataclass(frozen=True)
class MaxGates(Constraint):
    """At most ``limit`` gates in the mixer (resource budget)."""

    limit: int
    name: str = "max_gates"

    def satisfied(self, tokens: Tokens) -> bool:
        return len(tokens) <= self.limit


@dataclass(frozen=True)
class MinGates(Constraint):
    """At least ``limit`` gates (e.g. exclude bare singles, Figs. 6-7)."""

    limit: int
    name: str = "min_gates"

    def satisfied(self, tokens: Tokens) -> bool:
        return len(tokens) >= self.limit


@dataclass(frozen=True)
class ForbiddenTokens(Constraint):
    """Exclude specific gates (e.g. hardware without a native P gate)."""

    tokens: tuple[str, ...]
    name: str = "forbidden_tokens"

    def satisfied(self, tokens: Tokens) -> bool:
        return not (set(tokens) & set(self.tokens))


@dataclass(frozen=True)
class RequiredTokens(Constraint):
    """Require that every listed gate appears somewhere in the candidate."""

    tokens: tuple[str, ...]
    name: str = "required_tokens"

    def satisfied(self, tokens: Tokens) -> bool:
        return set(self.tokens) <= set(tokens)


@dataclass(frozen=True)
class RequiresParameterizedGate(Constraint):
    """The mixer must contain a beta-dependent gate — otherwise the mixer
    slot of Eq. (2) is a constant and the layer cannot be trained."""

    name: str = "requires_parameterized"

    def satisfied(self, tokens: Tokens) -> bool:
        return any(t in PARAMETERIZED_TOKENS for t in tokens)


@dataclass(frozen=True)
class NoAdjacentRepeats(Constraint):
    """Reject ``(..., g, g, ...)``: two adjacent rotations about one axis
    are a single rotation by the summed angle, so the pair wastes a slot of
    the sequence budget."""

    name: str = "no_adjacent_repeats"

    def satisfied(self, tokens: Tokens) -> bool:
        return all(a != b for a, b in zip(tokens, tokens[1:]))


@dataclass(frozen=True)
class MaxMixerDepth(Constraint):
    """Bound the *circuit depth* the mixer adds per QAOA layer.

    Single-qubit tokens add one layer each; ring entanglers add two (even /
    odd pairs cannot all be parallel on a ring).
    """

    limit: int
    name: str = "max_mixer_depth"

    def satisfied(self, tokens: Tokens) -> bool:
        depth = 0
        for t in tokens:
            depth += 2 if t in ENTANGLER_TOKENS else 1
        return depth <= self.limit


@dataclass(frozen=True)
class PredicateConstraint(Constraint):
    """Escape hatch: wrap any callable as a constraint."""

    predicate: Callable[[Tokens], bool]
    name: str = "predicate"

    def satisfied(self, tokens: Tokens) -> bool:
        return bool(self.predicate(tokens))


@dataclass
class ConstraintSet:
    """Conjunction of constraints with rejection accounting."""

    constraints: list[Constraint] = field(default_factory=list)
    #: constraint name -> number of candidates it rejected
    rejections: dict = field(default_factory=dict)

    def satisfied(self, tokens: Sequence[str]) -> bool:
        tokens = tuple(tokens)
        for constraint in self.constraints:
            if not constraint.satisfied(tokens):
                self.rejections[constraint.name] = (
                    self.rejections.get(constraint.name, 0) + 1
                )
                return False
        return True

    def filter(self, candidates: Iterable[Sequence[str]]) -> list[Tokens]:
        """Admissible subset of an enumerated candidate list."""
        return [tuple(c) for c in candidates if self.satisfied(c)]

    def violated_by(self, tokens: Sequence[str]) -> list[str]:
        """Names of all constraints the candidate breaks (diagnostics)."""
        tokens = tuple(tokens)
        return [c.name for c in self.constraints if not c.satisfied(tokens)]
