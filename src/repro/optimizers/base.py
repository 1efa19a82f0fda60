"""Common optimizer interface.

Every optimizer minimizes a scalar function of a flat parameter vector and
returns an :class:`OptimizeResult` carrying the trace the experiment layer
plots. The Evaluator maximizes the cut energy by minimizing its negation,
so "loss" below is ``-<C>`` in the QAOA context.

Batch-native training
---------------------

The compiled engine evaluates whole parameter batches in one vectorized
pass (:meth:`repro.simulators.compiled.CompiledProgram.energies`), so an
optimizer that needs many points per step — SPSA's ± pairs, Nelder–Mead's
simplex moves, a population of restarts — should submit them as *one*
batch instead of a Python loop of scalar calls. Two seams make that work:

* :class:`BatchObjective` — the protocol an objective implements to opt in
  (``values(X)`` for a batch of rows).
  :meth:`repro.qaoa.energy.AnsatzEnergy.negative_objective` returns one.
* :meth:`Optimizer.minimize_batch` — minimize from a population of start
  points at once. Batch-native subclasses (``supports_batch = True``)
  run the whole population in lockstep, evaluating each step's proposals
  in a single ``values`` call; the base implementation falls back to one
  serial :meth:`Optimizer.minimize` per row, so scipy-backed optimizers
  (COBYLA) keep working unchanged.

Per-point accounting is identical on both paths: ``nfev`` counts evaluated
*points*, never batch calls, and each restart's ``history`` is its own
best-so-far trace.

A *population objective* (:class:`repro.qaoa.energy.NegatedPopulation`, the
Evaluator's ``graphs x restarts`` block) gives every row its own objective:
``row_objective(r)`` for the serial walk; ``values(X, rows)`` / ``gradients(X,
rows)``, row ``rows[i]``'s at ``X[i]``, for the lockstep — its optimizers submit
each point's row, as position says nothing (SPSA stacks ``[plus; minus]``,
Nelder–Mead submits live subsets, Adam active rows).
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "BatchObjective",
    "ObjectiveTracer",
    "OptimizeResult",
    "Optimizer",
    "batch_values",
    "resolve_batch_fn",
]

Objective = Callable[[np.ndarray], float]
GradientFn = Callable[[np.ndarray], np.ndarray]
BatchFn = Callable[[np.ndarray], np.ndarray]


@runtime_checkable
class BatchObjective(Protocol):
    """An objective that can score whole parameter batches at once.

    ``__call__`` keeps the scalar contract every optimizer understands;
    ``values`` evaluates the rows of a ``(B, dim)`` batch in one pass and
    returns ``(B,)`` objective values.
    """

    def __call__(self, x: np.ndarray) -> float: ...

    def values(self, X: np.ndarray) -> np.ndarray: ...


def resolve_batch_fn(fn: Objective, batch_fn: BatchFn | None) -> BatchFn | None:
    """The batch evaluator to use: an explicit ``batch_fn`` wins, else the
    objective's own :class:`BatchObjective` ``values`` method, else None."""
    if batch_fn is not None:
        return batch_fn
    values = getattr(fn, "values", None)
    return values if callable(values) else None


def batch_values(
    fn: Objective, batch_fn: BatchFn | None, X: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """Objective values for the rows of ``X`` — one ``batch_fn`` call when
    available, a scalar loop otherwise (the serial fallback). ``X`` reaches
    ``batch_fn`` as given: a batch objective validates its own input (the
    compiled program does, once, at ``energies``). ``rows`` (each point's
    population row) reaches a population objective only."""
    batch_fn = resolve_batch_fn(fn, batch_fn)
    if batch_fn is None:
        return np.array(
            [float(fn(row)) for row in np.atleast_2d(np.asarray(X, dtype=float))]
        )
    values = batch_fn(X, rows) if hasattr(fn, "row_objective") else batch_fn(X)
    values = np.asarray(values, dtype=float).reshape(-1)
    points = len(X) if np.ndim(X) > 1 else 1
    if values.shape[0] != points:
        raise ValueError(
            f"batch objective returned {values.shape[0]} values for {points} points"
        )
    return values


@dataclass
class OptimizeResult:
    """Outcome of a minimization run."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    converged: bool
    message: str = ""
    #: best-so-far objective after each iteration (monotone non-increasing)
    history: list[float] = field(default_factory=list)
    #: per-restart results when this result aggregates a population
    sub_results: list["OptimizeResult"] | None = None

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)


class ObjectiveTracer:
    """Wraps an objective to count calls and record the best-so-far trace.

    ``nfev`` counts evaluated *points* on every path: scalar ``__call__``s
    and externally evaluated points fed through :meth:`record` (one
    increment per row of a batch, not per batch call) — so serial and
    batched trainings of the same trajectory report identical counts.
    """

    def __init__(self, fn: Objective) -> None:
        self._fn = fn
        self.nfev = 0
        self.best = np.inf
        self.best_x: np.ndarray | None = None
        self.trace: list[float] = []

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        value = float(self._fn(x))
        self.record(x, value)
        return value

    def record(self, x: np.ndarray, value: float) -> None:
        """Account one already-evaluated point (batched callers use this)."""
        self.nfev += 1
        if value < self.best:
            self.best = value
            self.best_x = np.asarray(x, dtype=float).copy()
        self.trace.append(self.best)


class Optimizer(abc.ABC):
    """Abstract minimizer. Subclasses set ``name`` and implement
    :meth:`minimize`; batch-native subclasses additionally set
    ``supports_batch = True`` and override :meth:`minimize_batch`."""

    name: str = "abstract"
    #: True when minimize_batch runs a population in lockstep with batched
    #: objective calls (instead of the serial per-row fallback below)
    supports_batch: bool = False

    @abc.abstractmethod
    def minimize(self, fn: Objective, x0: Sequence[float]) -> OptimizeResult:
        """Minimize ``fn`` starting from ``x0``."""

    def minimize_batch(
        self,
        fn: Objective,
        X0: np.ndarray,
        batch_fn: BatchFn | None = None,
    ) -> list[OptimizeResult]:
        """Minimize from every row of ``X0``; one result per row.

        Base implementation: the serial fallback — one independent
        :meth:`minimize` per start point (on the row's own objective when
        ``fn`` is a population objective), ignoring ``batch_fn`` — so any
        optimizer (including scipy-backed ones) accepts a population.
        """
        own = getattr(fn, "row_objective", lambda row: fn)
        X0 = np.atleast_2d(np.asarray(X0, dtype=float))
        return [self.minimize(own(row), x0) for row, x0 in enumerate(X0)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
