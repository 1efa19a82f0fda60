"""Nelder–Mead simplex minimizer, implemented from scratch.

Standard adaptive-coefficient variant (Gao & Han 2012): reflection,
expansion, contraction, shrink, with coefficients scaled by dimension;
the initial simplex edge and both stopping tolerances are class constants.
Derivative-free like COBYLA, so it slots into the same Evaluator role; the
optimizer ablation bench compares the two head-to-head on the QAOA
training objective.

Batch-native: :meth:`NelderMead.minimize_batch` runs a population of K
restarts in lockstep. Each iteration gathers every restart's pending
proposals into at most three batched objective calls — all reflections,
then all expansions/contractions, then all shrink vertices — instead of
one scalar call per point. The per-restart decision logic (and therefore
every trajectory, trace and ``nfev`` count) is identical to K serial
:meth:`NelderMead.minimize` runs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.optimizers.base import (
    Objective,
    ObjectiveTracer,
    Optimizer,
    OptimizeResult,
    batch_values,
)

__all__ = ["NelderMead"]


class _SimplexState:
    """One restart's simplex, values, tracer and termination bookkeeping."""

    def __init__(self, row: int, tracer: ObjectiveTracer, simplex: np.ndarray) -> None:
        self.row = row  # in the population
        self.tracer = tracer
        self.simplex = simplex
        self.values = np.empty(simplex.shape[0])
        self.active = True
        self.converged = False
        self.nit = 0


class NelderMead(Optimizer):
    """Adaptive Nelder–Mead with function-value + simplex-size stopping."""

    name = "nelder_mead"
    supports_batch = True
    #: initial simplex edge and the simplex-size / value-spread stops:
    #: class constants (a test monkeypatches them)
    initial_step = 0.5
    xatol = 1e-8
    fatol = 1e-8

    def __init__(self, maxiter: int = 200) -> None:
        self.maxiter = int(maxiter)

    def _coefficients(self, dim: int) -> tuple[float, float, float, float]:
        # adaptive coefficients (Gao & Han)
        alpha = 1.0
        gamma = 1.0 + 2.0 / dim
        rho = 0.75 - 1.0 / (2.0 * dim)
        sigma = 1.0 - 1.0 / dim
        return alpha, gamma, rho, sigma

    def _initial_simplex(self, x0: np.ndarray) -> np.ndarray:
        dim = x0.size
        return np.vstack(
            [x0] + [x0 + self.initial_step * np.eye(dim)[i] for i in range(dim)]
        )

    def _is_converged(self, simplex: np.ndarray, values: np.ndarray) -> bool:
        return bool(
            np.max(np.abs(simplex[1:] - simplex[0])) <= self.xatol
            and np.max(np.abs(values[1:] - values[0])) <= self.fatol
        )

    def minimize(self, fn: Objective, x0: Sequence[float]) -> OptimizeResult:
        tracer = ObjectiveTracer(fn)
        x0 = np.asarray(x0, dtype=float)
        dim = x0.size
        alpha, gamma, rho, sigma = self._coefficients(dim)

        # initial simplex: x0 plus a step along each axis
        simplex = self._initial_simplex(x0)
        values = np.array([tracer(v) for v in simplex])

        nit = 0
        converged = False
        for nit in range(1, self.maxiter + 1):
            order = np.argsort(values)
            simplex, values = simplex[order], values[order]
            if self._is_converged(simplex, values):
                converged = True
                break
            centroid = simplex[:-1].mean(axis=0)
            reflected = centroid + alpha * (centroid - simplex[-1])
            f_reflected = tracer(reflected)
            if values[0] <= f_reflected < values[-2]:
                simplex[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[0]:
                expanded = centroid + gamma * (reflected - centroid)
                f_expanded = tracer(expanded)
                if f_expanded < f_reflected:
                    simplex[-1], values[-1] = expanded, f_expanded
                else:
                    simplex[-1], values[-1] = reflected, f_reflected
            else:
                if f_reflected < values[-1]:  # outside contraction
                    contracted = centroid + rho * (reflected - centroid)
                else:  # inside contraction
                    contracted = centroid - rho * (centroid - simplex[-1])
                f_contracted = tracer(contracted)
                if f_contracted < min(f_reflected, values[-1]):
                    simplex[-1], values[-1] = contracted, f_contracted
                else:  # shrink toward the best vertex
                    for i in range(1, dim + 1):
                        simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                        values[i] = tracer(simplex[i])

        best = int(np.argmin(values))
        return OptimizeResult(
            x=simplex[best],
            fun=float(values[best]),
            nfev=tracer.nfev,
            nit=nit,
            converged=converged,
            message="simplex converged" if converged else "maxiter reached",
            history=tracer.trace,
        )

    def minimize_batch(self, fn: Objective, X0: np.ndarray) -> list[OptimizeResult]:
        """Lockstep simplex descent over the rows of ``X0``.

        Restarts converge independently (each keeps its own ``nit``); a
        converged restart simply stops contributing points to the shared
        batches while the others continue.
        """
        X0 = np.atleast_2d(np.asarray(X0, dtype=float))
        restarts, dim = X0.shape
        alpha, gamma, rho, sigma = self._coefficients(dim)

        def evaluate(owners: list[_SimplexState], points: list[np.ndarray]) -> np.ndarray:
            # points[i]: one point, or a block of them, of restart owners[i]
            sizes = [np.atleast_2d(block).shape[0] for block in points]
            rows = np.repeat([state.row for state in owners], sizes)
            return batch_values(fn, np.vstack(points), rows)

        states = [
            _SimplexState(row, ObjectiveTracer(fn), self._initial_simplex(x0))
            for row, x0 in enumerate(X0)
        ]
        initial_values = evaluate(states, [state.simplex for state in states])
        cursor = 0
        for state in states:
            for i, vertex in enumerate(state.simplex):
                value = float(initial_values[cursor])
                state.values[i] = value
                state.tracer.record(vertex, value)
                cursor += 1

        for it in range(1, self.maxiter + 1):
            live = [state for state in states if state.active]
            if not live:
                break
            # Phase A: sort, test convergence, propose every reflection.
            proposing: list[_SimplexState] = []
            reflections: list[np.ndarray] = []
            centroids: dict[int, np.ndarray] = {}
            for state in live:
                state.nit = it
                order = np.argsort(state.values)
                state.simplex = state.simplex[order]
                state.values = state.values[order]
                if self._is_converged(state.simplex, state.values):
                    state.active = False
                    state.converged = True
                    continue
                centroid = state.simplex[:-1].mean(axis=0)
                centroids[id(state)] = centroid
                proposing.append(state)
                reflections.append(centroid + alpha * (centroid - state.simplex[-1]))
            if not proposing:
                continue
            f_reflections = evaluate(proposing, reflections)

            # Phase B: expansions and contractions, one shared batch.
            second_states: list[_SimplexState] = []
            second_points: list[np.ndarray] = []
            second_kind: list[str] = []
            shrinkers: list[_SimplexState] = []
            pending: dict[int, tuple[np.ndarray, float]] = {}
            for state, reflected, f_reflected in zip(
                proposing, reflections, f_reflections
            ):
                f_reflected = float(f_reflected)
                state.tracer.record(reflected, f_reflected)
                values = state.values
                centroid = centroids[id(state)]
                if values[0] <= f_reflected < values[-2]:
                    state.simplex[-1], state.values[-1] = reflected, f_reflected
                elif f_reflected < values[0]:
                    second_states.append(state)
                    second_points.append(
                        centroid + gamma * (reflected - centroid)
                    )
                    second_kind.append("expand")
                    pending[id(state)] = (reflected, f_reflected)
                else:
                    if f_reflected < values[-1]:  # outside contraction
                        point = centroid + rho * (reflected - centroid)
                    else:  # inside contraction
                        point = centroid - rho * (centroid - state.simplex[-1])
                    second_states.append(state)
                    second_points.append(point)
                    second_kind.append("contract")
                    pending[id(state)] = (reflected, f_reflected)
            if second_states:
                f_seconds = evaluate(second_states, second_points)
                for state, point, kind, f_second in zip(
                    second_states, second_points, second_kind, f_seconds
                ):
                    f_second = float(f_second)
                    state.tracer.record(point, f_second)
                    reflected, f_reflected = pending[id(state)]
                    if kind == "expand":
                        if f_second < f_reflected:
                            state.simplex[-1], state.values[-1] = point, f_second
                        else:
                            state.simplex[-1], state.values[-1] = (
                                reflected,
                                f_reflected,
                            )
                    else:
                        if f_second < min(f_reflected, state.values[-1]):
                            state.simplex[-1], state.values[-1] = point, f_second
                        else:
                            shrinkers.append(state)

            # Phase C: shrink every failed contraction toward its best vertex.
            if shrinkers:
                shrink_points: list[np.ndarray] = []
                for state in shrinkers:
                    state.simplex[1:] = state.simplex[0] + sigma * (
                        state.simplex[1:] - state.simplex[0]
                    )
                    shrink_points.append(state.simplex[1:])
                f_shrunk = evaluate(shrinkers, shrink_points)
                cursor = 0
                for state in shrinkers:
                    for i in range(1, dim + 1):
                        value = float(f_shrunk[cursor])
                        state.values[i] = value
                        state.tracer.record(state.simplex[i], value)
                        cursor += 1

        results = []
        for state in states:
            best = int(np.argmin(state.values))
            results.append(
                OptimizeResult(
                    x=state.simplex[best],
                    fun=float(state.values[best]),
                    nfev=state.tracer.nfev,
                    nit=state.nit,
                    converged=state.converged,
                    message=(
                        "simplex converged" if state.converged else "maxiter reached"
                    ),
                    history=state.tracer.trace,
                )
            )
        return results
