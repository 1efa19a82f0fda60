"""Simultaneous Perturbation Stochastic Approximation (SPSA).

The workhorse optimizer for *sampled* variational objectives: two function
evaluations per step regardless of dimension, robust to shot noise. Uses
the standard Spall gain sequences ``a_k = a/(k + 1 + A)^alpha`` and
``c_k = c/(k + 1)^gamma`` with Rademacher perturbations; the five gain
constants are class constants of :class:`SPSA`.

Included because a production search package must train candidates on
hardware-realistic (noisy) evaluators, and the optimizer ablation bench
contrasts it with COBYLA on both exact and shot-noised energies.

Batch-native: :meth:`SPSA.minimize_batch` runs a population of K restarts
in lockstep and submits all 2K ± perturbations of an iteration as *one*
batched objective call — the compiled engine's
:meth:`~repro.simulators.compiled.CompiledProgram.energies` seam. With an
integer seed every restart draws the same perturbation sequence a serial
:meth:`SPSA.minimize` run would, so the batched trajectories are
point-for-point identical to K serial runs.

An integer seed fixes the whole ± sequence, and every candidate of a sweep
trains under the sweep's seed, so the ``(maxiter, dim)`` table of an
integer seed is drawn once per process and replayed
(:func:`_rademacher_table`); ``None`` and Generator seeds draw per
iteration, as their streams are not repeatable.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

import numpy as np

from repro.optimizers.base import (
    Objective,
    ObjectiveTracer,
    Optimizer,
    OptimizeResult,
    batch_values,
)
from repro.utils.rng import as_rng, spawn_rngs

__all__ = ["SPSA"]


def _rademacher(rng: np.random.Generator, dim: int) -> np.ndarray:
    """+-1 perturbation draw (integers is ~6x cheaper than rng.choice,
    which matters once the energy call is batched away)."""
    return 2.0 * rng.integers(0, 2, size=dim) - 1.0


@lru_cache(maxsize=64)
def _rademacher_table(seed: int, dim: int, maxiter: int) -> np.ndarray:
    """The ``maxiter`` rows a run seeded with the integer ``seed`` draws,
    row by row as :func:`_rademacher` draws them (read-only)."""
    rng = as_rng(seed)
    table = np.array([_rademacher(rng, dim) for _ in range(maxiter)]).reshape(maxiter, dim)
    table.setflags(write=False)
    return table


class SPSA(Optimizer):
    """Spall's SPSA with optional blocking of non-improving steps."""

    name = "spsa"
    supports_batch = True
    #: Spall's gain constants, class constants (a test monkeypatches them)
    a = 0.2
    c = 0.1
    A = 10.0
    alpha = 0.602
    gamma = 0.101

    def __init__(self, maxiter: int = 100, seed=None) -> None:
        self.maxiter = int(maxiter)
        self.seed = seed

    def _perturbations(self, seed, dim: int) -> Iterable[np.ndarray]:
        """The ``maxiter`` ± rows of one stream: an integer seed's memoized
        table, else fresh draws from ``as_rng(seed)``."""
        if isinstance(seed, (int, np.integer)):
            return _rademacher_table(int(seed), dim, self.maxiter)
        rng = as_rng(seed)
        return (_rademacher(rng, dim) for _ in range(self.maxiter))

    def minimize(self, fn: Objective, x0: Sequence[float]) -> OptimizeResult:
        tracer = ObjectiveTracer(fn)
        x = np.asarray(x0, dtype=float).copy()
        dim = x.size
        tracer(x)  # record the starting point
        for k, delta in enumerate(self._perturbations(self.seed, dim)):
            ak = self.a / (k + 1 + self.A) ** self.alpha
            ck = self.c / (k + 1) ** self.gamma
            f_plus = tracer(x + ck * delta)
            f_minus = tracer(x - ck * delta)
            gradient_estimate = (f_plus - f_minus) / (2.0 * ck) * (1.0 / delta)
            x = x - ak * gradient_estimate
        # final polish evaluation so the last iterate enters the trace
        tracer(x)
        return OptimizeResult(
            x=tracer.best_x,
            fun=tracer.best,
            nfev=tracer.nfev,
            nit=self.maxiter,
            converged=True,
            message="completed fixed iteration budget",
            history=tracer.trace,
        )

    def _restart_seeds(self, restarts: int) -> list:
        """A lockstep population's perturbation streams, as seeds. An
        integer seed replicates the serial path — every restart would
        re-seed to the same stream, like a fresh :meth:`minimize` call, so
        it is drawn once and broadcast over the rows; ``None`` seeds each
        restart afresh; a pre-built Generator cannot be duplicated, so
        restarts spawn from it."""
        if isinstance(self.seed, np.random.Generator):
            return spawn_rngs(self.seed, restarts)
        if self.seed is None:
            return [None] * restarts
        return [self.seed]

    def minimize_batch(self, fn: Objective, X0: np.ndarray) -> list[OptimizeResult]:
        """Lockstep SPSA over the rows of ``X0``.

        Every iteration evaluates the whole ``(2K, dim)`` block of ±
        perturbations in one batched call; per-restart traces, minima and
        ``nfev`` match K independent :meth:`minimize` runs exactly (given
        an integer seed and a batch objective consistent with ``fn``).
        """
        X = np.atleast_2d(np.asarray(X0, dtype=float)).copy()
        restarts, dim = X.shape
        tracers = [ObjectiveTracer(fn) for _ in range(restarts)]
        seeds = self._restart_seeds(restarts)
        if len(seeds) == 1:  # one stream, broadcast over the rows
            blocks = (row[None, :] for row in self._perturbations(seeds[0], dim))
        else:
            streams = [self._perturbations(seed, dim) for seed in seeds]
            blocks = (np.stack(drawn) for drawn in zip(*streams))

        rows = np.arange(restarts)
        both = np.concatenate([rows, rows])
        for k, value in enumerate(batch_values(fn, X, rows)):
            tracers[k].record(X[k], float(value))
        for k_iter, deltas in enumerate(blocks):
            ak = self.a / (k_iter + 1 + self.A) ** self.alpha
            ck = self.c / (k_iter + 1) ** self.gamma
            step = ck * deltas
            plus = X + step
            minus = X - step
            values = batch_values(fn, np.concatenate((plus, minus)), both)
            f_plus, f_minus = values[:restarts], values[restarts:]
            for k in range(restarts):
                tracers[k].record(plus[k], float(f_plus[k]))
                tracers[k].record(minus[k], float(f_minus[k]))
            gradient_estimates = (
                (f_plus - f_minus)[:, None] / (2.0 * ck) * (1.0 / deltas)
            )
            X = X - ak * gradient_estimates
        for k, value in enumerate(batch_values(fn, X, rows)):
            tracers[k].record(X[k], float(value))
        return [
            OptimizeResult(
                x=tracer.best_x,
                fun=tracer.best,
                nfev=tracer.nfev,
                nit=self.maxiter,
                converged=True,
                message="completed fixed iteration budget",
                history=tracer.trace,
            )
            for tracer in tracers
        ]
