"""Simultaneous Perturbation Stochastic Approximation (SPSA).

The workhorse optimizer for *sampled* variational objectives: two function
evaluations per step regardless of dimension, robust to shot noise. Uses
the standard Spall gain sequences ``a_k = a/(k + 1 + A)^alpha`` and
``c_k = c/(k + 1)^gamma`` with Rademacher perturbations.

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
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.optimizers.base import (
    BatchFn,
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


class SPSA(Optimizer):
    """Spall's SPSA with optional blocking of non-improving steps."""

    name = "spsa"
    supports_batch = True

    def __init__(
        self,
        maxiter: int = 100,
        a: float = 0.2,
        c: float = 0.1,
        A: float = 10.0,
        alpha: float = 0.602,
        gamma: float = 0.101,
        seed=None,
    ) -> None:
        self.maxiter = int(maxiter)
        self.a = float(a)
        self.c = float(c)
        self.A = float(A)
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.seed = seed

    def minimize(self, fn: Objective, x0: Sequence[float]) -> OptimizeResult:
        tracer = ObjectiveTracer(fn)
        rng = as_rng(self.seed)
        x = np.asarray(x0, dtype=float).copy()
        dim = x.size
        tracer(x)  # record the starting point
        for k in range(self.maxiter):
            ak = self.a / (k + 1 + self.A) ** self.alpha
            ck = self.c / (k + 1) ** self.gamma
            delta = _rademacher(rng, dim)
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

    def _restart_rngs(self, restarts: int) -> list:
        """A lockstep population's perturbation streams. An integer seed
        replicates the serial path — every restart would re-seed to the
        same stream, like a fresh :meth:`minimize` call, so it is drawn once
        and broadcast over the rows; ``None`` seeds each restart afresh; a
        pre-built Generator cannot be duplicated, so restarts spawn from it."""
        if isinstance(self.seed, np.random.Generator):
            return spawn_rngs(self.seed, restarts)
        if self.seed is None:
            return [as_rng(None) for _ in range(restarts)]
        return [as_rng(self.seed)]

    def minimize_batch(
        self,
        fn: Objective,
        X0: np.ndarray,
        batch_fn: BatchFn | None = None,
    ) -> list[OptimizeResult]:
        """Lockstep SPSA over the rows of ``X0``.

        Every iteration evaluates the whole ``(2K, dim)`` block of ±
        perturbations in one batched call; per-restart traces, minima and
        ``nfev`` match K independent :meth:`minimize` runs exactly (given
        an integer seed and a batch objective consistent with ``fn``).
        """
        X = np.atleast_2d(np.asarray(X0, dtype=float)).copy()
        restarts, dim = X.shape
        tracers = [ObjectiveTracer(fn) for _ in range(restarts)]
        rngs = self._restart_rngs(restarts)

        rows = np.arange(restarts)
        both = np.concatenate([rows, rows])
        for k, value in enumerate(batch_values(fn, batch_fn, X, rows)):
            tracers[k].record(X[k], float(value))
        for k_iter in range(self.maxiter):
            ak = self.a / (k_iter + 1 + self.A) ** self.alpha
            ck = self.c / (k_iter + 1) ** self.gamma
            deltas = np.stack([_rademacher(rng, dim) for rng in rngs])
            plus = X + ck * deltas
            minus = X - ck * deltas
            values = batch_values(fn, batch_fn, np.vstack([plus, minus]), both)
            f_plus, f_minus = values[:restarts], values[restarts:]
            for k in range(restarts):
                tracers[k].record(plus[k], float(f_plus[k]))
                tracers[k].record(minus[k], float(f_minus[k]))
            gradient_estimates = (
                (f_plus - f_minus)[:, None] / (2.0 * ck) * (1.0 / deltas)
            )
            X = X - ak * gradient_estimates
        for k, value in enumerate(batch_values(fn, batch_fn, X, rows)):
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
