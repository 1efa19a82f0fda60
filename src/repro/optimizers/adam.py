"""Adam for exact-gradient variational training.

Pairs with the parameter-shift gradients of
:meth:`repro.qaoa.energy.AnsatzEnergy.gradient` — the gradient-based
alternative the optimizer ablation bench measures against the paper's
derivative-free COBYLA.

The learning rate, moment decays, denominator guard and gradient-norm
stop are class constants of :class:`Adam`.

Gradients come from the objective itself: :meth:`Adam.minimize` calls
``fn.gradient(x)``. Batch-native: :meth:`Adam.minimize_batch` updates a
population of K restarts in lockstep with vectorized moment buffers,
taking each step's gradients from one ``fn.gradients(X)`` call — on the
compiled engine one batched parameter-shift pass over all K points
(:meth:`repro.qaoa.energy.AnsatzEnergy.gradients`) — and scoring the
post-update objective values of all restarts in one batched call.
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

__all__ = ["Adam"]


class Adam(Optimizer):
    """Standard Adam (Kingma & Ba) with bias correction and optional
    gradient-norm stopping."""

    name = "adam"
    supports_batch = True
    #: step size, moment decays, denominator guard and gradient-norm stop:
    #: class constants (a test monkeypatches them)
    learning_rate = 0.05
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    gtol = 1e-6

    def __init__(self, maxiter: int = 100) -> None:
        self.maxiter = int(maxiter)

    def minimize(self, fn: Objective, x0: Sequence[float]) -> OptimizeResult:
        tracer = ObjectiveTracer(fn)
        x = np.asarray(x0, dtype=float).copy()
        m = np.zeros_like(x)
        v = np.zeros_like(x)
        tracer(x)
        converged = False
        nit = 0
        for nit in range(1, self.maxiter + 1):
            grad = np.asarray(fn.gradient(x), dtype=float)
            if np.linalg.norm(grad) < self.gtol:
                converged = True
                break
            m = self.beta1 * m + (1 - self.beta1) * grad
            v = self.beta2 * v + (1 - self.beta2) * grad**2
            m_hat = m / (1 - self.beta1**nit)
            v_hat = v / (1 - self.beta2**nit)
            x = x - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
            tracer(x)
        return OptimizeResult(
            x=tracer.best_x,
            fun=tracer.best,
            nfev=tracer.nfev,
            nit=nit,
            converged=converged,
            message="gradient norm below gtol" if converged else "maxiter reached",
            history=tracer.trace,
        )

    def _gradients(self, fn: Objective, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        grads = fn.gradients(X, rows) if hasattr(fn, "row_objective") else fn.gradients(X)
        grads = np.asarray(grads, dtype=float)
        if grads.shape != X.shape:
            raise ValueError(
                f"gradients returned shape {grads.shape} for points of shape {X.shape}"
            )
        return grads

    def minimize_batch(self, fn: Objective, X0: np.ndarray) -> list[OptimizeResult]:
        """Lockstep Adam over the rows of ``X0``.

        All restarts share one gradient batch and one value batch per
        iteration; each converges independently on its own gradient norm,
        mirroring a serial :meth:`minimize` run point for point.
        """
        X = np.atleast_2d(np.asarray(X0, dtype=float)).copy()
        restarts, dim = X.shape
        tracers = [ObjectiveTracer(fn) for _ in range(restarts)]
        rows = np.arange(restarts)
        for k, value in zip(rows, batch_values(fn, X, rows)):
            tracers[k].record(X[k], float(value))

        m = np.zeros_like(X)
        v = np.zeros_like(X)
        active = np.ones(restarts, dtype=bool)
        nits = np.zeros(restarts, dtype=int)
        converged = np.zeros(restarts, dtype=bool)
        for nit in range(1, self.maxiter + 1):
            rows = np.flatnonzero(active)
            if rows.size == 0:
                break
            nits[rows] = nit
            grads = self._gradients(fn, X[rows], rows)
            norms = np.linalg.norm(grads, axis=1)
            done = norms < self.gtol
            converged[rows[done]] = True
            active[rows[done]] = False
            rows = rows[~done]
            if rows.size == 0:
                continue
            grads = grads[~done]
            m[rows] = self.beta1 * m[rows] + (1 - self.beta1) * grads
            v[rows] = self.beta2 * v[rows] + (1 - self.beta2) * grads**2
            m_hat = m[rows] / (1 - self.beta1**nit)
            v_hat = v[rows] / (1 - self.beta2**nit)
            X[rows] = X[rows] - self.learning_rate * m_hat / (
                np.sqrt(v_hat) + self.eps
            )
            for k, value in zip(rows, batch_values(fn, X[rows], rows)):
                tracers[k].record(X[k], float(value))
        return [
            OptimizeResult(
                x=tracer.best_x,
                fun=tracer.best,
                nfev=tracer.nfev,
                nit=int(nits[k]),
                converged=bool(converged[k]),
                message=(
                    "gradient norm below gtol"
                    if converged[k]
                    else "maxiter reached"
                ),
                history=tracer.trace,
            )
            for k, tracer in enumerate(tracers)
        ]
