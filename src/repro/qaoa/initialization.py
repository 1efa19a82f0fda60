"""QAOA parameter-initialization strategies.

COBYLA from a random start (the paper's protocol) is fine at p <= 2 but
increasingly lands in local optima as depth grows. This module implements
the standard literature remedies so the Evaluator's trained energies — the
search's ranking signal — stay meaningful at depth:

* :func:`uniform_init` — the paper's protocol (seeded uniform window);
* :func:`ramp_init` — the linear-ramp / Trotterized-annealing ansatz:
  ``gamma_k`` grows and ``beta_k`` shrinks linearly across layers (Sack &
  Serbyn 2021);
* :func:`interp_init` — the INTERP heuristic of Zhou et al. (2020): lift an
  optimized depth-``p`` parameter vector to depth ``p+1`` by linear
  interpolation, enabling warm-started depth sweeps.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.utils.rng import as_rng
from repro.utils.validation import check_positive

__all__ = ["uniform_init", "ramp_init", "interp_init"]

#: :func:`ramp_init`'s last gamma and first beta
GAMMA_MAX = 0.8
BETA_MAX = 0.6
#: half-width of :func:`uniform_init`'s window
UNIFORM_SCALE = 0.5


def uniform_init(p: int, *, rng=None) -> np.ndarray:
    """Flat ``[gammas..., betas...]`` drawn uniformly from
    ``[-UNIFORM_SCALE, UNIFORM_SCALE]``."""
    check_positive(p, "p")
    rng = as_rng(rng)
    return rng.uniform(-UNIFORM_SCALE, UNIFORM_SCALE, size=2 * p)


def ramp_init(p: int, *, rng=None, jitter: float = 0.0) -> np.ndarray:
    """Linear-ramp schedule: ``gamma_k = (k+1)/p * GAMMA_MAX``,
    ``beta_k = (1 - k/p) * BETA_MAX`` — a first-order Trotterization of the
    adiabatic path, a strong generic start for max-cut QAOA.

    ``jitter`` adds a small seeded perturbation so optimizer restarts from
    a ramp stay distinct.
    """
    check_positive(p, "p")
    k = np.arange(p)
    gammas = (k + 1) / p * GAMMA_MAX
    betas = (1.0 - k / p) * BETA_MAX
    x = np.concatenate([gammas, betas])
    if jitter:
        x = x + as_rng(rng).uniform(-jitter, jitter, size=2 * p)
    return x


def interp_init(previous: Sequence[float]) -> np.ndarray:
    """INTERP (Zhou et al. 2020): lift an optimized depth-p vector to p+1.

    Each parameter family (gammas, betas) is linearly interpolated:
    ``x'_k = (k/p) x_{k-1} + (1 - k/p) x_k`` for ``k = 0..p`` (with
    out-of-range terms dropped), producing a depth-(p+1) start that
    preserves the learned schedule's shape.
    """
    previous = np.asarray(previous, dtype=float)
    if previous.size % 2 != 0 or previous.size == 0:
        raise ValueError(
            f"expected a flat [gammas..., betas...] vector, got size {previous.size}"
        )
    p = previous.size // 2

    def lift(family: np.ndarray) -> np.ndarray:
        out = np.zeros(p + 1)
        for k in range(p + 1):
            left = family[k - 1] if k - 1 >= 0 else 0.0
            right = family[k] if k < p else 0.0
            out[k] = (k / p) * left + (1.0 - k / p) * right
        return out

    return np.concatenate([lift(previous[:p]), lift(previous[p:])])
