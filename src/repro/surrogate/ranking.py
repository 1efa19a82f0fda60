"""Surrogate-assisted candidate selection: rank the pool, evaluate a slice.

:class:`SurrogateAssistant` is a filter over any
:class:`~repro.core.predictor.Proposer` — the exhaustive pool or a
predictor's proposals alike; ``search_mixer`` wraps it around whichever
the sweep uses when ``SearchConfig.surrogate.enabled``. It trains the
:class:`~repro.surrogate.model.SurrogateModel` (and the
:class:`~repro.surrogate.cost.CostModel`) on each finished depth's
evaluations, then pre-ranks the next depth's candidate pool with
:func:`rank_and_select` and forwards only the predicted-top slice — plus
the seeded exploration floor — to real evaluation.

Selection invariants, relied on by the equivalence tests: the kept
subset preserves the pool's original order (so depth fingerprints and
INTERP hand-offs see a stable list), at least one candidate always
survives, nothing is filtered until the model has both trained and seen
``min_observations`` rows, and ``explore_floor=1.0`` keeps the entire
pool — the degenerate case that makes a surrogate-on sweep bit-identical
to a surrogate-off one.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence

import numpy as np

from repro.core.alphabet import GateAlphabet
from repro.core.predictor import Proposer
from repro.core.results import CandidateEvaluation
from repro.obs.metrics import MetricsRegistry
from repro.surrogate.config import SurrogateConfig
from repro.surrogate.cost import CostModel
from repro.surrogate.model import SurrogateModel
from repro.utils.rng import as_rng, stable_seed

__all__ = ["SurrogateAssistant", "rank_and_select"]

#: histogram buckets for ranking latency (a pool is scored in milliseconds)
_RANKING_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


def rank_and_select(
    scores: np.ndarray,
    *,
    keep_fraction: float,
    explore_floor: float,
    rng,
) -> list[int]:
    """Indices to keep from a scored pool, in original-pool order.

    The predicted-top ``keep_fraction`` slice (ties broken by pool
    position — stable sort) is unioned with a uniform ``explore_floor``
    sample drawn from the *whole* pool, so a candidate the surrogate
    mis-ranks still has a seeded chance at real evaluation every depth.
    """
    n = len(scores)
    keep = max(1, math.ceil(keep_fraction * n))
    order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    chosen = set(order[:keep].tolist())
    floor = math.ceil(explore_floor * n)
    if floor:
        chosen.update(
            int(i) for i in as_rng(rng).choice(n, size=floor, replace=False)
        )
    return sorted(chosen)


class SurrogateAssistant(Proposer):
    """One sweep's surrogate layer: value model + cost model + accounting.

    Wraps the proposer whose pools it prunes: ``propose`` passes
    ``inner``'s depth pool through ``select`` *before* evaluation;
    ``observe`` trains on each finished depth's evaluations (cache hits
    included, so the training stream is deterministic for a given
    sweep), then forwards them to ``inner``. Both models train lazily at
    the top of ``select`` — "train on everything completed so far, then
    rank" — and the accounting (candidates kept/skipped, ranking
    latency) feeds the result config and, when a registry is wired, the
    ``repro_surrogate_*`` metric families. Never ``shard_safe``: the
    ranker trains on every previous-depth result, so a ``shard_index``
    process running it takes in the whole depth — its siblings' stored
    rows, trained here when missing — and prunes as the plain run does.
    """

    def __init__(
        self,
        inner: Proposer,
        alphabet: GateAlphabet,
        config: SurrogateConfig,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not config.enabled:
            raise ValueError("SurrogateAssistant requires an enabled config")
        self.inner = inner
        self.name = inner.name
        self.config = config
        self.model = SurrogateModel(alphabet, seed=config.seed)
        self.cost = CostModel()
        self.kept = 0
        self.skipped = 0
        self._selections = 0
        self._m_kept = self._m_skipped = self._m_latency = None
        if metrics is not None:
            self._m_kept = metrics.counter(
                "repro_surrogate_candidates_kept_total",
                "Candidates forwarded to real evaluation after ranking",
            )
            self._m_skipped = metrics.counter(
                "repro_surrogate_candidates_skipped_total",
                "Candidates pruned by the surrogate ranker",
            )
            self._m_latency = metrics.histogram(
                "repro_surrogate_ranking_seconds",
                "Latency of ranking one depth's candidate pool",
                buckets=_RANKING_BUCKETS,
            )

    # -- the proposer seam --------------------------------------------------

    def propose(self, p: int) -> list[tuple[str, ...]]:
        return self.select(self.inner.propose(p), p)

    def select(
        self, candidates: Sequence[tuple[str, ...]], p: int
    ) -> list[tuple[str, ...]]:
        """The slice of this depth's pool that gets real evaluation."""
        start = time.perf_counter()
        self.model.fit()
        self.cost.fit()
        pool = list(candidates)
        if (
            len(pool) > 1
            and self.model.trained
            and self.model.observations >= self.config.min_observations
        ):
            scores = self.model.predict_many(pool, p)
            rng = as_rng(
                stable_seed(
                    self.config.seed, "surrogate-floor", p, self._selections
                )
            )
            indices = rank_and_select(
                scores,
                keep_fraction=self.config.keep_fraction,
                explore_floor=self.config.explore_floor,
                rng=rng,
            )
            kept = [pool[i] for i in indices]
        else:
            kept = pool
        self._selections += 1
        self.kept += len(kept)
        self.skipped += len(pool) - len(kept)
        if self._m_kept is not None:
            self._m_kept.inc(len(kept))
            self._m_skipped.inc(len(pool) - len(kept))
            self._m_latency.observe(time.perf_counter() - start)
        return kept

    def observe(self, evaluations: Sequence[CandidateEvaluation]) -> None:
        """Feed a finished depth's results into both models, then on to
        ``inner``. The value model trains on ``reward`` — the same scalar
        SELECT_BEST maximizes — so ranking by descending prediction
        targets the depth winner."""
        for evaluation in evaluations:
            self.model.observe(evaluation.tokens, evaluation.p, evaluation.reward)
            if evaluation.seconds > 0.0:
                self.cost.observe(evaluation.tokens, evaluation.p, evaluation.seconds)
        self.inner.observe(evaluations)

    def predicted_cost(self, tokens: Sequence[str], p: int) -> float:
        """Placement cost for the sharded runtime: the cost model's (the
        static heuristic until it is fitted)."""
        return self.cost.predict(tokens, p)
