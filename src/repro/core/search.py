"""Algorithm 1: the QArchSearch driver loop.

For each depth ``p = 1..p_max``: obtain candidate gate combinations from
the predictor (line 5), build + train each on the workload graphs (lines
6–8; the Evaluator), collect energies (line 9), and keep the best mixer
seen across depths (line 10). Candidate evaluations within a depth are
independent, which is exactly the parallelism of Fig. 3 — ``executor``
decides whether they run serially or fan out over a process pool.

:func:`search_mixer` is the single front-end. It composes line 5 into one
:class:`~repro.core.predictor.Proposer` — the exhaustive pool, or
``predictor=`` adapted; either wrapped in the surrogate filter when
``config.surrogate.enabled`` — and hands it to the runtime.

Execution itself lives in :class:`~repro.core.runtime.SearchRuntime`:
evaluations stream back as they complete with per-job retry/timeout, and a
``runtime=RuntimeConfig(cache_dir=...)`` makes results persistent (repeat
runs are cache lookups) and the sweep checkpointed/resumable — at both
depth and single-evaluation granularity. ``RuntimeConfig(shards=K)`` adds
the Fig. 2 outer level inside that same runtime: per-depth candidate bags
are placed on K lanes of its scheduler (pass a sequence of K executors for
one pool per shard) with dead-shard migration onto survivors.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.alphabet import GateAlphabet, enumerate_search_space
from repro.core.cache import ResultCache
from repro.core.constraints import ConstraintSet
from repro.core.evaluator import EvaluationConfig
from repro.core.predictor import (
    FixedPoolProposer,
    Predictor,
    PredictorProposer,
    Proposer,
)
from repro.core.results import SearchResult
from repro.core.runtime import CancellationToken, RuntimeConfig, SearchRuntime
from repro.graphs.generators import Graph
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import SweepProgress
from repro.parallel.executor import Executor
from repro.surrogate.config import SurrogateConfig
from repro.utils.validation import check_positive

__all__ = ["SearchConfig", "search_mixer"]


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of Algorithm 1."""

    alphabet: GateAlphabet = GateAlphabet()
    #: maximum QAOA depth swept (paper: 4)
    p_max: int = 4
    #: maximum gates per mixer combination (paper: 4)
    k_max: int = 4
    #: minimum gates per mixer (2 restricts to the Figs. 6-7 pair space)
    k_min: int = 1
    #: candidate enumeration convention (see enumerate_search_space)
    mode: str = "sequences"
    #: candidates per depth for sampling predictors; None = whole space
    num_samples: int | None = None
    #: seed for sampling predictors
    seed: int = 11
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    #: optional admissibility constraints (§6's "arbitrary constraints")
    constraints: ConstraintSet | None = None
    #: surrogate-assisted ranking (off by default: every candidate is
    #: evaluated, the exact pre-surrogate behaviour)
    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)

    def __post_init__(self) -> None:
        check_positive(self.p_max, "p_max")
        check_positive(self.k_max, "k_max")


def search_mixer(
    graphs: Sequence[Graph],
    config: SearchConfig | None = None,
    *,
    predictor: Predictor | None = None,
    candidates_per_depth: int = 32,
    executor: Executor | Sequence[Executor] | None = None,
    runtime: RuntimeConfig | None = None,
    cache: ResultCache | None = None,
    cancel: CancellationToken | None = None,
    metrics: MetricsRegistry | None = None,
    progress: SweepProgress | None = None,
) -> SearchResult:
    """Algorithm 1; exhaustive (the paper's profiled configuration) unless
    a ``predictor`` is given.

    Exhaustive: every admissible candidate in the space is trained at
    every depth. With a ``predictor`` (random / bandit / RL) each depth
    trains the ``candidates_per_depth`` sequences it proposes and feeds
    every reward back *before the next depth proposes*, so learning
    predictors steer their own later proposals within one sweep. With a
    parallel executor the per-depth candidate bag fans out across
    workers. Pass ``runtime`` to enable the persistent cache and
    checkpoint/resume, or ``cache`` to run against an externally-owned
    (shared) result store — the search service passes its multi-tenant
    cache here.
    """
    config = config if config is not None else SearchConfig()
    proposer: Proposer
    if predictor is not None:
        proposer = PredictorProposer(
            predictor, candidates_per_depth, config.constraints
        )
    else:
        candidates = enumerate_search_space(
            config.alphabet, config.k_max, k_min=config.k_min, mode=config.mode
        )
        if config.constraints is not None:
            candidates = config.constraints.filter(candidates)
        if config.num_samples is not None:
            candidates = candidates[: config.num_samples]
        proposer = FixedPoolProposer(candidates)
    if config.surrogate.enabled:
        # Imported lazily: repro.surrogate's models import repro.core.
        from repro.surrogate.ranking import SurrogateAssistant

        proposer = SurrogateAssistant(
            proposer, config.alphabet, config.surrogate, metrics=metrics
        )
    with SearchRuntime(
        graphs, config, executor=executor, runtime=runtime or RuntimeConfig(),
        cache=cache, cancel=cancel, metrics=metrics, progress=progress,
    ) as search_runtime:
        return search_runtime.run(proposer)
