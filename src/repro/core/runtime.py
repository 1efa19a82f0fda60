"""The fault-tolerant, cache-aware search runtime (Algorithm 1's engine).

* **Streaming execution** — candidate evaluations go through one
  :class:`~repro.parallel.jobs.JobScheduler` (``submit`` + as-completed)
  with per-job retry and timeout, so worker failures cost one job's
  latency, not the search.
* **Persistent result cache** — with a ``cache_dir``, every evaluation is
  stored in :class:`~repro.core.cache.ResultCache` keyed by
  workload/tokens/p/config fingerprints. Repeat proposals, repeated
  depths, and whole re-runs are one batched lookup per depth instead of
  training loops.
* **Checkpoint/resume, at two granularities** — each finished depth is a
  row of the same store, written with the depth's last puts; a killed
  search restarted with ``resume=True`` skips the depths it already
  completed, and a warm depth takes its winner's QASM from its row.
  *Within* a depth, every evaluation reaches the result cache as it
  streams back (commits batched every ``cache_flush_every``
  evaluations), so a mid-depth kill costs at most the unflushed tail.
* **Sharding** — ``RuntimeConfig(shards=K)`` places each depth's cache
  misses on K *lanes* of that same scheduler by predicted cost (Fig. 2's
  outer level: pass K executors for one pool per shard); a lane that dies
  of a node-level fault hands its unfinished candidates to the survivors.
  Evaluation is deterministic given its config seed, so sharding changes
  where work runs, never what it computes.
  ``RuntimeConfig(shards=K, shard_index=i)`` instead makes *this* process
  node ``i`` of a multi-process deployment (the CLI's ``--shard-index``).
* **INTERP warm starts** — with ``EvaluationConfig(init_strategy=
  "interp")`` the runtime threads each candidate's previous-depth optimum
  through the job payload, so depth ``p`` trains from the INTERP lift of
  depth ``p - 1`` (Zhou et al. 2020) instead of cold draws. Warm-started
  evaluations get warm-aware cache keys, so they never alias cold ones.

A depth is five named steps (:meth:`SearchRuntime._run_depth`): restore,
shard slice, lookup, resolve, finish. What does not compose is one table,
:data:`REJECTED`.

The runtime is deliberately independent of how candidates are chosen:
:meth:`SearchRuntime.run` drives one
:class:`~repro.core.predictor.Proposer` — ``propose(p)`` for the depth's
pool, ``observe(evaluations)`` once it ran — whether that is the
exhaustive pool, a learning predictor, or a surrogate filter over either.

.. seealso::

   :mod:`repro.core.cache` for the fingerprint scheme behind the
   cache/checkpoint guarantees, ``docs/architecture.md`` for where this
   layer sits in the pipeline, ``docs/cli.md`` for the flags that drive it.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Iterator, Sequence
from contextlib import closing
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from repro.circuits.qasm import QasmError
from repro.core.cache import (
    NotStored,
    NullStore,
    ResultCache,
    StoredOnly,
    SweepCheckpoint,
    _digest,
    candidate_key,
    config_fingerprint,
    depth_fingerprint,
    workload_fingerprint,
)
from repro.core.evaluator import classical_optima, evaluate_candidate, warm_start_rows
from repro.core.predictor import Proposer, predicted_cost
from repro.core.results import CandidateEvaluation, DepthResult, SearchResult
from repro.graphs.generators import Graph
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.progress import SweepProgress
from repro.parallel.cluster import least_loaded_partition
from repro.parallel.executor import Executor, SerialExecutor
from repro.parallel.jobs import JobScheduler
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.utils.validation import ConfigError, check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (search imports us)
    from repro.core.search import SearchConfig

#: one candidate: its mixer's gate tokens
Tokens = tuple[str, ...]

__all__ = [
    "CancellationToken",
    "REJECTED",
    "RuntimeConfig",
    "SearchRuntime",
    "SweepCancelled",
    "predicted_cost",
]


class SweepCancelled(RuntimeError):
    """The sweep's :class:`CancellationToken` fired; work stopped early."""


class CancellationToken:
    """Cooperative cancellation signal threaded through a sweep.

    The runtime never interrupts a candidate mid-training; it checks the
    token between units of work (each depth batch, and between streamed
    evaluations inside a depth) and raises :class:`SweepCancelled` at the
    first checkpoint after :meth:`cancel` — so cancellation lands within
    one depth batch, with every already-finished evaluation persisted.
    ``cancel()`` is thread-safe and idempotent; any thread (an HTTP
    handler, a lease heartbeat that learned the job was cancelled) may
    fire it while the sweep runs on another.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason = "cancelled"

    def cancel(self, reason: str | None = None) -> None:
        if reason is not None:
            self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        if self._event.is_set():
            raise SweepCancelled(self.reason)


@dataclass(frozen=True)
class RuntimeConfig:
    """Fault-tolerance, persistence, and sharding knobs of one search run."""

    #: directory of the result store (candidate and depth rows); None disables it
    cache_dir: str | None = None
    #: restore finished depths from their rows in ``cache_dir``'s store
    resume: bool = False
    #: extra attempts per candidate evaluation after the first
    max_retries: int = 2
    #: per-attempt wall-clock limit in seconds (None = unlimited)
    job_timeout: float | None = None
    #: shards each depth's candidate bag is partitioned into (the Fig. 2
    #: outer level); 1 = the single-node runtime
    shards: int = 1
    #: evaluate only shard ``shard_index`` of every depth in this process
    #: (multi-process deployments launch one process per index, sharing
    #: ``cache_dir``); None = run all shards here
    shard_index: int | None = None
    #: cache commits are batched: one sqlite transaction per this many
    #: evaluations (1 = commit per evaluation; also the most a mid-depth
    #: kill can lose, minus one)
    cache_flush_every: int = 8
    #: LRU bound on the result cache (None = unbounded, the historical
    #: behaviour); in-flight keys are never evicted
    cache_max_entries: int | None = None

    def __post_init__(self) -> None:
        check_positive(self.max_retries, "max_retries", strict=False)
        if self.job_timeout is not None and not 0 < self.job_timeout < math.inf:
            raise ValueError(f"job_timeout must be finite and > 0, got {self.job_timeout}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.shard_index is not None and not (
            0 <= self.shard_index < self.shards
        ):
            raise ValueError(
                f"shard_index must be in [0, {self.shards}), got {self.shard_index}"
            )
        if self.cache_flush_every < 1:
            raise ValueError(
                f"cache_flush_every must be >= 1, got {self.cache_flush_every}"
            )
        if self.cache_max_entries is not None and self.cache_max_entries < 1:
            raise ValueError(
                f"cache_max_entries must be >= 1, got {self.cache_max_entries}"
            )


class Rejection(NamedTuple):
    """One composition the runtime refuses: it applies when both features are
    on, decided from the configs before any optimum or file is made."""

    features: tuple[str, str]
    #: the ``ConfigError`` text, whichever front-end the settings came through
    message: str
    reason: str


#: Every refused composition, in the order checked. ``docs/architecture.md``
#: renders this table; the composition property reaches every row.
REJECTED = (
    Rejection(
        ("resume", "no cache_dir"),
        "resume requires cache_dir (the checkpoint it restores lives there)",
        "depth rows go only to a store the sweep owns (cache_dir); a cache= store has none",
    ),
    Rejection(
        ("shard_index", "no store"),
        "shard_index requires a result store (cache_dir, or a shared cache): "
        "it is where the shard processes' results meet",
        "a shard keeps only what it stores; with no store its slice of the sweep is lost",
    ),
)


def _check_rejected(runtime: RuntimeConfig, cache: ResultCache | None) -> None:
    """Raise the first :data:`REJECTED` row whose features are on."""
    on = {
        "resume": runtime.resume,
        "no cache_dir": runtime.cache_dir is None,
        "shard_index": runtime.shard_index is not None,
        "no store": runtime.cache_dir is None and cache is None,
    }
    for row in REJECTED:
        if all(on[feature] for feature in row.features):
            raise ConfigError(row.message)


class SearchRuntime:
    """Runs depth sweeps of Algorithm 1 on top of cache + job scheduler.

    One instance corresponds to one workload + evaluation config; its
    classical optima are computed at most once, and its cache handles stay
    open across depths. Use as a context manager (or call :meth:`close`)
    so buffered results are committed and the store's connection is parked
    for the next sweep on its file (see :mod:`repro.core.cache`).

    ``executor`` is the worker fleet. Sharded execution — ``runtime.shards
    > 1`` or a sequence of executors, without ``shard_index`` — runs one
    scheduler lane per shard: ``None`` gives every shard its own
    :class:`SerialExecutor`, one :class:`Executor` is shared by all of them
    (separate failure domains, common workers), a sequence of
    ``runtime.shards`` executors is the one-pool-per-node deployment.
    """

    def __init__(
        self,
        graphs: Sequence[Graph],
        config: SearchConfig,
        *,
        executor: Executor | Sequence[Executor] | None = None,
        runtime: RuntimeConfig = RuntimeConfig(),
        cache: ResultCache | None = None,
        cancel: CancellationToken | None = None,
        metrics: MetricsRegistry | None = None,
        progress: SweepProgress | None = None,
    ) -> None:
        # Refusals cost nothing: no optimum, no file yet.
        _check_rejected(runtime, cache)
        sequence_given = executor is not None and not isinstance(executor, Executor)
        if sequence_given and runtime.shard_index is not None:
            raise ValueError(
                "a sequence of executors requires sharded execution "
                "(RuntimeConfig without shard_index)"
            )
        # Sharded: every shard of a depth runs here, one scheduler lane each.
        self._sharded = runtime.shard_index is None and (
            runtime.shards > 1 or sequence_given
        )
        if sequence_given:
            lanes = list(executor)
            if len(lanes) != runtime.shards:
                raise ValueError(f"got {len(lanes)} executors for {runtime.shards} shards")
        else:
            lanes = [
                executor or SerialExecutor()
                for _ in range(runtime.shards if self._sharded else 1)
            ]
        if not graphs:
            raise ValueError("search runtime needs at least one graph")
        self.graphs = list(graphs)
        self.config = config
        self.runtime = runtime
        self.cancel = cancel or CancellationToken()
        self.metrics = metrics
        self.progress = progress or SweepProgress()
        self.scheduler = JobScheduler(
            lanes,
            max_retries=runtime.max_retries,
            timeout=runtime.job_timeout,
            metrics=metrics,
        )
        self._m_shard: Counter | None = None
        if self._sharded and metrics is not None:
            self._m_shard = metrics.counter(
                "repro_shard_candidates_total",
                "Candidate evaluations completed, by shard",
                labels=("shard",),
            )
        self._workload_fp = workload_fingerprint(self.graphs)
        self._config_fp = config_fingerprint(config.evaluation)
        # INTERP hand-off state: tokens -> (p, per-graph best params); only
        # _harvest_warm_starts fills it, so it is empty unless "interp".
        self._warm: dict[Tokens, tuple[int, tuple]] = {}
        # Candidate cache keys stay surrogate-independent — an evaluation
        # is a pure function of the evaluation config — but depth rows
        # record which candidates a depth ran, so their fingerprint folds
        # the surrogate settings in: a surrogate-assisted sweep never
        # restores (or is restored by) a plain sweep's depths.
        self._depth_config_fp = self._config_fp
        if config.surrogate.enabled:
            self._depth_config_fp += f":surrogate-{config.surrogate.fingerprint()}"
        # Shard placement cost; run() points it at its proposer's estimate.
        self._predicted_cost = predicted_cost
        self.cache: ResultCache | NullStore = NullStore()
        self.checkpoint: SweepCheckpoint | None = None
        # An externally-owned cache (the service's shared, multi-tenant
        # store) outlives this sweep: use it, never close it. A cache_dir
        # instead makes this runtime the owner of a private store; with
        # neither, the sweep persists nothing.
        self._owns_cache = cache is None
        if cache is not None:
            self.cache = cache
        elif runtime.cache_dir is not None:
            self.cache = ResultCache(
                runtime.cache_dir,
                flush_every=runtime.cache_flush_every,
                max_entries=runtime.cache_max_entries,
                metrics=metrics,
            )
            self.checkpoint = SweepCheckpoint(self.cache)
        self._saves_rows = self.checkpoint is not None and runtime.shard_index is None
        self.restored_depths = 0
        # Per-sweep hit/miss accounting: counters on a *shared* cache
        # aggregate every tenant, so the sweep tracks its own view (for a
        # privately-owned cache the two are identical).
        self.cache_hits = 0
        self.cache_misses = 0

    @cached_property
    def classical_values(self) -> tuple[float, ...]:
        """The candidate-independent brute-force solve, per the configured
        workload's oracle: done once, for the first job payload, and ridden
        along in every one. A sweep whose every candidate is stored trains
        nothing, so it never pays for the solve."""
        return classical_optima(self.graphs, self.config.evaluation.workload)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._owns_cache:
            self.cache.close()
        else:
            self.cache.flush()

    def __enter__(self) -> SearchRuntime:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the sweep ---------------------------------------------------------

    def run(self, proposer: Proposer) -> SearchResult:
        """Algorithm 1's depth loop: each depth evaluates the pool
        ``proposer`` proposes, and the proposer observes the evaluations
        *before* the next depth proposes — the closed loop that lets a
        learning predictor (or a surrogate filter) steer its own later
        pools.
        """
        if isinstance(self.cache, StoredOnly) and not proposer.shard_safe:
            # Lookup-only runs only a pool that ignores rewards: a learning
            # proposer would fit its model here, stored rows or not.
            raise NotStored(f"{type(proposer).__name__} learns from its rewards")
        self._predicted_cost = proposer.predicted_cost
        best: CandidateEvaluation | None = None
        depth_results: list[DepthResult] = []
        total_start = time.perf_counter()
        self.progress.begin_sweep(self.config.p_max)

        for p in range(1, self.config.p_max + 1):
            # Cancellation checkpoint: a cancelled sweep stops before
            # starting the next depth batch; finished depths (and every
            # evaluation already streamed into the cache) are kept.
            self.cancel.raise_if_cancelled()
            depth_result = self._run_depth(p, proposer.propose(p), not proposer.shard_safe)
            depth_results.append(depth_result)
            # Restored/cached evaluations are observed too: after a kill
            # the proposer's in-memory state is gone, so replaying recorded
            # rewards is what reconstructs it on resume.
            proposer.observe(depth_result.evaluations)
            self._harvest_warm_starts(depth_result.evaluations)
            if depth_result.evaluations:
                depth_best = depth_result.best
                # Line 10: SELECT_BEST against the best of previous depths.
                if best is None or depth_best.reward > best.reward:
                    best = depth_best

        if best is None:
            if self.runtime.shard_index is not None:
                raise ConfigError(
                    f"shard {self.runtime.shard_index}/{self.runtime.shards} "
                    "received no candidates at any depth (more shards than "
                    "candidates?)"
                )
            raise ConfigError("search produced no evaluations (empty candidate sets)")
        self.progress.finish_sweep()
        return SearchResult(
            best_tokens=best.tokens,
            best_p=best.p,
            best_energy=best.energy,
            best_ratio=best.ratio,
            depth_results=depth_results,
            total_seconds=time.perf_counter() - total_start,
            config=self._result_config(proposer),
        )

    # -- internals ---------------------------------------------------------

    def _run_depth(self, p: int, candidates: Sequence[Tokens], learns: bool) -> DepthResult:
        """restore → shard slice → lookup → resolve → finish; the loop in
        :meth:`_evaluate` is the one place a result is delivered."""
        mine = self._shard_slice(p, candidates)
        if isinstance(self.cache, StoredOnly) and mine:
            # Lookup-only: a depth whose first candidate is not stored stops
            # before the rest of its keys, or its fingerprint, are derived.
            self.cache.require([self._candidate_key(candidates[mine[0]], p)])
        depth_fp = depth_fingerprint(self._workload_fp, self._depth_config_fp, candidates, p)
        restored = self._restore(p, depth_fp)
        if restored is not None:
            return restored
        depth_start = time.perf_counter()
        keys, evaluations = self._evaluate(p, [candidates[i] for i in mine])
        if learns and len(mine) < len(candidates):
            # A learning proposer steers its next pool by the whole depth, so
            # its shard then looks up the rest — siblings' rows are hits — and
            # trains what is still missing: the proposer, the warm starts and
            # the winner see the plain run's depth, in pool order.
            rest = sorted(set(range(len(candidates))) - set(mine))
            found = dict(zip(mine, zip(keys, evaluations)))
            found.update(zip(rest, zip(*self._evaluate(p, [candidates[i] for i in rest]))))
            keys, evaluations = map(list, zip(*(found[i] for i in range(len(candidates)))))
        self.progress.finish_depth(p)
        return self._finish(p, depth_fp, keys, evaluations, depth_start)

    def _evaluate(self, p: int, candidates: list[Tokens]) -> tuple[list[str], list]:
        """The candidates' keys and evaluations: hits, then misses trained."""
        keys = [self._candidate_key(tokens, p) for tokens in candidates]
        evaluations, misses = self._lookup(keys)
        # Positions already filled by lookups count as done from the
        # start; repeats awaiting a miss land with that miss below.
        cached = sum(e is not None for e in evaluations)
        self.progress.begin_depth(p, total=len(candidates), cached=cached)
        pending = {key: candidates[positions[0]] for key, positions in misses.items()}
        # Closed explicitly, not left to the collector: a raise out of the
        # loop body leaves the generator suspended, and its claim release
        # must run before the exception leaves the depth.
        with closing(self._resolve(p, pending)) as resolved:
            for key, result in resolved:
                for position in misses[key]:
                    evaluations[position] = result
                # Every result is persisted as it streams back (the cache
                # batches commits), so a mid-depth kill only loses work that
                # had not reached the last flush — that is the partial-depth
                # checkpoint the restart recovers from, candidate by candidate.
                self.cache.put(key, result)
                self.progress.record(p, len(misses[key]))
                # Mid-depth cancellation checkpoint: every streamed result
                # above is already persisted.
                self.cancel.raise_if_cancelled()
        if misses and not self._saves_rows:
            self.cache.flush()  # else the depth row's transaction flushes them
        return keys, evaluations

    def _restore(self, p: int, depth_fp: str) -> DepthResult | None:
        """The depth as its row recorded it, under ``resume``."""
        resumable = self.runtime.resume and self.checkpoint is not None
        restored = self.checkpoint.load_depth(depth_fp) if resumable else None
        if restored is None:
            return None
        if restored.best_qasm is None:
            restored = replace(restored, best_qasm=self._depth_qasm(p, restored.evaluations))
        self.restored_depths += 1
        done = len(restored.evaluations)
        self.progress.begin_depth(p, total=done, cached=done)
        self.progress.finish_depth(p)
        return restored

    def _shard_slice(self, p: int, candidates: Sequence[Tokens]) -> Sequence[int]:
        """The pool positions this process evaluates, in pool order: under
        ``shard_index`` a slice every sibling computes alike. ``p`` scales
        every static LPT cost alike, so a fixed pool keeps each token in one
        shard at every depth and a shard's INTERP warm starts (so its keys)
        are the plain run's: ``test_sharded.py::test_placement_is_depth_stable``."""
        if self.runtime.shard_index is None:
            return range(len(candidates))
        costs = [predicted_cost(tokens, p) for tokens in candidates]
        return sorted(least_loaded_partition(costs, self.runtime.shards)[self.runtime.shard_index])

    def _lookup(self, keys: list[str]) -> tuple[list, dict[str, list[int]]]:
        """One slot per position, hits filled in; misses as key -> positions
        awaiting its result. The distinct keys are one batched lookup; a
        repeat proposal within the depth counts as a hit, and a missed one
        is trained once and fanned out. Insertion order doubles as job order."""
        distinct = list(dict.fromkeys(keys))
        stored = dict(zip(distinct, self.cache.get_many(distinct)))
        evaluations: list[CandidateEvaluation | None] = [stored[key] for key in keys]
        misses: dict[str, list[int]] = {}
        for position, key in enumerate(keys):
            if stored[key] is None:
                misses.setdefault(key, []).append(position)
        for _ in range(len(keys) - len(distinct)):
            self.cache.count_hit()
        self.cache_misses += len(misses)
        self.cache_hits += len(keys) - len(misses)
        return evaluations, misses

    def _resolve(
        self, p: int, pending: dict[str, Tokens]
    ) -> Iterator[tuple[str, CandidateEvaluation]]:
        """One stream of ``(key, evaluation)`` for every missed key.

        Against a shared cache each miss is claimed: the first tenant to
        claim a key evaluates it, the others collect its put instead of
        duplicating the training run (a claim also loses to a put that
        landed since our lookup missed). Claimed keys stream back as they
        complete, then each key another tenant owns once its put lands.
        """
        owned: list[str] = []
        foreign: list[str] = []
        for key in pending:
            (owned if self.cache.claim(key) else foreign).append(key)
        undelivered = set(owned)
        try:
            # Inside the try: the first payload makes the classical solve,
            # which raises for a graph too large to solve exactly.
            jobs = [self._job_payload(pending[key], p) for key in owned]
            for key, result in self._execute(p, owned, jobs) if owned else ():
                yield key, result
                undelivered.discard(key)  # resumed: the consumer's put landed
        finally:
            # A failed/aborted sweep must not strand tenants waiting on
            # its claims — release whatever it never delivered.
            for key in undelivered:
                self.cache.unclaim(key)
        if owned and foreign:
            self.cache.flush()  # ours are durable before we block on theirs
        for key in foreign:
            # Bounded by the per-job deadline when one is configured. A None
            # means the owner failed or timed out — evaluate it ourselves
            # rather than losing the candidate.
            result = self.cache.wait_for(key, timeout=self.runtime.job_timeout)
            if result is None:
                ((_, result),) = self._execute(p, [key], [self._job_payload(pending[key], p)])
            else:
                # Served by a concurrent sweep's work: reclassify the
                # provisional miss recorded at lookup time as a hit.
                self.cache_misses -= 1
                self.cache_hits += 1
            yield key, result

    def _finish(self, p: int, depth_fp: str, keys: list, slots: list, start: float) -> DepthResult:
        """The ``DepthResult`` with its winner's QASM — its row's, when the
        row names the same keys — and that row saved, except under
        ``shard_index``: rows describe full depths only."""
        completed = tuple(e for e in slots if e is not None)
        seconds = time.perf_counter() - start
        if not self._saves_rows:
            return DepthResult(p, completed, seconds, self._depth_qasm(p, completed))
        qasm = self.checkpoint.stored_qasm(depth_fp, keys) or self._depth_qasm(p, completed)
        depth_result = DepthResult(p, completed, seconds, qasm)
        self.checkpoint.save_depth(depth_fp, depth_result, keys)
        return depth_result

    # -- the INTERP hand-off: harvest, look-up, key suffix -----------------

    def _harvest_warm_starts(self, evaluations: Sequence[CandidateEvaluation]) -> None:
        """Record a depth's trained optima (cache hits included, keeping the
        hand-off chain deterministic) so depth ``p + 1`` can start from them."""
        if self.config.evaluation.init_strategy == "interp":
            for evaluation in evaluations:
                if evaluation.best_params:
                    self._warm[evaluation.tokens] = (evaluation.p, evaluation.best_params)

    def _warm_start_for(self, tokens: Sequence[str], p: int) -> tuple | None:
        """The per-graph depth ``p - 1`` optima for ``tokens``, when the
        previous depth recorded them in a shape that can seed depth ``p``."""
        depth, rows = self._warm.get(tuple(tokens), (None, None))
        return warm_start_rows(rows, len(self.graphs), p) if depth == p - 1 else None

    def _candidate_key(self, tokens: Sequence[str], p: int) -> str:
        """The candidate's cache key; warm-started evaluations fold the
        warm start into the key so they never alias cold-started ones."""
        config_fp = self._config_fp
        warm = self._warm_start_for(tokens, p)
        if warm is not None:
            config_fp = f"{config_fp}:warm-{_digest(warm)[:16]}"
        return candidate_key(self._workload_fp, tokens, p, config_fp)

    def _depth_qasm(self, p: int, evaluations: tuple[CandidateEvaluation, ...]) -> str | None:
        """OpenQASM 2.0 of the depth winner, bound with its trained
        parameters on the first workload graph — the downstream-toolchain
        exit path every result payload now carries. ``None`` when the
        winner has no recorded parameters (pre-v3 cache entries) or uses a
        gate QASM cannot express."""
        if not evaluations:
            return None
        best = max(evaluations, key=lambda e: e.reward)
        if not best.best_params:
            return None
        try:
            ansatz = build_qaoa_ansatz(
                self.graphs[0], p, best.tokens, workload=self.config.evaluation.workload
            )
            return ansatz.qasm(best.best_params[0])
        except (QasmError, ValueError):
            return None

    def _job_payload(self, tokens: Sequence[str], p: int) -> tuple:
        """One picklable unit of work for ``evaluate_candidate``. Element 1
        must stay the token tuple — ``_execute``'s lane placement indexes it."""
        return (
            self.graphs,
            tokens,
            p,
            self.config.evaluation,
            self.classical_values,
            self._warm_start_for(tokens, p),
        )

    def _execute(
        self, p: int, keys: list[str], jobs: list[tuple]
    ) -> Iterator[tuple[str, CandidateEvaluation]]:
        """Stream ``(key, evaluation)`` pairs for the depth's cache misses.

        Sharded, the misses are placed on the scheduler's lanes by
        ``_predicted_cost`` — the running proposer's estimate: a surrogate
        filter's fitted cost model (measured seconds), the static heuristic
        otherwise. All lanes are placed by this process, and a
        ``shard_index`` slice by the static cost alone, so a learned model
        never decides what a sibling process owns.
        """
        costs = [self._predicted_cost(job[1], p) for job in jobs] if self._sharded else None
        for job_index, result in self.scheduler.as_completed(evaluate_candidate, jobs, costs):
            if self._sharded:
                shard = self.scheduler.lane_of[job_index]
                self.progress.record_shard(shard)
                if self._m_shard is not None:
                    self._m_shard.labels(shard=str(shard)).inc()
            yield keys[job_index], result

    def _result_config(self, proposer: Proposer) -> dict:
        stats = self.scheduler.stats
        # A pool shared by several lanes appears once, not once per shard.
        executors = {id(e): e for e in self.scheduler.executors}.values()
        names = ",".join(dict.fromkeys(e.name for e in executors))
        config = {
            "p_max": self.config.p_max,
            "k_max": self.config.k_max,
            "mode": self.config.mode,
            "num_samples": self.config.num_samples,
            "workload": self.config.evaluation.workload,
            "init_strategy": self.config.evaluation.init_strategy,
            "optimizer": self.config.evaluation.optimizer,
            "max_steps": self.config.evaluation.max_steps,
            "engine": self.config.evaluation.engine,
            "executor": f"sharded[{names}]" if self._sharded else names,
            "num_workers": sum(e.num_workers for e in executors),
            "predictor": proposer.name,
            "cache_dir": self.runtime.cache_dir,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            # store-level: shared across the tenants of one cache
            "cache_evictions": self.cache.evictions,
            "restored_depths": self.restored_depths,
            "shards": self.runtime.shards,
            "shard_index": self.runtime.shard_index,
            "jobs_submitted": stats.submitted,
            "jobs_retried": stats.retried,
            "surrogate": self.config.surrogate.enabled,
            "surrogate_kept": proposer.kept,
            "surrogate_skipped": proposer.skipped,
        }
        if self._sharded:
            config["dead_shards"] = list(self.scheduler.dead_lanes)
            config["jobs_migrated"] = self.scheduler.migrated
        return config
