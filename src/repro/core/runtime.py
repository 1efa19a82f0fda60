"""The fault-tolerant, cache-aware search runtime (Algorithm 1's engine).

``search_mixer`` used to drive a blocking ``starmap`` batch per depth: no
result reuse across depths or runs, no checkpointing, and a single lost
worker stalled the sweep. This module is the replacement substrate:

* **Streaming execution** — candidate evaluations go through
  :class:`~repro.parallel.jobs.JobScheduler` (``submit`` + as-completed)
  with per-job retry and timeout, so worker failures cost one job's
  latency, not the search.
* **Persistent result cache** — with a ``cache_dir``, every evaluation is
  stored in :class:`~repro.core.cache.ResultCache` keyed by
  workload/tokens/p/config fingerprints. Repeat proposals (RL predictors
  re-propose good sequences constantly), repeated depths, and whole
  re-runs are lookups instead of training loops.
* **Checkpoint/resume, at two granularities** — each finished depth is
  checkpointed (atomically); a killed search restarted with
  ``resume=True`` skips the depths it already completed. *Within* a
  depth, every evaluation is persisted to the result cache as it streams
  back (commits batched every ``cache_flush_every`` evaluations), so a
  kill in the middle of a wide depth costs at most the unflushed tail:
  the restart re-submits only the candidates that never reached the
  cache, not the whole depth.
* **Sharding** — ``RuntimeConfig(shards=K)`` partitions each depth's
  candidate bag across K shards (greedy least-loaded by predicted cost)
  run by :class:`~repro.core.sharded.ShardedRuntime`, the Fig. 2 outer
  level made real: per-shard schedulers, dead shards re-shard their
  unfinished candidates onto survivors, cache/stats merge in the parent.
  ``RuntimeConfig(shards=K, shard_index=i)`` instead makes *this* process
  node ``i`` of a multi-process deployment: it evaluates only its shard
  of every depth into the shared cache (see the CLI's ``--shard-index``).
* **Hoisted classical optima** — the workload's brute-force oracle (the
  candidate-independent ``2^n`` part of scoring, per-problem via
  :mod:`repro.workloads`) runs once per search and ships to workers in
  the job payload instead of once per candidate.
* **INTERP warm starts** — with ``EvaluationConfig(init_strategy=
  "interp")`` the runtime threads each candidate's previous-depth optimum
  through the job payload, so depth ``p`` trains from the INTERP lift of
  depth ``p - 1`` (Zhou et al. 2020) instead of cold draws. Warm-started
  evaluations get warm-aware cache keys, so they never alias cold ones.
* **Compiled fast path** — job payloads carry the full
  :class:`~repro.core.evaluator.EvaluationConfig`, so workers train on
  whatever ``config.engine`` selects (default: the compiled engine) under
  whatever ``config.array_backend`` selects (default NumPy; CuPy or the
  metered mock GPU via :mod:`repro.simulators.backends`). Both are part
  of the config fingerprint, which keeps cached results from one
  engine/backend from ever being replayed as another's.

The runtime is deliberately independent of how candidates are chosen:
:meth:`SearchRuntime.run` drives one
:class:`~repro.core.predictor.Proposer` — ``propose(p)`` for the depth's
pool, ``observe(evaluations)`` once it ran — whether that is the
exhaustive pool, a learning predictor, or a surrogate filter over either.

.. seealso::

   :class:`~repro.core.sharded.ShardedRuntime`
       the Fig. 2 outer level stacked on this substrate (``shards=K``).
   :mod:`repro.core.cache`
       the fingerprint scheme behind the cache/checkpoint guarantees.
   ``docs/architecture.md``
       where this layer sits in the evaluation pipeline;
       ``docs/cli.md`` documents the flags (``--cache-dir``,
       ``--resume``, ``--retries``, ``--job-timeout``) that drive it.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.circuits.qasm import QasmError, to_qasm
from repro.core.cache import (
    NullStore,
    ResultCache,
    SweepCheckpoint,
    candidate_key,
    config_fingerprint,
    depth_fingerprint,
    workload_fingerprint,
)
from repro.core.evaluator import classical_optima, evaluate_candidate
from repro.core.predictor import Proposer, predicted_cost
from repro.core.results import CandidateEvaluation, DepthResult, SearchResult
from repro.graphs.generators import Graph
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import SweepProgress
from repro.parallel.cluster import least_loaded_partition
from repro.parallel.executor import Executor, SerialExecutor
from repro.parallel.jobs import JobScheduler
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.utils.validation import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (search imports us)
    from repro.core.search import SearchConfig

__all__ = [
    "CancellationToken",
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

    def __init__(self, reason: str = "cancelled") -> None:
        self._event = threading.Event()
        self.reason = reason

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

    #: directory for the result cache + checkpoint; None disables both
    cache_dir: str | None = None
    #: restore finished depths from the checkpoint in ``cache_dir``
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
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.shard_index is not None and not (
            0 <= self.shard_index < self.shards
        ):
            raise ValueError(
                f"shard_index must be in [0, {self.shards}), got {self.shard_index}"
            )
        if self.resume and self.cache_dir is None:
            raise ValueError(
                "resume requires cache_dir (the checkpoint it restores lives there)"
            )
        if self.cache_flush_every < 1:
            raise ValueError(
                f"cache_flush_every must be >= 1, got {self.cache_flush_every}"
            )
        if self.cache_max_entries is not None and self.cache_max_entries < 1:
            raise ValueError(
                f"cache_max_entries must be >= 1, got {self.cache_max_entries}"
            )


class SearchRuntime:
    """Runs depth sweeps of Algorithm 1 on top of cache + job scheduler.

    One instance corresponds to one workload + evaluation config; its
    classical optima are computed exactly once, and its cache handles stay
    open across depths. Use as a context manager (or call :meth:`close`)
    so the sqlite handle is released deterministically.
    """

    def __init__(
        self,
        graphs: Sequence[Graph],
        config: SearchConfig,
        *,
        executor: Executor | None = None,
        runtime: RuntimeConfig = RuntimeConfig(),
        cache: ResultCache | None = None,
        cancel: CancellationToken | None = None,
        metrics: MetricsRegistry | None = None,
        progress: SweepProgress | None = None,
    ) -> None:
        if not graphs:
            raise ValueError("search runtime needs at least one graph")
        self.graphs = list(graphs)
        self.config = config
        self.runtime = runtime
        self.cancel = cancel or CancellationToken()
        self.metrics = metrics
        self.progress = progress or SweepProgress()
        self.executor = executor or SerialExecutor()
        self.scheduler = JobScheduler(
            self.executor,
            max_retries=runtime.max_retries,
            timeout=runtime.job_timeout,
            metrics=metrics,
        )
        # Hot-path fix: the candidate-independent brute-force solve happens
        # here, once, per the configured workload's oracle, and rides along
        # in every job payload.
        self.classical_values = classical_optima(
            self.graphs, config.evaluation.workload
        )
        self._workload_fp = workload_fingerprint(self.graphs)
        self._config_fp = config_fingerprint(config.evaluation)
        # INTERP depth hand-off state: tokens -> (p, per-graph best params)
        # harvested from each assembled depth (cache hits included, so the
        # chain is deterministic for a given sweep).
        self._interp = config.evaluation.init_strategy == "interp"
        self._warm: dict[tuple[str, ...], tuple[int, tuple]] = {}
        if self._interp and runtime.shard_index is not None:
            # A shard process only sees its slice of depth p-1, so sibling
            # processes would train the same depth-p key from different
            # (or missing) warm starts and poison the shared cache.
            raise ConfigError(
                "init_strategy='interp' cannot run under shard_index: the "
                "INTERP hand-off needs every previous-depth result in one "
                "process"
            )
        # Candidate cache keys stay surrogate-independent — an evaluation
        # is a pure function of the evaluation config — but depth
        # *checkpoints* record which candidates a depth ran, so their
        # fingerprint folds the surrogate settings in: a surrogate-assisted
        # sweep never restores (or is restored by) a plain sweep's
        # checkpoints.
        self._depth_config_fp = self._config_fp
        if config.surrogate.enabled:
            self._depth_config_fp = (
                f"{self._config_fp}:surrogate-{config.surrogate.fingerprint()}"
            )
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
            self.checkpoint = SweepCheckpoint(runtime.cache_dir)
        self.restored_depths = 0
        # Per-sweep hit/miss accounting: counters on a *shared* cache
        # aggregate every tenant, so the sweep tracks its own view (for a
        # privately-owned cache the two are identical).
        self._sweep_hits = 0
        self._sweep_misses = 0

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

    # -- accounting --------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return self._sweep_hits

    @property
    def cache_misses(self) -> int:
        return self._sweep_misses

    @property
    def cache_evictions(self) -> int:
        """Store-level evictions (shared across tenants of one cache)."""
        return self.cache.evictions

    # -- the sweep ---------------------------------------------------------

    def run(self, proposer: Proposer) -> SearchResult:
        """Algorithm 1's depth loop: each depth evaluates the pool
        ``proposer`` proposes, and the proposer observes the evaluations
        *before* the next depth proposes — the closed loop that lets a
        learning predictor (or a surrogate filter) steer its own later
        pools.
        """
        if self.runtime.shard_index is not None and not proposer.shard_safe:
            # Sibling shard processes must slice the *same* pool, but a
            # feedback-driven proposer sees only this process's slice of
            # the rewards, so sibling pools would silently diverge and
            # the shards would neither cover the bag nor stay disjoint.
            raise ConfigError(
                "shard_index requires a proposer whose pools ignore reward "
                "feedback (the exhaustive pool); a predictor or surrogate "
                "filter would diverge between shard processes"
            )
        if self.runtime.shard_index is not None and isinstance(self.cache, NullStore):
            raise ConfigError(
                "shard_index requires a result store (cache_dir, or a shared "
                "cache): it is where the shard processes' results meet"
            )
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
            depth_result = self._run_depth(p, proposer.propose(p))
            depth_results.append(depth_result)
            # Restored/cached evaluations are observed too: after a kill
            # the proposer's in-memory state is gone, so replaying recorded
            # rewards is what reconstructs it on resume.
            proposer.observe(depth_result.evaluations)
            if self._interp:
                # Harvest the depth's trained optima (cache hits included,
                # keeping the hand-off chain deterministic) so depth p+1
                # can warm-start from them.
                for evaluation in depth_result.evaluations:
                    if evaluation.best_params:
                        self._warm[evaluation.tokens] = (
                            evaluation.p,
                            evaluation.best_params,
                        )
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

    def _run_depth(self, p: int, candidates: Sequence[tuple[str, ...]]) -> DepthResult:
        depth_fp = depth_fingerprint(
            self._workload_fp, self._depth_config_fp, candidates, p
        )
        if self.runtime.resume and self.checkpoint is not None:
            restored = self.checkpoint.load_depth(depth_fp)
            if restored is not None:
                if restored.best_qasm is None:
                    restored = replace(
                        restored, best_qasm=self._depth_qasm(p, restored.evaluations)
                    )
                self.restored_depths += 1
                done = len(restored.evaluations)
                self.progress.begin_depth(p, total=done, cached=done)
                self.progress.finish_depth(p)
                return restored
        if self.runtime.shard_index is not None:
            # This process is one node of a multi-process deployment: it
            # owns a deterministic slice of the full bag (every sibling
            # computes the same partition of the same list) and its
            # results meet the others' in the shared cache. The depth
            # checkpoint stays untouched — it describes full depths only.
            mine = least_loaded_partition(
                [predicted_cost(tokens, p) for tokens in candidates],
                self.runtime.shards,
            )[self.runtime.shard_index]
            candidates = [candidates[i] for i in sorted(mine)]

        depth_start = time.perf_counter()
        evaluations: list[CandidateEvaluation | None] = [None] * len(candidates)
        # key -> positions awaiting its result; repeat proposals within a
        # depth (RL predictors re-propose good sequences constantly) are
        # trained once and fanned out. Insertion order doubles as job order.
        miss_positions: dict[str, list[int]] = {}
        for position, tokens in enumerate(candidates):
            key = self._candidate_key(tokens, p)
            if key in miss_positions:
                miss_positions[key].append(position)
                self._sweep_hits += 1  # repeat served without retraining
                self.cache.count_hit()
                continue
            cached = self.cache.get(key)
            if cached is not None:
                self._sweep_hits += 1
                evaluations[position] = cached
            else:
                self._sweep_misses += 1
                miss_positions[key] = [position]

        # Positions already filled by lookups count as done from the
        # start; repeats awaiting a miss land with that miss below.
        self.progress.begin_depth(
            p,
            total=len(candidates),
            cached=sum(1 for e in evaluations if e is not None),
        )

        # Against a shared cache, claim each miss: the first tenant to
        # claim a key evaluates it, the others collect its put below
        # instead of duplicating the training run (a claim also loses to a
        # put that landed since our lookup missed).
        owned_keys: list[str] = []
        foreign_keys: list[str] = []
        for key in miss_positions:
            (owned_keys if self.cache.claim(key) else foreign_keys).append(key)

        if owned_keys:
            jobs = [self._job_payload(candidates[miss_positions[key][0]], p)
                    for key in owned_keys]
            unresolved = set(owned_keys)
            try:
                # Every result is persisted as it streams back (the cache
                # batches commits), so a mid-depth kill only loses work that
                # had not reached the last flush — that is the partial-depth
                # checkpoint the restart recovers from, candidate by
                # candidate.
                for key, result in self._execute(p, owned_keys, jobs):
                    for position in miss_positions[key]:
                        evaluations[position] = result
                    self.cache.put(key, result)
                    unresolved.discard(key)
                    self.progress.record(p, len(miss_positions[key]))
                    # Mid-depth cancellation checkpoint: every streamed
                    # result above is already persisted, and the finally
                    # below releases the claims we never delivered.
                    self.cancel.raise_if_cancelled()
            finally:
                # A failed/aborted sweep must not strand tenants waiting on
                # its claims — release whatever it never delivered.
                for key in unresolved:
                    self.cache.unclaim(key)
            self.cache.flush()

        for key in foreign_keys:
            # Another sweep owns this evaluation; block until its put lands
            # (bounded by the per-job deadline when one is configured). A
            # None means the owner failed or timed out — evaluate it
            # ourselves rather than losing the candidate.
            result = self.cache.wait_for(key, timeout=self.runtime.job_timeout)
            if result is None:
                tokens = candidates[miss_positions[key][0]]
                for _, result in self._execute(
                    p, [key], [self._job_payload(tokens, p)]
                ):
                    self.cache.put(key, result)
            else:
                # Served by a concurrent sweep's work: reclassify the
                # provisional miss recorded at lookup time as a hit.
                self._sweep_misses -= 1
                self._sweep_hits += 1
            for position in miss_positions[key]:
                evaluations[position] = result
            self.progress.record(p, len(miss_positions[key]))
        if foreign_keys:
            self.cache.flush()

        self.progress.finish_depth(p)
        completed = tuple(e for e in evaluations if e is not None)
        depth_result = DepthResult(
            p,
            completed,
            time.perf_counter() - depth_start,
            self._depth_qasm(p, completed),
        )
        if self.checkpoint is not None and self.runtime.shard_index is None:
            self.checkpoint.save_depth(depth_fp, depth_result)
        return depth_result

    def _warm_start_for(self, tokens: Sequence[str], p: int) -> tuple | None:
        """The per-graph depth ``p - 1`` optima for ``tokens``, when the
        INTERP hand-off is active and the previous depth recorded them."""
        if not self._interp:
            return None
        entry = self._warm.get(tuple(tokens))
        if entry is None or entry[0] != p - 1:
            return None
        rows = entry[1]
        if len(rows) != len(self.graphs) or any(
            len(row) != 2 * (p - 1) for row in rows
        ):
            return None
        return rows

    def _candidate_key(self, tokens: Sequence[str], p: int) -> str:
        """The candidate's cache key; warm-started evaluations fold the
        warm start into the key so they never alias cold-started ones."""
        config_fp = self._config_fp
        warm = self._warm_start_for(tokens, p)
        if warm is not None:
            blob = json.dumps(warm, sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
            config_fp = f"{config_fp}:warm-{digest}"
        return candidate_key(self._workload_fp, tokens, p, config_fp)

    def _depth_qasm(
        self, p: int, evaluations: tuple[CandidateEvaluation, ...]
    ) -> str | None:
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
                self.graphs[0],
                p,
                best.tokens,
                initial_hadamard=self.config.evaluation.initial_hadamard,
                workload=self.config.evaluation.workload,
            )
            return to_qasm(ansatz.bind(list(best.best_params[0])))
        except (QasmError, ValueError):
            return None

    def _job_payload(self, tokens: Sequence[str], p: int) -> tuple:
        """One picklable unit of work for ``evaluate_candidate``. Element 1
        must stay the token tuple — the sharded runtime's cost partitioner
        indexes it."""
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

        The single-node runtime drains one scheduler;
        :class:`~repro.core.sharded.ShardedRuntime` overrides this with
        the sharded outer level.
        """
        for job_index, result in self.scheduler.as_completed(
            evaluate_candidate, jobs
        ):
            yield keys[job_index], result

    def _result_config(self, proposer: Proposer) -> dict:
        stats = self.scheduler.stats
        return {
            "p_max": self.config.p_max,
            "k_max": self.config.k_max,
            "mode": self.config.mode,
            "num_samples": self.config.num_samples,
            "workload": self.config.evaluation.workload,
            "init_strategy": self.config.evaluation.init_strategy,
            "optimizer": self.config.evaluation.optimizer,
            "max_steps": self.config.evaluation.max_steps,
            "engine": self.config.evaluation.engine,
            "executor": self.executor.name,
            "num_workers": self.executor.num_workers,
            "predictor": proposer.name,
            "cache_dir": self.runtime.cache_dir,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "restored_depths": self.restored_depths,
            "shards": self.runtime.shards,
            "shard_index": self.runtime.shard_index,
            "jobs_submitted": stats.submitted,
            "jobs_retried": stats.retried,
            "surrogate": self.config.surrogate.enabled,
            "surrogate_kept": proposer.kept,
            "surrogate_skipped": proposer.skipped,
        }
