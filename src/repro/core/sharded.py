"""The sharded search runtime: Fig. 2's outer level made real.

The paper's Polaris deployment distributes the search at two levels —
candidate bags across *nodes* (outer), gate combinations across each
node's CPUs (inner). :class:`~repro.core.runtime.SearchRuntime` (the
inner level) streams one depth's candidates through one
:class:`~repro.parallel.jobs.JobScheduler`; :class:`ShardedRuntime` adds
the outer level on top of the identical cache/checkpoint substrate:

* each depth's cache misses are partitioned into ``runtime.shards``
  shards by **greedy least-loaded placement on predicted cost** — the
  same :func:`~repro.parallel.cluster.least_loaded_partition` rule the
  :class:`~repro.parallel.cluster.ClusterModel` uses, so the model and
  the real scheduler can never disagree about balancing;
* every shard drains through its **own scheduler** (own retry budget,
  own deadlines, own executor — one process pool per shard models one
  node), concurrently, from its own drain thread;
* a shard whose drain dies of a *node-level* fault — its executor
  refuses submissions, or a candidate exhausts its retries purely on
  timeouts (workers unreachable or hanging) — is marked **dead** and its
  unfinished candidates are re-partitioned onto the surviving shards in
  the next round; the search only fails (:class:`ShardFailedError`) when
  no shard survives. A *candidate-level* terminal failure (the worker
  ran ``evaluate_candidate`` and it raised on every retry) is not blamed
  on the node: it aborts the search with the scheduler's
  :class:`~repro.parallel.jobs.JobFailedError`, exactly like the
  single-node runtime, instead of cascading a poisoned candidate
  through every shard's retry budget;
* results funnel through one queue back to the parent thread, which owns
  the cache (single writer, commits batched) and the merged statistics.

Because candidate evaluation is deterministic given its config seed, a
sharded run returns the *same* ``SearchResult`` (best tokens/p/energy,
every evaluation) as the single-node runtime — sharding changes where
work runs, never what it computes. (The same contract holds one layer
down for the evaluator's ``engine`` and ``array_backend`` knobs — see
:mod:`repro.simulators.backends` — which is what makes the three axes
freely composable: shards x engines x array backends all hit the same
fingerprinted cache entries only for genuinely identical configs.)

Real multi-process deployments set ``RuntimeConfig(shards=K,
shard_index=i)`` — one process per shard, meeting in a shared cache
directory; the worked recipe is in ``docs/cli.md``.

.. seealso::

   :class:`~repro.core.runtime.SearchRuntime`
       the inner level: one depth's candidates through one scheduler.
   :func:`~repro.parallel.cluster.least_loaded_partition`
       the placement rule shared with the analytic
       :class:`~repro.parallel.cluster.ClusterModel`.
   ``docs/architecture.md``
       this layer in the pipeline; ``benchmarks/bench_sharded_runtime.py``
       gates shard scaling and the partial-resume win in CI.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from repro.core.cache import ResultCache
from repro.core.evaluator import evaluate_candidate
from repro.core.results import CandidateEvaluation
from repro.core.runtime import (
    CancellationToken,
    RuntimeConfig,
    SearchRuntime,
)
from repro.graphs.generators import Graph
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.progress import SweepProgress
from repro.parallel.cluster import least_loaded_partition
from repro.parallel.executor import Executor, SerialExecutor
from repro.parallel.jobs import JobFailedError, JobScheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (search imports us)
    from repro.core.search import SearchConfig

__all__ = ["ShardFailedError", "ShardedRuntime"]


class ShardFailedError(RuntimeError):
    """Every shard died with candidates still unfinished."""

    def __init__(self, num_shards: int, cause: BaseException | None) -> None:
        super().__init__(
            f"all {num_shards} shard(s) died with work unfinished"
            + (f"; last cause: {cause!r}" if cause is not None else "")
        )
        self.num_shards = num_shards
        self.cause = cause


class _Shard:
    """One outer-level failure domain: an executor + its scheduler."""

    def __init__(self, index: int, executor: Executor, scheduler: JobScheduler) -> None:
        self.index = index
        self.executor = executor
        self.scheduler = scheduler
        self.alive = True
        self.cause: BaseException | None = None


class ShardedRuntime(SearchRuntime):
    """Depth sweeps sharded across outer-level failure domains.

    Parameters
    ----------
    executors:
        ``None`` — every shard gets its own :class:`SerialExecutor`
        (tests, modelling); a single :class:`Executor` — all shards share
        one pool (separate failure domains, common workers); a sequence
        of ``runtime.shards`` executors — one per shard, the real
        one-pool-per-node deployment.
    runtime:
        Must carry ``shards >= 1`` and no ``shard_index`` (a process that
        runs *all* shards cannot also be a single shard of a larger run).
    """

    def __init__(
        self,
        graphs: Sequence[Graph],
        config: SearchConfig,
        *,
        executors: Executor | Sequence[Executor] | None = None,
        runtime: RuntimeConfig = RuntimeConfig(shards=2),
        cache: ResultCache | None = None,
        cancel: CancellationToken | None = None,
        metrics: MetricsRegistry | None = None,
        progress: SweepProgress | None = None,
    ) -> None:
        if runtime.shard_index is not None:
            raise ValueError(
                "ShardedRuntime runs every shard; shard_index is for "
                "single-shard SearchRuntime processes"
            )
        if executors is None:
            shard_executors: list[Executor] = [
                SerialExecutor() for _ in range(runtime.shards)
            ]
        elif isinstance(executors, Executor):
            shard_executors = [executors] * runtime.shards
        else:
            shard_executors = list(executors)
            if len(shard_executors) != runtime.shards:
                raise ValueError(
                    f"got {len(shard_executors)} executors for "
                    f"{runtime.shards} shards"
                )
        super().__init__(
            graphs, config, executor=shard_executors[0], runtime=runtime,
            cache=cache, cancel=cancel, metrics=metrics, progress=progress,
        )
        self.shard_states = [
            _Shard(
                index,
                executor,
                JobScheduler(
                    executor,
                    max_retries=runtime.max_retries,
                    timeout=runtime.job_timeout,
                    metrics=metrics,
                ),
            )
            for index, executor in enumerate(shard_executors)
        ]
        self.dead_shards: list[int] = []
        self.jobs_migrated = 0
        self._last_cause: BaseException | None = None
        self._m_shard: Counter | None = None
        if metrics is not None:
            self._m_shard = metrics.counter(
                "repro_shard_candidates_total",
                "Candidate evaluations completed, by shard",
                labels=("shard",),
            )

    # -- the sharded outer level -------------------------------------------

    def _execute(
        self, p: int, keys: list[str], jobs: list[tuple]
    ) -> Iterator[tuple[str, CandidateEvaluation]]:
        """Rounds of (partition -> drain shards concurrently -> migrate).

        The first round shards all misses across every live shard; each
        later round exists only if shards died mid-drain, and re-shards
        exactly their unfinished candidates onto the survivors. Results
        are yielded from the parent thread as shards push them, so the
        caller's incremental cache persistence sees them immediately.
        """
        remaining = dict(zip(keys, jobs))
        first_round = True
        while remaining:
            alive = [shard for shard in self.shard_states if shard.alive]
            if not alive:
                error = ShardFailedError(len(self.shard_states), self._last_cause)
                error.__cause__ = self._last_cause
                raise error
            if not first_round:
                self.jobs_migrated += len(remaining)
            round_keys = list(remaining)
            # _predicted_cost is the running proposer's estimate: a
            # surrogate filter's fitted cost model (measured seconds), the
            # static heuristic otherwise — all shards are placed by this
            # parent process, so a learned model cannot desynchronise
            # siblings the way shard_index would.
            bins = least_loaded_partition(
                [self._predicted_cost(remaining[key][1], p) for key in round_keys],
                len(alive),
            )
            events: queue.Queue = queue.Queue()
            threads: list[threading.Thread] = []
            for shard, indices in zip(alive, bins):
                if not indices:
                    continue
                shard_keys = [round_keys[i] for i in indices]
                thread = threading.Thread(
                    target=self._drain_shard,
                    args=(shard, shard_keys, [remaining[k] for k in shard_keys], events),
                    name=f"shard-{shard.index}-p{p}",
                    daemon=True,
                )
                threads.append(thread)
                thread.start()

            active = len(threads)
            while active:
                kind, shard, payload = events.get()
                if kind == "result":
                    key, result = payload
                    del remaining[key]
                    self.progress.record_shard(shard.index)
                    if self._m_shard is not None:
                        self._m_shard.labels(shard=str(shard.index)).inc()
                    yield key, result
                elif kind == "fatal":
                    # Candidate-level terminal failure: the node is fine,
                    # the candidate is poisoned. Abort like the
                    # single-node runtime would — migrating it would just
                    # burn every surviving shard's retry budget.
                    raise payload
                elif kind == "dead":
                    shard.alive = False
                    shard.cause = payload
                    self.dead_shards.append(shard.index)
                    self._last_cause = payload
                    active -= 1
                else:  # "done"
                    active -= 1
            for thread in threads:
                thread.join()
            first_round = False

    @staticmethod
    def _drain_shard(
        shard: _Shard,
        shard_keys: list[str],
        shard_jobs: list[tuple],
        events: queue.Queue,
    ) -> None:
        """Drain one shard's scheduler, reporting results/death upstream.

        A *node-level* fault — the executor refuses submissions (pool
        gone), or retries exhaust purely on timeouts (workers unreachable
        or hanging) — kills the *shard*, not the search; the scheduler
        has already yielded every success it drained before the error, so
        only genuinely unfinished candidates migrate. A ``JobFailedError``
        whose cause is the candidate's own exception is *fatal*: the node
        executed the work and the work failed, so migrating would only
        cascade the poisoned candidate through every shard.
        """
        try:
            for job_index, result in shard.scheduler.as_completed(
                evaluate_candidate, shard_jobs
            ):
                events.put(("result", shard, (shard_keys[job_index], result)))
        except JobFailedError as exc:
            if isinstance(exc.cause, TimeoutError):
                events.put(("dead", shard, exc))
            else:
                events.put(("fatal", shard, exc))
        except Exception as exc:  # noqa: BLE001 - shard death is survivable
            events.put(("dead", shard, exc))
        else:
            events.put(("done", shard, None))

    # -- merged accounting -------------------------------------------------

    def _result_config(self, proposer) -> dict:
        merged = super()._result_config(proposer)
        schedulers = [shard.scheduler for shard in self.shard_states]
        # A shared executor appears once, not once per shard.
        unique_executors = list(
            {id(s.executor): s.executor for s in self.shard_states}.values()
        )
        merged.update(
            {
                "executor": "sharded["
                + ",".join(dict.fromkeys(e.name for e in unique_executors))
                + "]",
                "num_workers": sum(e.num_workers for e in unique_executors),
                "jobs_submitted": sum(s.stats.submitted for s in schedulers),
                "jobs_retried": sum(s.stats.retried for s in schedulers),
                "dead_shards": list(self.dead_shards),
                "jobs_migrated": self.jobs_migrated,
            }
        )
        return merged
