"""Sharded depth sweeps with dead-shard migration (Fig. 2's outer level).

Runs one search three ways on the same workload/seed:

1. single-node baseline (one scheduler, one executor);
2. sharded across 3 shards — candidate bags are placed by predicted cost
   (greedy least-loaded, `least_loaded_partition`) on three lanes of
   that same JobScheduler, one executor each;
3. sharded with one shard rigged to die mid-depth — its unfinished
   candidates migrate to the survivors and the result is unchanged.

All three produce the *identical* SearchResult: sharding changes where
work runs, never what it computes.

    python examples/sharded_search.py

Equivalent CLI (in-process shards, one worker pool per shard):

    python -m repro search --shards 3 --workers -1 ...

Real multi-process sharding launches one process per shard against a
shared cache, then merges:

    python -m repro search --shards 3 --shard-index 0 --cache-dir /tmp/qa &
    python -m repro search --shards 3 --shard-index 1 --cache-dir /tmp/qa &
    python -m repro search --shards 3 --shard-index 2 --cache-dir /tmp/qa &
    wait
    python -m repro search --cache-dir /tmp/qa   # merge: pure cache hits
"""

from repro import EvaluationConfig, RuntimeConfig, SearchConfig, paper_er_dataset, search_mixer
from repro.parallel.executor import SerialExecutor

graphs = paper_er_dataset(2)
config = SearchConfig(
    p_max=2,
    k_min=1,
    k_max=2,
    mode="combinations",
    evaluation=EvaluationConfig(max_steps=30, seed=0),
)

single = search_mixer(graphs, config)
print(f"single node: {single.num_candidates} candidates -> "
      f"{single.best_tokens} at p={single.best_p} (ratio {single.best_ratio:.4f})")

sharded = search_mixer(graphs, config, runtime=RuntimeConfig(shards=3))
print(f"3 shards:    jobs per shard merged to "
      f"{sharded.config['jobs_submitted']} submissions -> "
      f"{sharded.best_tokens} (identical: "
      f"{sharded.best_energy == single.best_energy})")


class DiesMidDepth(SerialExecutor):
    """A 'node' that becomes unreachable after its third job."""

    def __init__(self):
        self.count = 0

    def submit(self, fn, *args):
        self.count += 1
        if self.count > 3:
            raise RuntimeError("node unreachable")
        return super().submit(fn, *args)


survivors = [DiesMidDepth(), SerialExecutor(), SerialExecutor()]
failed = search_mixer(
    graphs, config, executor=survivors, runtime=RuntimeConfig(shards=3)
)
print(f"shard 0 died: {failed.config['jobs_migrated']} candidates migrated to "
      f"shards {sorted(set(range(3)) - set(failed.config['dead_shards']))} -> "
      f"{failed.best_tokens} (identical: "
      f"{failed.best_energy == single.best_energy})")

assert sharded.best_energy == single.best_energy
assert failed.best_energy == single.best_energy
print("sharding changes where work runs, never what it computes")
