"""Greedy least-loaded placement — the Fig. 2 outer level's balancing rule.

The paper's deployment on Polaris distributes work at two levels: graphs
across nodes, gate combinations across each node's cores. One rule places
a bag of costed items onto bins wherever the runtime does: the job
scheduler's lanes and the ``shard_index`` slices (candidate bags onto
shards), and Fig. 5's replay of core counts beyond this machine (measured
candidate seconds onto cores).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.utils.validation import check_positive

__all__ = ["least_loaded_partition"]


def least_loaded_partition(
    costs: Sequence[float], num_bins: int
) -> list[list[int]]:
    """Greedy LPT placement: heaviest item first onto the least-loaded bin.

    Returns ``num_bins`` lists of item indices (some possibly empty).
    Deterministic: ties in cost and load resolve by index order.
    """
    check_positive(num_bins, "num_bins")
    bins: list[list[int]] = [[] for _ in range(num_bins)]
    load = [0.0] * num_bins
    order = sorted(range(len(costs)), key=lambda i: (-float(costs[i]), i))
    for item in order:
        target = min(range(num_bins), key=lambda b: (load[b], b))
        bins[target].append(item)
        load[target] += float(costs[item])
    return bins
