"""Performance-profiling drivers: Figs. 4 and 5 (§3.1).

Fig. 4 — "Time to simulate circuits with serial and parallel quantum NAS
procedure", depth on the x-axis, averaged over five runs on different ER
graphs. Each run is one :func:`repro.api.search` sweep of ``p = 1..p_max``
serially (``workers=0``) and one on the leased fleet of every core
(``workers=-1``); a depth's time is its ``DepthResult.seconds``, the
depth's own wall time with no set-up cost inside it. Before timing, each
arm makes one untimed sweep (the parallel arm forks its fleet there); its
wall time is reported as the paper's per-run start-up cost.

Fig. 5 — "Time to simulate a graph with p = 2 with different number of
cores" (8..64 in steps of 8) against a dashed serial line. The worker
counts this machine has (1 and 2) are real sweeps; counts beyond it are
replayed with the runtime's own placement rule: the largest bin load of
:func:`~repro.parallel.cluster.least_loaded_partition` over the serial
sweep's measured per-candidate seconds, the rule sharded lanes place work by.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro import api
from repro.graphs.generators import Graph
from repro.parallel.cluster import least_loaded_partition
from repro.parallel.executor import available_cores

__all__ = ["Fig4Result", "Fig5Result", "run_fig4", "run_fig5"]

#: the depth Fig. 5 profiles
FIG5_P = 2


@dataclass
class Fig4Result:
    """Mean serial/parallel search times per depth."""

    p_values: list[int]
    serial_seconds: list[float]  # mean over runs
    parallel_seconds: list[float]
    num_workers: int
    per_run_serial: list[list[float]] = field(default_factory=list)  # [run][p]
    per_run_parallel: list[list[float]] = field(default_factory=list)
    #: arm -> wall seconds of its untimed first sweep
    startup_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def improvement(self) -> list[float]:
        """Fractional time reduction per depth (paper: >50%)."""
        return [
            1.0 - par / ser if ser > 0 else 0.0
            for ser, par in zip(self.serial_seconds, self.parallel_seconds)
        ]


def run_fig4(
    run_graphs: Sequence[Graph], *, p_max: int = 4, config: api.Config
) -> Fig4Result:
    """Time the depth sweep serially and in parallel, one run per graph.

    Matches the paper's protocol: each run is the NAS inner loop on a
    different ER graph; reported times are means across runs.
    """
    arms = {"serial": replace(config, workers=0), "parallel": replace(config, workers=-1)}
    startup: dict[str, float] = {}
    per_run: dict[str, list[list[float]]] = {}
    for arm, arm_config in arms.items():
        start = time.perf_counter()
        api.search(run_graphs[:1], depths=1, config=arm_config)
        startup[arm] = time.perf_counter() - start
        sweeps = [api.search([graph], depths=p_max, config=arm_config) for graph in run_graphs]
        per_run[arm] = [[depth.seconds for depth in s.depth_results] for s in sweeps]
    return Fig4Result(
        p_values=list(range(1, p_max + 1)),
        serial_seconds=list(np.mean(per_run["serial"], axis=0)),
        parallel_seconds=list(np.mean(per_run["parallel"], axis=0)),
        num_workers=available_cores(),
        per_run_serial=per_run["serial"],
        per_run_parallel=per_run["parallel"],
        startup_seconds=startup,
    )


@dataclass
class Fig5Result:
    """Measured serial time plus replayed (and validated) core scaling."""

    core_counts: list[int]
    #: the p = 2 depth replayed on each core count
    simulated_seconds: list[float]
    serial_seconds: float  # the dashed red line
    #: real runs: workers -> (measured, replayed)
    validation: dict[int, tuple[float, float]] = field(default_factory=dict)

    @property
    def best_fraction_of_serial(self) -> float:
        """min replayed time / serial time (paper quotes 0.76x faster)."""
        return min(self.simulated_seconds) / self.serial_seconds


def _replayed(seconds: Sequence[float], workers: int) -> float:
    """Makespan of ``seconds`` placed on ``workers`` cores by the runtime's rule."""
    return max(sum(seconds[i] for i in bin_) for bin_ in least_loaded_partition(seconds, workers))


def run_fig5(
    graph: Graph,
    *,
    config: api.Config,
    core_counts: Sequence[int] = (8, 16, 24, 32, 40, 48, 56, 64),
) -> Fig5Result:
    """Sweep the graph serially, replay its p = 2 depth on each core count.

    Where the machine has two cores the sweep also runs on two workers, so
    the replay is checked against a real run where one exists.
    """
    serial = api.search([graph], depths=FIG5_P, config=replace(config, workers=0))
    depth = serial.depth_results[FIG5_P - 1]
    seconds = [evaluation.seconds for evaluation in depth.evaluations]
    validation: dict[int, tuple[float, float]] = {}
    if available_cores() >= 2:
        parallel = api.search([graph], depths=FIG5_P, config=replace(config, workers=2))
        validation[2] = (parallel.depth_results[FIG5_P - 1].seconds, _replayed(seconds, 2))
    return Fig5Result(
        core_counts=list(core_counts),
        simulated_seconds=[_replayed(seconds, workers) for workers in core_counts],
        serial_seconds=depth.seconds,
        validation=validation,
    )
