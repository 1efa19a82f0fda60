"""Performance-profiling drivers: Figs. 4 and 5 (§3.1).

Fig. 4 — "Time to simulate circuits with serial and parallel quantum NAS
procedure", depth on the x-axis, averaged over five runs on different ER
graphs. Both arms really execute here: the serial arm uses
:class:`SerialExecutor`, the parallel arm the paper's ``starmap_async``
fan-out over :class:`MultiprocessingExecutor`'s process pool.

Fig. 5 — "Time to simulate a graph with p = 2 with different number of
cores" (8..64 in steps of 8) against a dashed serial line. Core counts
beyond this machine are *replayed* through the measured-duration scheduler
(:mod:`repro.parallel.scheduler`); the worker counts that do exist here
are cross-validated against real pool runs.

Both figures train through :func:`evaluate_candidate` with the config's
simulation engine (default: the compiled NumPy engine of
:mod:`repro.simulators.compiled`), so profiling numbers track the same
fast path the search itself runs on.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.alphabet import GateAlphabet, enumerate_search_space
from repro.core.evaluator import EvaluationConfig, classical_optima, evaluate_candidate
from repro.graphs.generators import Graph
from repro.parallel.executor import MultiprocessingExecutor, SerialExecutor, available_cores
from repro.parallel.scheduler import OverheadModel, simulate_core_sweep, simulate_makespan

__all__ = [
    "Fig4Result",
    "Fig5Result",
    "candidate_bag",
    "measure_candidate_durations",
    "run_fig4",
    "run_fig5",
]


def candidate_bag(
    alphabet: GateAlphabet, k_max: int, num_candidates: int | None
) -> list[tuple[str, ...]]:
    """The fixed, deterministic candidate set a profiling run sweeps.

    Full enumeration (the paper's serial profiling examined "every possible
    rotation gate combination") truncated to ``num_candidates`` for the
    scaled presets.
    """
    space = enumerate_search_space(alphabet, k_max, mode="sequences")
    return space if num_candidates is None else space[:num_candidates]


def measure_candidate_durations(
    graph: Graph,
    p: int,
    candidates: Sequence[tuple[str, ...]],
    config: EvaluationConfig,
) -> list[float]:
    """Serial per-candidate training times — the task bag Fig. 5 replays."""
    classical = classical_optima([graph])
    durations = []
    for tokens in candidates:
        start = time.perf_counter()
        evaluate_candidate([graph], tokens, p, config, classical)
        durations.append(time.perf_counter() - start)
    return durations


@dataclass
class Fig4Result:
    """Mean serial/parallel search times per depth."""

    p_values: list[int]
    serial_seconds: list[float]  # mean over runs
    parallel_seconds: list[float]
    num_workers: int
    per_run_serial: list[list[float]] = field(default_factory=list)  # [run][p]
    per_run_parallel: list[list[float]] = field(default_factory=list)

    @property
    def improvement(self) -> list[float]:
        """Fractional time reduction per depth (paper: >50%)."""
        return [
            1.0 - par / ser if ser > 0 else 0.0
            for ser, par in zip(self.serial_seconds, self.parallel_seconds)
        ]


def run_fig4(
    run_graphs: Sequence[Graph],
    *,
    p_values: Sequence[int] = (1, 2, 3, 4),
    candidates: Sequence[tuple[str, ...]],
    config: EvaluationConfig,
    num_workers: int | None = None,
) -> Fig4Result:
    """Time the depth sweep serially and in parallel, one run per graph.

    Matches the paper's protocol: each run is the NAS inner loop on a
    different ER graph; reported times are means across runs.
    """
    num_workers = num_workers or available_cores()
    per_run_serial: list[list[float]] = []
    per_run_parallel: list[list[float]] = []

    serial = SerialExecutor()
    for graph in run_graphs:
        # Hoisted once per graph — the brute-force solve is candidate-
        # independent and must not be re-paid inside every task.
        classical = classical_optima([graph])
        row = []
        for p in p_values:
            jobs = [([graph], tokens, p, config, classical) for tokens in candidates]
            start = time.perf_counter()
            serial.starmap(evaluate_candidate, jobs)
            row.append(time.perf_counter() - start)
        per_run_serial.append(row)

    with MultiprocessingExecutor(num_workers) as pool:
        for graph in run_graphs:
            classical = classical_optima([graph])
            row = []
            for p in p_values:
                jobs = [
                    ([graph], tokens, p, config, classical) for tokens in candidates
                ]
                start = time.perf_counter()
                pool.starmap(evaluate_candidate, jobs)
                row.append(time.perf_counter() - start)
            per_run_parallel.append(row)

    return Fig4Result(
        p_values=list(p_values),
        serial_seconds=list(np.mean(per_run_serial, axis=0)),
        parallel_seconds=list(np.mean(per_run_parallel, axis=0)),
        num_workers=num_workers,
        per_run_serial=per_run_serial,
        per_run_parallel=per_run_parallel,
    )


@dataclass
class Fig5Result:
    """Measured serial time plus simulated (and validated) core scaling."""

    core_counts: list[int]
    simulated_seconds: list[float]
    serial_seconds: float  # the dashed red line
    #: real pool validation points: workers -> (measured, simulated)
    validation: dict[int, tuple[float, float]] = field(default_factory=dict)

    @property
    def best_fraction_of_serial(self) -> float:
        """min simulated time / serial time (paper quotes 0.76x faster)."""
        return min(self.simulated_seconds) / self.serial_seconds


def run_fig5(
    graph: Graph,
    *,
    p: int = 2,
    candidates: Sequence[tuple[str, ...]],
    config: EvaluationConfig,
    core_counts: Sequence[int] = (8, 16, 24, 32, 40, 48, 56, 64),
    overhead: OverheadModel = OverheadModel(worker_startup=0.15, dispatch_per_task=0.002),
    validate_workers: Sequence[int] | None = None,
) -> Fig5Result:
    """Measure the p=2 task bag once, replay it on each core count.

    ``validate_workers`` (default: every count <= the machine's cores) also
    runs the real process pool so the simulator's prediction can be checked
    against reality where reality exists.
    """
    durations = measure_candidate_durations(graph, p, candidates, config)
    serial_seconds = float(np.sum(durations))
    sweep = simulate_core_sweep(durations, core_counts, overhead=overhead)
    simulated = [r.makespan for r in sweep]

    if validate_workers is None:
        validate_workers = [w for w in (2,) if w <= available_cores()]
    classical = classical_optima([graph])
    validation: dict[int, tuple[float, float]] = {}
    for workers in validate_workers:
        jobs = [([graph], tokens, p, config, classical) for tokens in candidates]
        start = time.perf_counter()
        with MultiprocessingExecutor(workers) as pool:
            pool.starmap(evaluate_candidate, jobs)
        measured = time.perf_counter() - start
        predicted = simulate_makespan(durations, workers, overhead=overhead).makespan
        validation[workers] = (measured, predicted)

    return Fig5Result(
        core_counts=list(core_counts),
        simulated_seconds=simulated,
        serial_seconds=serial_seconds,
        validation=validation,
    )
