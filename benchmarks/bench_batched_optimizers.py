"""Batched multi-restart training vs the per-point loop it replaces.

Not a paper figure: this bench guards the tentpole perf claim of the
batch-native optimizer stack. The workload is the acceptance scenario — a
10-qubit ER graph with the winning ``('rx', 'ry')`` mixer at depth p=4
(the same probe every engine bench uses) — trained by multi-restart SPSA
with K=8 seeds. The batched path pushes each iteration's 2K ± probes
through one :meth:`CompiledProgram.energies` call; the serial path is the
historical loop of K independent trainings, one scalar energy call per
point. Identical trajectories (the batched lockstep replays the serial
perturbation streams), so the wall-clock ratio is pure batching win. The
claim: >=3x.

A second row guards the graph axis: one candidate on 4 graphs with one
restart each — how a sweep trains it — as one population through a single
grouped engine call per step, against the four per-graph trainings it
replaces. The results must be *equal* (bit for bit) before anything is
timed; the claim: >=1.2x.

Runs standalone (``python benchmarks/bench_batched_optimizers.py``) or
under pytest-benchmark via the shared ``once`` fixture. The workload is
pinned at paper scale regardless of ``QARCH_BENCH_SCALE`` — a single
candidate, cheap enough for CI — so the committed numbers stay comparable
across machines.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.records import ExperimentRecord
from repro.experiments.scale import paper_probe_workload
from repro.graphs.datasets import paper_er_dataset
from repro.optimizers import SPSA, MultiRestart, NelderMead
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qaoa.energy import AnsatzEnergy, NegatedPopulation

RESTARTS = 8
SPSA_ITERS = 100
NM_ITERS = 120
#: best-of repetitions per path, serial/batched interleaved so a load
#: spike on a shared CI core hits both sides instead of skewing the ratio
TIMING_REPEATS = 5
MIN_SPEEDUP = 3.0
#: Nelder–Mead's batch is narrower (one reflection per restart vs SPSA's
#: 2K block) and its lockstep pays per-restart bookkeeping, so its gate is
#: informational-loose; SPSA carries the acceptance claim
MIN_NM_SPEEDUP = 1.2
#: the cross-graph row: graphs of one candidate, SPSA iterations, the gate
GROUP_GRAPHS = 4
GROUP_ITERS = 30
MIN_GROUP_SPEEDUP = 1.2


def _population(num_parameters: int) -> np.ndarray:
    return np.random.default_rng(11).uniform(
        -0.5, 0.5, (RESTARTS, num_parameters)
    )


def time_multi_restart(
    base, negated, X0: np.ndarray, *, batch_mode: str, repeats: int = 1
) -> dict:
    """Best-of-``repeats`` wall-clock of one multi-restart training run.

    Shared harness: this bench's serial-vs-batched gate and
    ``scripts/bench_report.py``'s committed throughput report both time
    through here, so the two can never measure differently.
    """
    meta = MultiRestart(base, batch_mode=batch_mode)
    best_seconds = np.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = meta.minimize_population(negated, X0, batch_fn=negated.values)
        best_seconds = min(best_seconds, time.perf_counter() - start)
    return {
        "seconds": best_seconds,
        "nfev": result.nfev,
        "points_per_sec": result.nfev / best_seconds,
        "best_energy": -result.fun,
    }


def _best_of(previous: dict | None, fresh: dict) -> dict:
    return fresh if previous is None or fresh["seconds"] < previous["seconds"] else previous


def run_group_bench() -> dict:
    """One candidate's graphs as one population vs. graph after graph."""
    objectives = [
        AnsatzEnergy(build_qaoa_ansatz(graph, 3, ("rx", "ry")), engine="compiled")
        for graph in paper_er_dataset(GROUP_GRAPHS)
    ]
    X0 = np.random.default_rng(11).uniform(-0.5, 0.5, (GROUP_GRAPHS, 6))
    meta = MultiRestart(SPSA(maxiter=GROUP_ITERS, seed=0))

    def grouped() -> list:
        population = NegatedPopulation(objectives, np.arange(GROUP_GRAPHS))
        return meta.minimize_population(population, X0).sub_results

    def per_graph() -> list:
        return [
            meta.minimize_population(objective.negative_objective(), x0[None, :])
            for objective, x0 in zip(objectives, X0)
        ]

    for one, alone in zip(grouped(), per_graph()):  # also warms both paths
        assert one.fun == alone.fun and one.nfev == alone.nfev, "the paths diverged"
        assert one.x.tobytes() == alone.x.tobytes() and one.history == alone.history
    seconds = {"grouped": np.inf, "per_graph": np.inf}
    for _ in range(TIMING_REPEATS):
        for label, path in (("per_graph", per_graph), ("grouped", grouped)):
            start = time.perf_counter()
            path()
            seconds[label] = min(seconds[label], time.perf_counter() - start)
    return {
        **seconds,
        "speedup": seconds["per_graph"] / seconds["grouped"],
        "min_speedup": MIN_GROUP_SPEEDUP,
    }


def run_bench() -> dict:
    graph, ansatz, _ = paper_probe_workload()
    energy = AnsatzEnergy(ansatz, engine="compiled")
    negated = energy.negative_objective()
    X0 = _population(ansatz.num_parameters)

    # Warm both evaluation paths (compile, lazy diag lookups) off-clock.
    negated(X0[0])
    negated.values(X0)

    measured: dict = {}
    for label, base, gate in (
        ("spsa", SPSA(maxiter=SPSA_ITERS, seed=0), MIN_SPEEDUP),
        ("nelder_mead", NelderMead(maxiter=NM_ITERS), MIN_NM_SPEEDUP),
    ):
        serial = batched = None
        for _ in range(TIMING_REPEATS):
            serial = _best_of(
                serial, time_multi_restart(base, negated, X0, batch_mode="serial")
            )
            batched = _best_of(
                batched, time_multi_restart(base, negated, X0, batch_mode="batched")
            )
        speedup = serial["seconds"] / batched["seconds"]
        # SPSA's point budget is fixed (2 evals/iteration regardless of
        # values), so serial and batched must train identical counts.
        # Nelder-Mead's branch predicates compare energies computed by
        # different kernels on the two paths (scalar state() vs the
        # batch-major kernels, equal only to ~1e-15); a 1-ulp tie can
        # legitimately flip a branch and change the eval count, so its
        # budgets are not asserted — only the minima, within tolerance.
        if label == "spsa":
            assert serial["nfev"] == batched["nfev"], (
                f"{label}: serial trained {serial['nfev']} points but "
                f"batched trained {batched['nfev']} — the paths diverged"
            )
        drift = abs(serial["best_energy"] - batched["best_energy"])
        assert drift < 1e-6, (
            f"{label}: batched best energy drifted {drift:.3g} from serial"
        )
        measured[label] = {
            "serial": serial,
            "batched": batched,
            "speedup": speedup,
            "min_speedup": gate,
        }

    print(
        f"\n=== Batched multi-restart training (10 qubits, p=4, rx-ry, "
        f"K={RESTARTS}) ==="
    )
    for label, row in measured.items():
        print(
            f"{label:>12}: serial {row['serial']['seconds']:6.2f}s  "
            f"batched {row['batched']['seconds']:6.2f}s  "
            f"({row['batched']['points_per_sec']:8.0f} points/s batched)  "
            f"speedup {row['speedup']:.1f}x"
        )

    group = run_group_bench()
    print(
        f"{GROUP_GRAPHS} graphs: per graph {group['per_graph'] * 1e3:6.1f}ms  "
        f"grouped {group['grouped'] * 1e3:6.1f}ms  speedup {group['speedup']:.2f}x"
    )
    assert group["speedup"] >= group["min_speedup"], (
        f"one population over {GROUP_GRAPHS} graphs only {group['speedup']:.2f}x "
        f"faster than graph after graph (required: {group['min_speedup']:.1f}x)"
    )

    for label, row in measured.items():
        assert row["speedup"] >= row["min_speedup"], (
            f"batched {label} multi-restart only {row['speedup']:.1f}x "
            f"faster than {RESTARTS} serial runs "
            f"(required: {row['min_speedup']:.1f}x)"
        )

    ExperimentRecord(
        experiment="batched_optimizers",
        paper_claim=(
            "per-candidate training dominates search wall-clock; batching "
            "a restart population's probes into single vectorized energy "
            "calls makes multi-restart SPSA >=3x faster"
        ),
        parameters={
            "num_nodes": graph.num_nodes,
            "p": ansatz.p,
            "tokens": list(ansatz.mixer_tokens),
            "restarts": RESTARTS,
            "spsa_iters": SPSA_ITERS,
            "nelder_mead_iters": NM_ITERS,
        },
        measured={**measured, "graph_group": group},
        verdict=(
            f"batched multi-restart SPSA is "
            f"{measured['spsa']['speedup']:.1f}x faster than {RESTARTS} "
            f"serial runs (nelder_mead: "
            f"{measured['nelder_mead']['speedup']:.1f}x); one candidate's "
            f"{GROUP_GRAPHS} graphs as one population: {group['speedup']:.2f}x"
        ),
    ).save()
    return {label: row["speedup"] for label, row in measured.items()}


def bench_batched_optimizers(once):
    once(run_bench)


if __name__ == "__main__":
    run_bench()
