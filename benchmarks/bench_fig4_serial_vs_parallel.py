"""Fig. 4 — serial vs parallel search time vs QAOA depth.

Paper protocol (§3.1): the NAS inner loop over rotation-gate combinations,
run serially and with multiprocessing ``starmap_async``, for p = 1..4,
averaged over five runs on different 10-node ER graphs. Claim: "in the
case of parallel the run time is improved by over 50%" (on a 32+-core
Polaris node; on a 2-core box the ideal bound is 50%, so the CI assertion
is that parallel wins at every depth and by a margin consistent with the
core count).

Here both arms are ``repro.api.search`` sweeps, ``workers=0`` against the
leased fleet of every core, each after one untimed first sweep whose wall
time is reported as the arm's start-up cost.
"""

from __future__ import annotations

from repro.api import Config
from repro.experiments.figures import render_series
from repro.experiments.profiling import run_fig4
from repro.experiments.records import ExperimentRecord
from repro.experiments.scale import get_scale
from repro.graphs.datasets import paper_er_dataset
from repro.parallel.executor import available_cores


def bench_fig4_serial_vs_parallel(once):
    scale = get_scale()
    run_graphs = paper_er_dataset(scale.num_runs)
    config = Config(
        k_max=4, mode="sequences", num_samples=scale.num_candidates,
        steps=scale.max_steps, seed=0,
    )

    result = once(lambda: run_fig4(run_graphs, p_max=scale.p_max, config=config))

    print("\n=== Fig. 4: time to simulate vs depth (seconds) ===")
    print(
        render_series(
            "p",
            result.p_values,
            {
                "serial": result.serial_seconds,
                "parallel": result.parallel_seconds,
                "improvement": result.improvement,
            },
        )
    )
    print(
        f"start-up (untimed first sweep, p=1): serial {result.startup_seconds['serial']:.3f}s, "
        f"parallel {result.startup_seconds['parallel']:.3f}s"
    )
    print(
        f"(workers={result.num_workers}, runs={len(run_graphs)}, "
        f"candidates/depth={scale.num_candidates}, scale={scale.name})"
    )

    # Shape assertions: parallel wins at every depth; time grows with p.
    for serial, parallel in zip(result.serial_seconds, result.parallel_seconds):
        assert parallel < serial, "parallel search must beat serial"
    assert result.serial_seconds[-1] > result.serial_seconds[0], (
        "search time must grow with depth"
    )
    # Improvement should approach the machine's parallel bound at the
    # deepest (most work-rich) depth. The paper's >50% holds on many-core
    # nodes; a 2-core box caps the ideal at 50% and the harness process
    # itself competes for a core, so expect a modest-but-real win there.
    min_expected = 0.15 if available_cores() <= 2 else 0.5
    assert result.improvement[-1] >= min_expected

    ExperimentRecord(
        experiment="fig4",
        paper_claim="parallel search >50% faster than serial, both growing with p",
        parameters={
            "scale": scale.name,
            "p_values": result.p_values,
            "num_candidates": scale.num_candidates,
            "num_runs": len(run_graphs),
            "max_steps": config.steps,
            "workers": result.num_workers,
        },
        measured={
            "serial_seconds": result.serial_seconds,
            "parallel_seconds": result.parallel_seconds,
            "improvement": result.improvement,
            "startup_seconds": result.startup_seconds,
        },
        verdict=(
            f"parallel wins at every p; improvement at p={result.p_values[-1]} "
            f"is {result.improvement[-1]:.0%} on {result.num_workers} cores"
        ),
    ).save()
