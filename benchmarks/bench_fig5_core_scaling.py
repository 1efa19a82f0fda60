"""Fig. 5 — time to search one graph at p=2 vs core count (8..64).

Paper protocol (§3.1): one 10-node ER graph, p = 2, cores swept 8..64 in
steps of 8, against a dashed serial-time line; the parallel version is
quoted as "0.76 times faster" than serial.

Substitution: per-candidate seconds are *measured* by a serial
``repro.api.search`` sweep; their placement on 8..64 cores is replayed with
the runtime's own least-loaded rule, and the replay is checked against a
real two-worker sweep where this machine has two cores.
"""

from __future__ import annotations

from repro.api import Config
from repro.experiments.figures import render_series, render_table
from repro.experiments.profiling import run_fig5
from repro.experiments.records import ExperimentRecord
from repro.experiments.scale import get_scale
from repro.graphs.datasets import profiling_graph

PAPER_CORE_COUNTS = (8, 16, 24, 32, 40, 48, 56, 64)


def bench_fig5_core_scaling(once):
    scale = get_scale()
    graph = profiling_graph()
    config = Config(
        k_max=4, mode="sequences", num_samples=scale.num_candidates,
        steps=scale.max_steps, seed=0,
    )

    result = once(lambda: run_fig5(graph, config=config, core_counts=PAPER_CORE_COUNTS))

    print("\n=== Fig. 5: time to simulate at p=2 vs cores (seconds) ===")
    print(
        render_series(
            "cores",
            result.core_counts,
            {"replayed": result.simulated_seconds},
        )
    )
    print(f"serial reference (dashed line): {result.serial_seconds:.3f}s")
    print(f"best parallel / serial: {result.best_fraction_of_serial:.2f}")
    if result.validation:
        rows = [
            [w, measured, predicted, abs(measured - predicted) / measured]
            for w, (measured, predicted) in sorted(result.validation.items())
        ]
        print("\nreplay validation against a real sweep:")
        print(render_table(["workers", "measured", "predicted", "rel_err"], rows))

    # Shape assertions: monotone non-increasing with cores; all parallel
    # points beat serial; significant reduction at 64 cores.
    times = result.simulated_seconds
    assert all(a >= b - 1e-9 for a, b in zip(times, times[1:]))
    assert max(times) < result.serial_seconds
    assert result.best_fraction_of_serial < 0.5
    # validation: simulated W-worker time in the same regime as a real pool
    # run (15% in isolation; the bound is loose because back-to-back bench
    # runs contend for this box's two cores and inflate the measured side)
    for workers, (measured, predicted) in result.validation.items():
        assert abs(measured - predicted) / measured < 0.75, (
            f"simulator off by >75% at {workers} workers"
        )

    ExperimentRecord(
        experiment="fig5",
        paper_claim="near-monotone speedup from 8 to 64 cores; parallel ~0.76x reduction vs serial",
        parameters={
            "scale": scale.name,
            "p": 2,
            "num_candidates": scale.num_candidates,
            "core_counts": list(PAPER_CORE_COUNTS),
        },
        measured={
            "serial_seconds": result.serial_seconds,
            "simulated_seconds": result.simulated_seconds,
            "best_fraction_of_serial": result.best_fraction_of_serial,
            "validation": {str(k): v for k, v in result.validation.items()},
        },
        verdict=(
            f"monotone scaling; best parallel time is "
            f"{result.best_fraction_of_serial:.2f}x of serial"
        ),
    ).save()
