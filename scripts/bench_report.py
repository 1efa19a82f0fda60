#!/usr/bin/env python
"""Emit the machine-readable evaluator throughput report, gated on trend.

Measures per-engine energy-evaluation throughput (evals/sec) on the paper
workload — a 10-qubit ER graph at p=4 with the winning ``('rx', 'ry')``
mixer — the compiled engine's throughput per registered *array backend*
(numpy / mock_gpu / cupy-when-installed, so GPU trajectories accrue in
the same artifact), per registered *workload* (maxcut / wmaxcut / maxsat /
ising — each problem's phase diagonal costs differently), plus the
batched-optimizer path (one vectorized ``energies`` call over a restart
population's probes), and writes
``benchmarks/results/BENCH_evaluator.json`` so the perf trajectory is
tracked as a committed artifact, run by run, instead of living in bench
stdout. Each passing run also appends a compact per-commit row under
``benchmarks/results/history/`` (keyed by ``git rev-parse --short HEAD``)
so the trajectory survives artifact rewrites.

Run from the repo root (CI's bench-smoke job does)::

    python scripts/bench_report.py

Exits non-zero if

* the compiled engine is not at least as fast as the dense statevector
  engine (the floor that keeps the default fast path from silently
  regressing below the oracle it replaced), or
* compiled per-eval throughput (normalized by the same run's statevector
  oracle, so machine speed cancels) regressed more than
  ``MAX_REGRESSION_FRACTION`` against the *committed* report — the
  perf-trend gate, or
* any workload's throughput trajectory fitted across the accrued
  ``history/`` rows (normalized per row by its statevector oracle)
  declines more than ``MAX_SLOPE_DECLINE_FRACTION`` end to end — the
  slope gate, which catches slow bleeds the single-baseline cliff gate
  cannot. Set ``QARCH_BENCH_TREND=off`` to skip both trend gates; the
  committed artifact is only rewritten when the gates pass.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_SRC = "src"
sys.path.insert(0, REPO_SRC)

import numpy as np  # noqa: E402

from repro.experiments.scale import (  # noqa: E402
    measure_array_backends,
    paper_probe_workload,
    seconds_per_eval,
)
from repro.optimizers import SPSA  # noqa: E402
from repro.qaoa.ansatz import build_qaoa_ansatz  # noqa: E402
from repro.qaoa.energy import ENGINES, AnsatzEnergy  # noqa: E402
from repro.workloads import available_workloads, get_workload  # noqa: E402

OUTPUT = Path("benchmarks/results/BENCH_evaluator.json")
HISTORY_DIR = Path("benchmarks/results/history")

#: per-workload throughput probe: smaller than the engine probe (p=2, and
#: one sample per registered problem) so the report stays CI-cheap
WORKLOAD_TIMED_EVALS = 60
WORKLOAD_P = 2

TIMED_EVALS = 150
#: batched-path sample: restarts in the probe population / SPSA steps
BATCH_RESTARTS = 8
BATCH_ITERS = 40
#: trend gate: fail when fresh compiled per-eval throughput drops more
#: than this fraction below the committed baseline
MAX_REGRESSION_FRACTION = 0.30
#: slope gate: fail when a workload's fitted throughput trajectory across
#: the history rows declines more than this fraction end to end
MAX_SLOPE_DECLINE_FRACTION = 0.30
#: slope gate activates once this many history rows carry a workload's
#: series (a line through two points is noise, not a trend)
MIN_TREND_ROWS = 3
#: slope gate window: only the most recent rows count, so one ancient
#: outlier can't dominate the fit forever
TREND_WINDOW = 10


def measure(engine: str, ansatz, x: np.ndarray) -> dict:
    energy = AnsatzEnergy(ansatz, engine=engine)
    value = energy.value(x)
    seconds = seconds_per_eval(energy, x, TIMED_EVALS)
    return {
        "seconds_per_eval": seconds,
        "evals_per_sec": 1.0 / seconds,
        "timed_evals": TIMED_EVALS,
        "energy_at_probe": value,
    }


def measure_workloads() -> dict:
    """Compiled-engine throughput per registered workload.

    Each problem contributes one 10-node instance from its own dataset
    family at p=WORKLOAD_P with the winning mixer; the phase diagonal is
    the only thing that differs, so these rows track the per-workload
    cost of the table builders (weighted cuts, clause tables, couplings)
    relative to the paper's MaxCut.
    """
    rows = {}
    for key in available_workloads():
        problem = get_workload(key)
        graph = problem.dataset(1, num_nodes=10, dataset_seed=7)[0]
        ansatz = build_qaoa_ansatz(graph, WORKLOAD_P, ("rx", "ry"), workload=key)
        energy = AnsatzEnergy(ansatz, engine="compiled")
        x = np.random.default_rng(0).uniform(-1.0, 1.0, ansatz.num_parameters)
        seconds = seconds_per_eval(energy, x, WORKLOAD_TIMED_EVALS)
        rows[key] = {
            "seconds_per_eval": seconds,
            "evals_per_sec": 1.0 / seconds,
            "timed_evals": WORKLOAD_TIMED_EVALS,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "p": WORKLOAD_P,
            "energy_at_probe": energy.value(x),
        }
    return rows


def append_history(report: dict) -> Path:
    """Write the compact per-commit row under ``benchmarks/results/history/``.

    One small JSON file per commit (short hash in the name, rewritten on
    re-runs of the same commit) holding just the headline numbers, so the
    throughput trajectory accrues across commits even though the main
    artifact is rewritten in place each run.
    """
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "uncommitted"
    row = {
        "commit": commit,
        "generated_unix": report["generated_unix"],
        "compiled_vs_statevector_speedup": report[
            "compiled_vs_statevector_speedup"
        ],
        "compiled_evals_per_sec": report["engines"]["compiled"]["evals_per_sec"],
        "statevector_evals_per_sec": report["engines"]["statevector"][
            "evals_per_sec"
        ],
        "batched_vs_serial_speedup": report["batched_optimizer"][
            "batched_vs_serial_speedup"
        ],
        "workload_evals_per_sec": {
            key: entry["evals_per_sec"]
            for key, entry in report["workloads"].items()
        },
        "machine": report["machine"],
        "python": report["python"],
    }
    HISTORY_DIR.mkdir(parents=True, exist_ok=True)
    path = HISTORY_DIR / f"{commit}.json"
    path.write_text(json.dumps(row, indent=2) + "\n")
    return path


def measure_batched_optimizer(ansatz) -> dict:
    """Points/sec of batched vs serial multi-restart SPSA (the optimizer
    stack's fast path vs the loop-per-point path it replaced), through the
    gate bench's shared timing harness at a smaller CI-cheap budget."""
    sys.path.insert(0, "benchmarks")
    from bench_batched_optimizers import time_multi_restart

    negated = AnsatzEnergy(ansatz, engine="compiled").negative_objective()
    X0 = np.random.default_rng(11).uniform(
        -0.5, 0.5, (BATCH_RESTARTS, ansatz.num_parameters)
    )
    negated.values(X0)  # warm lazy lookups off-clock
    rows = {}
    for mode in ("serial", "batched"):
        timed = time_multi_restart(
            SPSA(maxiter=BATCH_ITERS, seed=0), negated, X0,
            batch_mode=mode, repeats=1,
        )
        rows[mode] = {
            "seconds": timed["seconds"],
            "trained_points": timed["nfev"],
            "points_per_sec": timed["points_per_sec"],
        }
    rows["batched_vs_serial_speedup"] = (
        rows["serial"]["seconds"] / rows["batched"]["seconds"]
    )
    rows["restarts"] = BATCH_RESTARTS
    rows["spsa_iters"] = BATCH_ITERS
    return rows


def check_trend(engines: dict) -> str:
    """Compare against the committed baseline; raise on deep regression.

    The gated quantity is compiled throughput *normalized by the same
    run's statevector throughput* — a pure code-speed ratio. Comparing
    raw evals/sec across the committing machine and a CI runner would
    gate hardware, not code: any runner 30% slower than the dev box would
    fail with zero code change. The oracle engine is untouched by fast-
    path work, so the ratio cancels machine speed while still catching
    real compiled-path regressions against the committed report.
    """
    if os.environ.get("QARCH_BENCH_TREND", "enforce") == "off":
        return "trend gate skipped (QARCH_BENCH_TREND=off)"
    if not OUTPUT.exists():
        return "no committed baseline; trend gate skipped"
    baseline = json.loads(OUTPUT.read_text())
    base_engines = baseline.get("engines", {})
    try:
        base_ratio = (
            base_engines["compiled"]["evals_per_sec"]
            / base_engines["statevector"]["evals_per_sec"]
        )
    except (KeyError, ZeroDivisionError):
        return "committed baseline lacks engine throughputs; trend skipped"
    fresh_ratio = (
        engines["compiled"]["evals_per_sec"]
        / engines["statevector"]["evals_per_sec"]
    )
    change = (fresh_ratio - base_ratio) / base_ratio
    message = (
        f"compiled/statevector throughput ratio {fresh_ratio:.1f} vs "
        f"committed {base_ratio:.1f} ({change:+.1%})"
    )
    assert change >= -MAX_REGRESSION_FRACTION, (
        f"{message} — regression exceeds the "
        f"{MAX_REGRESSION_FRACTION:.0%} trend gate"
    )
    return message


def check_history_trend(report: dict) -> str:
    """Fit per-workload throughput slopes across the history rows.

    The cliff gate (``check_trend``) only sees the committed artifact —
    one sample — so a sequence of small regressions, each inside the 30%
    tolerance, can compound unchecked as the artifact ratchets downward.
    This gate reads the accrued per-commit rows under ``history/``, fits
    a least-squares line through each workload's normalized throughput
    (workload evals/sec divided by the same row's statevector evals/sec,
    so machine speed cancels row by row), and fails when the fitted line
    declines more than ``MAX_SLOPE_DECLINE_FRACTION`` end to end across
    the window — a slow bleed the cliff gate cannot see.
    """
    if os.environ.get("QARCH_BENCH_TREND", "enforce") == "off":
        return "history slope gate skipped (QARCH_BENCH_TREND=off)"
    rows = []
    for path in sorted(HISTORY_DIR.glob("*.json")):
        try:
            row = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if "workload_evals_per_sec" in row and row.get(
            "statevector_evals_per_sec"
        ):
            rows.append(row)
    rows.sort(key=lambda row: row.get("generated_unix", 0.0))
    # the fresh (not-yet-committed) run is the newest point on every line
    fresh = {
        "generated_unix": report["generated_unix"],
        "statevector_evals_per_sec": report["engines"]["statevector"][
            "evals_per_sec"
        ],
        "workload_evals_per_sec": {
            key: entry["evals_per_sec"]
            for key, entry in report["workloads"].items()
        },
    }
    rows = rows[-(TREND_WINDOW - 1):] + [fresh]
    if len(rows) < MIN_TREND_ROWS:
        return (
            f"history slope gate inactive ({len(rows)} rows, "
            f"needs {MIN_TREND_ROWS})"
        )
    lines = []
    for key in sorted(fresh["workload_evals_per_sec"]):
        series = [
            (
                row["generated_unix"],
                row["workload_evals_per_sec"][key]
                / row["statevector_evals_per_sec"],
            )
            for row in rows
            if key in row.get("workload_evals_per_sec", {})
        ]
        if len(series) < MIN_TREND_ROWS:
            continue
        xs = np.array([point[0] for point in series])
        ys = np.array([point[1] for point in series])
        slope, intercept = np.polyfit(xs - xs[0], ys, 1)
        start = intercept
        end = intercept + slope * (xs[-1] - xs[0])
        decline = (start - end) / start if start > 0 else 0.0
        lines.append(f"{key}: fitted {start:.2f} -> {end:.2f} ({-decline:+.1%})")
        assert decline <= MAX_SLOPE_DECLINE_FRACTION, (
            f"workload {key!r} throughput trend declined {decline:.1%} "
            f"across {len(series)} history rows — exceeds the "
            f"{MAX_SLOPE_DECLINE_FRACTION:.0%} slope gate"
        )
    return "history slope gate: " + "; ".join(lines)


def main() -> int:
    graph, ansatz, x = paper_probe_workload()

    engines = {engine: measure(engine, ansatz, x) for engine in ENGINES}
    speedup = (
        engines["statevector"]["seconds_per_eval"]
        / engines["compiled"]["seconds_per_eval"]
    )
    for engine, row in engines.items():
        print(f"{engine:>12}: {row['evals_per_sec']:10.1f} evals/s")

    # Per-array-backend axis (the GPU trajectory): the shared harness
    # asserts cross-backend equivalence at the probe point.
    array_backends = measure_array_backends(ansatz, x, TIMED_EVALS)
    for name, row in array_backends.items():
        print(f"{'compiled[' + name + ']':>22}: {row['evals_per_sec']:10.1f} evals/s")
        backend_drift = abs(
            row["energy_at_probe"] - engines["compiled"]["energy_at_probe"]
        )
        assert backend_drift < 1e-10, (
            f"array backend {name!r} disagrees with the engine row's "
            f"probe energy ({backend_drift:.3g})"
        )

    workloads = measure_workloads()
    for key, row in workloads.items():
        print(f"{'workload[' + key + ']':>22}: {row['evals_per_sec']:10.1f} evals/s")

    batched = measure_batched_optimizer(ansatz)
    print(
        f"batched multi-restart SPSA: "
        f"{batched['batched']['points_per_sec']:10.1f} points/s "
        f"({batched['batched_vs_serial_speedup']:.1f}x over serial)"
    )

    # Gate before writing: a failing run must not overwrite the committed
    # trajectory artifact with a broken engine's numbers.
    drift = abs(
        engines["compiled"]["energy_at_probe"]
        - engines["statevector"]["energy_at_probe"]
    )
    assert drift < 1e-10, f"engines disagree at the probe point ({drift:.3g})"
    assert speedup >= 1.0, (
        f"compiled engine slower than statevector ({speedup:.2f}x) — "
        "the default fast path has regressed"
    )
    print(check_trend(engines))

    report = {
        "benchmark": "evaluator_throughput",
        "workload": {
            "num_nodes": graph.num_nodes,
            "p": ansatz.p,
            "tokens": list(ansatz.mixer_tokens),
            "num_edges": graph.num_edges,
        },
        "engines": engines,
        "array_backends": array_backends,
        "workloads": workloads,
        "compiled_vs_statevector_speedup": speedup,
        "batched_optimizer": batched,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "generated_unix": time.time(),
    }
    print(check_history_trend(report))
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    history_path = append_history(report)
    print(f"compiled vs statevector: {speedup:.1f}x  ->  {OUTPUT}")
    print(f"history row -> {history_path}")
    print("bench report OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
