"""The repo's benchmark: one command, every metric by name, outputs checked.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
                                  [--seconds S] [--trace [0|1]]
                                  [--compare A.json B.json]

Without ``--workload`` all five workloads run. ``--trace 0`` (the default)
takes the end-to-end metrics with no wrappers installed; ``--trace 1`` takes
the per-layer metrics from a shorter untraced run plus a traced pass; a bare
``--trace`` does both. Results go to ``benchmarks/e2e/results/latest.json``
and traces to ``results/trace-<workload>.jsonl``. When exactly one workload
ran, the last line of standard output is the one-object summary the
benchmark driver reads. The exit code is non-zero when any operation failed
or any correctness check did not hold. See README.md.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Started as a script, sys.path[0] is this directory, where trace.py would
# shadow the standard library's. Import the harness as the package ``e2e``
# and the program from the checkout's ``src``.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

from e2e import check, speed, stats  # noqa: E402
from e2e.layers import LAYER_METRICS, SpanTable, per_layer  # noqa: E402
from e2e.trace import Tracer, install  # noqa: E402
from e2e.workloads import WORKLOADS, Recorder, fixed, no_phase, time_box  # noqa: E402

RESULTS = HERE / "results"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}

#: complete set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3


@contextmanager
def scratch_dir():
    """Temporary files stay inside the checkout and never outlive the run."""
    RESULTS.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def gate(workload, seed: int, rec: Recorder) -> None:
    """The checks every run ends with, whatever the workload."""
    first = [s for s in rec.sweeps["fresh"] if s.spec.config.seed == seed]
    if not first:
        raise RuntimeError(f"sweep 0 of {workload.name} did not complete: {rec.failures}")
    rec.check("golden.json", check.golden_problem(workload.name, seed, first[0].result))
    rec.check("compiled vs statevector", check.oracle_problem(seed))


def end_to_end(workload, rec: Recorder, setups: list[speed.Stretch]) -> dict:
    """Every timing is in reference-box seconds, over the stretches the
    machine ran at one speed (see :mod:`e2e.speed`)."""
    fresh, phase_wall = rec.steady("fresh")
    walls = [sweep.corrected for sweep in fresh]
    # per-sweep rates only feed the spread; with several clients one client's
    # rate is that share of the aggregate
    scale = workload.concurrency
    candidates = [s.result.num_candidates for s in fresh]
    evals = [s.nfev for s in fresh]
    warm = [sweep.corrected for sweep in rec.steady("warm")[0]]
    return {
        "setup_s": stats.summarize([stretch.wall for stretch in speed.steady(setups)]),
        "sweep_s": stats.summarize(walls),
        "warm_sweep_s": stats.summarize(warm, stats.trimmed_mean(warm)),
        "candidates_per_s": stats.summarize(
            [scale * c / w for c, w in zip(candidates, walls)], sum(candidates) / phase_wall
        ),
        "evals_per_s": stats.summarize(
            [scale * n / w for n, w in zip(evals, walls)], sum(evals) / phase_wall
        ),
        "sweeps_per_s": stats.summarize([scale / w for w in walls], len(fresh) / phase_wall),
        "peak_rss_mb": stats.summarize([workload.peak_rss_mb()]),
    }


def measure(workload, seed: int, seconds: float, tmp: Path) -> dict:
    """The untraced run: several set-ups, the phases, the gate."""
    setups = []
    for i in range(SETUP_REPEATS):
        with speed.Stretch() as stretch:
            raw = workload.setup_once(seed, tmp / f"setup{i}")
        # the set-up times itself: tearing the probe down is not set-up
        stretch.wall = raw / stretch.slowdown
        setups.append(stretch)
    rec = Recorder()
    with workload.open(seed, tmp / "live") as env:
        workload.drive(env, seed, lambda: time_box(seconds), rec, no_phase, tmp)
    gate(workload, seed, rec)
    return {
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "failures": rec.failures,
        "end_to_end": end_to_end(workload, rec, setups),
    }


def trace(workload, seed: int, seconds: float, tmp: Path) -> dict:
    """Half-length untraced run with the layer probes, then the traced pass
    at its fixed counts."""
    rec = Recorder()
    with workload.open(seed, tmp / "live") as env:
        workload.drive(
            env, seed, lambda: time_box(seconds / 2), rec, no_phase, tmp / "untraced",
            layer_probes=True,
        )
    gate(workload, seed, rec)
    tracer, traced = Tracer(), Recorder()
    try:
        install(tracer, in_worker_processes=workload.worker_processes)
        with workload.open(seed, tmp / "live", traced=True) as env:
            workload.drive(
                env, seed, lambda: fixed(workload.traced_count), traced, tracer.phase,
                tmp / "traced",
            )
    finally:
        tracer.uninstall()
    tracer.write(RESULTS / f"trace-{workload.name}.jsonl")
    table = SpanTable(tracer.spans)
    values = per_layer(workload, rec, traced, tracer, table)
    failures = rec.failures + traced.failures
    return {
        "attempted": rec.attempted + traced.attempted,
        "failed": len(failures),
        "failures": failures,
        "per_layer": {
            name: {"value": value, "unit": LAYER_METRICS[name][0]}
            for name, value in values.items()
        },
        "layer_tables": {
            phase: table.layer_table(phase)
            for phase in ("fresh", "cached", "warm", "resume")
            if table.sweeps(phase)
        },
    }


def run_workload(name: str, seed: int, seconds: float, mode: str) -> dict:
    workload = WORKLOADS[name]
    run: dict = {"attempted": 0, "failed": 0, "failures": []}
    for wanted, part in (("0", measure), ("1", trace)):
        if mode in (wanted, "both"):
            with scratch_dir() as tmp:
                result = part(workload, seed, seconds, tmp)
            for key in ("attempted", "failed", "failures"):
                run[key] += result.pop(key)
            run.update(result)
    return run


# -- output -------------------------------------------------------------------


def print_run(name: str, run: dict) -> None:
    frac = run["failed"] / run["attempted"]
    print(f"\n== {name}: {run['failed']} of {run['attempted']} operations failed "
          f"(failed_frac {frac:.4f})")
    for failure in run["failures"]:
        print(f"   FAILED {failure}")
    if "end_to_end" in run:
        print(f"   {'end-to-end':<22}{'median':>12} {'unit':<6}{'q1':>12}{'q3':>12}{'n':>5}  tail")
        for metric, rec in run["end_to_end"].items():
            unit = END_TO_END[metric]["unit"]
            tail = (
                f"p{rec['tail_percentile']:g} {rec['tail_value']:.4g}"
                if "tail_value" in rec else "-"
            )
            print(f"   {metric:<22}{rec['value']:>12.5g} {unit:<6}"
                  f"{rec['q1']:>12.5g}{rec['q3']:>12.5g}{rec['n']:>5}  {tail}")
    for phase, rows in run.get("layer_tables", {}).items():
        wall = rows[-1][1]
        print(f"   layer budget, {phase} sweep (self seconds per sweep)")
        for layer, seconds in rows:
            print(f"     {layer:<28}{seconds:>12.6f}{seconds / wall:>8.1%}")
    if "per_layer" in run:
        print("   per-layer metrics (0 = layer not exercised by this workload)")
        for metric, rec in run["per_layer"].items():
            print(f"     {metric:<46}{rec['value']:>14.6g} {rec['unit']}")


def driver_line(run: dict, mode: str) -> str:
    """The one-object summary: end-to-end metrics untraced, per-layer traced."""
    if mode == "1":
        metrics = run["per_layer"]
    else:
        metrics = {
            name: {"value": rec["value"], "unit": END_TO_END[name]["unit"]}
            for name, rec in run["end_to_end"].items()
        }
    return json.dumps(
        {
            "correct": run["failed"] == 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": metrics,
        }
    )


def compare_files(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    rows, ok = stats.compare(a, b, BENCHMARK["end_to_end"])
    print(f"{'workload':<15}{'metric':<20}{'A':>12}{'B':>12}{'change':>9}  verdict")
    for workload, metric, value_a, value_b, change, outcome in rows:
        print(f"{workload:<15}{metric:<20}{value_a:>12.5g}{value_b:>12.5g}"
              f"{change:>+9.1%}  {outcome}")
    return 0 if ok else 1


def run_in_child(name: str, args: argparse.Namespace) -> dict:
    """One of several workloads, in an interpreter of its own, so that its
    peak RSS, imports and heap are its alone (``ru_maxrss`` never goes down).
    The child prints its tables; its driver line is dropped."""
    child = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace],
        stdout=subprocess.PIPE, text=True,
    )
    tables, _, _line = child.stdout.rstrip("\n").rpartition("\n")
    print(tables)
    if child.returncode not in (0, 1):
        raise RuntimeError(f"{name} exited with code {child.returncode}")
    return json.loads((RESULTS / "latest.json").read_text())["workloads"][name]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=check.DEFAULT_SEED,
                        help="generates the inputs (default: %(default)s, the golden seed)")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="length of each workload's time-boxed fresh phase")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="0: end-to-end only; 1: per-layer only; bare flag: both")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files against the bounds and exit")
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute sweep 0 of every workload at the default "
                             "seed, write golden.json and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare_files(*args.compare)
    if args.write_golden:
        check.write_golden(
            {name: w.spec(check.DEFAULT_SEED, 0) for name, w in WORKLOADS.items()}
        )
        return 0

    document = {
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "workloads": {},
    }
    for name in args.workload:
        if len(args.workload) == 1:
            run = run_workload(name, args.seed, args.seconds, args.trace)
            print_run(name, run)
        else:
            run = run_in_child(name, args)
        document["workloads"][name] = run
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "latest.json").write_text(json.dumps(document, indent=1))
    if len(args.workload) == 1:
        print(driver_line(document["workloads"][args.workload[0]], args.trace))
    return 1 if any(run["failed"] for run in document["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
