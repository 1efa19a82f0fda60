"""Command-line interface: ``python -m repro <command>``.

Four subcommands cover the workflows a user runs repeatedly:

* ``search`` — Algorithm 1 on a seeded dataset, optionally parallel,
  optionally saving the JSON result;
* ``evaluate`` — score one named mixer on a dataset (quick what-if);
* ``draw`` — render a mixer circuit as ASCII (Fig. 6 on demand);
* ``serve`` — run the long-lived search service (persistent job queue,
  shared cache, HTTP API — see ``docs/service.md``).

All stochastic inputs are seeded so runs are reproducible and scriptable.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from contextlib import ExitStack

from repro.core.evaluator import ENGINES, INIT_STRATEGIES, EvaluationConfig, Evaluator
from repro.core.runtime import RuntimeConfig
from repro.core.search import SearchConfig, search_mixer
from repro.experiments.discovery import draw_mixer
from repro.experiments.figures import render_table
from repro.graphs.datasets import DATASET_FAMILIES
from repro.optimizers import BATCH_MODES
from repro.parallel.executor import MultiprocessingExecutor, available_cores
from repro.simulators.backends import available_array_backends
from repro.surrogate.config import SurrogateConfig
from repro.workloads import available_workloads

__all__ = ["main", "build_parser"]


def _dataset(name: str, count: int, seed: int):
    if name not in DATASET_FAMILIES:
        raise ValueError(
            f"unknown dataset {name!r}; options: {', '.join(sorted(DATASET_FAMILIES))}"
        )
    return DATASET_FAMILIES[name][1](count, dataset_seed=seed)


def _workload(args) -> str:
    """The problem key governing this run: explicit ``--workload`` when
    given (must agree with the dataset family), else the family's."""
    implied = DATASET_FAMILIES[args.dataset][0]
    if args.workload is None or args.workload == implied:
        return implied
    raise SystemExit(
        f"--dataset {args.dataset} implies --workload {implied}, "
        f"got --workload {args.workload}; drop one of the two"
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="er",
                        choices=sorted(DATASET_FAMILIES),
                        help="seeded dataset family (default: er); each "
                             "family implies its problem's workload")
    parser.add_argument("--workload", default=None,
                        choices=list(available_workloads()),
                        help="problem from the workloads registry; defaults "
                             "to the one the dataset family implies "
                             "(er/regular -> maxcut)")
    parser.add_argument("--init-strategy", default="uniform",
                        choices=list(INIT_STRATEGIES),
                        help="optimizer initialization: uniform (the "
                             "paper's), ramp, or interp (warm-start each "
                             "depth from the previous depth's parameters)")
    parser.add_argument("--graphs", type=int, default=3, help="graphs in the workload")
    parser.add_argument("--dataset-seed", type=int, default=2023)
    parser.add_argument("--steps", type=int, default=60, help="optimizer budget")
    parser.add_argument("--optimizer", default="cobyla",
                        choices=["cobyla", "nelder_mead", "spsa", "adam"],
                        help="classical trainer (default: cobyla, the paper's)")
    parser.add_argument("--restarts", type=int, default=2,
                        help="independent optimizer restarts per graph; "
                             "batch-native optimizers train them as one batch")
    parser.add_argument("--batch-mode", default="auto", choices=list(BATCH_MODES),
                        help="restart training: auto batches whenever the "
                             "optimizer supports it; serial forces one run "
                             "per restart")
    parser.add_argument("--metric", default="best_sampled",
                        choices=["energy", "best_sampled"])
    parser.add_argument("--shots", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--engine", default="compiled", choices=list(ENGINES),
                        help="simulation engine (default: compiled fast path)")
    parser.add_argument("--array-backend", default="numpy",
                        choices=list(available_array_backends()),
                        help="array library behind the compiled engine: "
                             "numpy (default), mock_gpu (CPU stand-in with "
                             "device-cost accounting), cupy when installed; "
                             "unregistered backends are rejected here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="QArchSearch reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    search = sub.add_parser("search", help="run Algorithm 1 on a dataset")
    _add_common(search)
    search.add_argument("--p-max", type=int, default=2)
    search.add_argument("--k-min", type=int, default=2)
    search.add_argument("--k-max", type=int, default=2)
    search.add_argument("--mode", default="combinations",
                        choices=["combinations", "sequences", "permutations"])
    search.add_argument("--workers", type=int, default=0,
                        help="0 = serial, -1 = all cores")
    search.add_argument("--shards", type=int, default=1,
                        help="partition each depth's candidate bag across "
                             "this many shards (Fig. 2's outer level); "
                             "with --workers the pool is split one per "
                             "shard, and a dead shard's candidates "
                             "migrate to the survivors")
    search.add_argument("--shard-index", type=int, default=None,
                        help="run ONLY this shard (0-based) of every "
                             "depth in this process; launch one process "
                             "per index with the same --shards and a "
                             "shared --cache-dir, then merge with a "
                             "final run (all cache hits)")
    search.add_argument("--surrogate", action="store_true",
                        help="surrogate-assisted search: learn a ranker "
                             "from completed evaluations and evaluate only "
                             "the predicted-top slice of each depth's "
                             "candidates (incompatible with --shard-index)")
    search.add_argument("--surrogate-keep", type=float, default=0.5,
                        help="fraction of each depth's candidate pool "
                             "forwarded to real evaluation once the ranker "
                             "is trained (default: 0.5)")
    search.add_argument("--explore-floor", type=float, default=0.1,
                        help="fraction of the pool evaluated regardless of "
                             "predicted rank — a seeded uniform sample; "
                             "1.0 degenerates to the unfiltered search "
                             "(default: 0.1)")
    search.add_argument("--out", default=None, help="save SearchResult JSON")
    search.add_argument("--cache-dir", default=None,
                        help="persist candidate results + checkpoints here; "
                             "repeat runs become cache lookups")
    search.add_argument("--resume", action="store_true",
                        help="restore finished depths from the checkpoint "
                             "in --cache-dir")
    search.add_argument("--retries", type=int, default=2,
                        help="extra attempts per candidate on worker failure")
    search.add_argument("--job-timeout", type=float, default=None,
                        help="per-candidate wall-clock limit in seconds")

    evaluate = sub.add_parser("evaluate", help="score one mixer")
    _add_common(evaluate)
    evaluate.add_argument("mixer", help="comma-separated tokens, e.g. rx,ry")
    evaluate.add_argument("--p", type=int, default=1)

    draw = sub.add_parser("draw", help="draw a mixer circuit")
    draw.add_argument("mixer", help="comma-separated tokens, e.g. rx,ry")
    draw.add_argument("--qubits", type=int, default=10)

    serve = sub.add_parser(
        "serve", help="run the search service (HTTP API over a job queue)"
    )
    serve.add_argument("--dir", default=".repro-service", dest="service_dir",
                       help="service state directory: job queue, shared "
                            "result cache, checkpoints (default: "
                            ".repro-service)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787,
                       help="listen port; 0 picks a free one")
    serve.add_argument("--max-concurrent", type=int, default=2,
                       help="sweeps multiplexed over the shared fleet")
    serve.add_argument("--workers", type=int, default=0,
                       help="worker processes in the shared fleet, forked "
                            "at start-up (0 = all cores)")
    serve.add_argument("--cache-max-entries", type=int, default=None,
                       help="LRU-bound the shared result cache; in-flight "
                            "and pinned entries are never evicted")
    serve.add_argument("--lease-seconds", type=float, default=30.0,
                       help="claim lease: a wedged or killed slot's job is "
                            "reclaimed this long after its last heartbeat")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="claims a job may burn before it dead-letters "
                            "(terminal failed state)")
    serve.add_argument("--max-queue-depth", type=int, default=None,
                       help="admission control: reject submits with 429 "
                            "once this many jobs are queued or running")
    serve.add_argument("--max-queued-per-tenant", type=int, default=None,
                       help="per-tenant backlog cap (429 past it)")
    serve.add_argument("--max-running-per-tenant", type=int, default=None,
                       help="cap on one tenant's concurrently running sweeps")
    serve.add_argument("--drain-timeout", type=float, default=None,
                       help="graceful-shutdown grace period before running "
                            "sweeps are cancelled and requeued (default: "
                            "wait for them)")
    serve.add_argument("--tenant-weight", action="append", default=[],
                       metavar="NAME=W", dest="tenant_weights",
                       help="fairness weight for a tenant (repeatable); "
                            "unlisted tenants weigh 1.0")
    serve.add_argument("--trace-log", default=None, metavar="PATH",
                       help="append structured span events (JSONL) to this "
                            "file; off by default (metrics at /metrics need "
                            "no flag — see docs/observability.md)")

    return parser


def _eval_config(args) -> EvaluationConfig:
    return EvaluationConfig(
        optimizer=args.optimizer,
        max_steps=args.steps,
        restarts=args.restarts,
        batch_mode=args.batch_mode,
        seed=args.seed,
        metric=args.metric,
        shots=args.shots,
        engine=args.engine,
        array_backend=args.array_backend,
        workload=_workload(args),
        init_strategy=args.init_strategy,
    )


def _cmd_search(args) -> int:
    graphs = _dataset(args.dataset, args.graphs, args.dataset_seed)
    try:
        surrogate = SurrogateConfig(
            enabled=args.surrogate,
            keep_fraction=args.surrogate_keep,
            explore_floor=args.explore_floor,
            seed=args.seed,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from error
    config = SearchConfig(
        p_max=args.p_max, k_min=args.k_min, k_max=args.k_max,
        mode=args.mode, evaluation=_eval_config(args),
        surrogate=surrogate,
    )
    if args.resume and not args.cache_dir:
        raise SystemExit("--resume requires --cache-dir")
    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    if args.shard_index is not None:
        if not args.cache_dir:
            raise SystemExit(
                "--shard-index requires --cache-dir (shard processes meet "
                "in the shared result cache)"
            )
        if not 0 <= args.shard_index < args.shards:
            raise SystemExit(
                f"--shard-index must be in [0, {args.shards}), "
                f"got {args.shard_index}"
            )
    runtime = RuntimeConfig(
        cache_dir=args.cache_dir,
        resume=args.resume,
        max_retries=args.retries,
        job_timeout=args.job_timeout,
        shards=args.shards,
        shard_index=args.shard_index,
    )
    workers = available_cores() if args.workers == -1 else args.workers
    sharded_here = args.shards > 1 and args.shard_index is None
    try:
        if workers and workers > 1:
            with ExitStack() as stack:
                if sharded_here:
                    # One pool per shard — each shard is its own failure
                    # domain, the in-process model of one pool per node.
                    # The remainder is spread so every requested worker
                    # lands in some shard.
                    base, extra = divmod(workers, args.shards)
                    executor: object = [
                        stack.enter_context(
                            MultiprocessingExecutor(
                                max(1, base + (1 if i < extra else 0))
                            )
                        )
                        for i in range(args.shards)
                    ]
                else:
                    executor = stack.enter_context(MultiprocessingExecutor(workers))
                result = search_mixer(
                    graphs, config, executor=executor, runtime=runtime
                )
        else:
            if args.job_timeout is not None:
                print(
                    "warning: --job-timeout has no effect with the serial "
                    "executor (jobs run inline); use --workers >= 2",
                    file=sys.stderr,
                )
            result = search_mixer(graphs, config, runtime=runtime)
    except ValueError as error:
        if args.shard_index is not None:
            # e.g. more shards than candidates (this process's slice is
            # empty at every depth) or --surrogate, whose pools would
            # diverge between shard processes — a configuration message,
            # not a crash.
            raise SystemExit(str(error)) from error
        raise

    rows = [
        [d.p, str(d.best.tokens), d.best.ratio, f"{d.seconds:.1f}s"]
        for d in result.depth_results
        if d.evaluations  # a shard's slice of a narrow depth can be empty
    ]
    print(render_table(["p", "best mixer", "ratio", "time"], rows))
    print(f"\nwinner: {result.best_tokens} at p={result.best_p} "
          f"(ratio {result.best_ratio:.4f}; "
          f"{result.num_candidates} candidates, {result.total_seconds:.1f}s)")
    if args.cache_dir:
        print(f"cache: {result.config['cache_hits']} hits, "
              f"{result.config['cache_misses']} misses, "
              f"{result.config['restored_depths']} depths restored "
              f"({args.cache_dir})")
    if args.surrogate:
        print(f"surrogate: {result.config['surrogate_kept']} candidates "
              f"evaluated, {result.config['surrogate_skipped']} skipped by "
              f"the ranker")
    if args.shard_index is not None:
        print(f"shard {args.shard_index}/{args.shards}: partial sweep; "
              f"results persisted to the shared cache — merge with a run "
              f"omitting --shard-index")
    elif args.shards > 1:
        dead = result.config.get("dead_shards", [])
        print(f"shards: {args.shards} "
              f"({len(dead)} died{': ' + str(dead) if dead else ''}, "
              f"{result.config.get('jobs_migrated', 0)} candidates migrated)")
    if args.out:
        result.save(args.out)
        print(f"saved to {args.out}")
    return 0


def _parse_mixer(spec: str) -> tuple:
    tokens = tuple(t.strip() for t in spec.split(",") if t.strip())
    if not tokens:
        raise SystemExit(f"empty mixer spec {spec!r}")
    return tokens


def _cmd_evaluate(args) -> int:
    tokens = _parse_mixer(args.mixer)
    graphs = _dataset(args.dataset, args.graphs, args.dataset_seed)
    evaluator = Evaluator(graphs, _eval_config(args))
    result = evaluator.evaluate(tokens, args.p)
    rows = [
        [i, f"{e:.4f}", f"{r:.4f}"]
        for i, (e, r) in enumerate(zip(result.per_graph_energy, result.per_graph_ratio))
    ]
    print(render_table(["graph", "energy", "ratio"], rows))
    print(f"\nmixer {tokens} at p={args.p}: "
          f"mean energy {result.energy:.4f}, mean ratio {result.ratio:.4f} "
          f"({result.nfev} evaluations, {result.seconds:.1f}s)")
    return 0


def _cmd_draw(args) -> int:
    tokens = _parse_mixer(args.mixer)
    print(draw_mixer(tokens, args.qubits))
    return 0


def _cmd_serve(args) -> int:
    # Imported here so the three local subcommands never pay for the
    # service stack at import time.
    from repro.service.server import serve

    if args.max_concurrent < 1:
        raise SystemExit("--max-concurrent must be >= 1")
    weights: dict[str, float] = {}
    for item in args.tenant_weights:
        name, sep, value = item.partition("=")
        try:
            if not sep or not name:
                raise ValueError
            weights[name] = float(value)
        except ValueError:
            raise SystemExit(
                f"--tenant-weight expects NAME=W (a float), got {item!r}"
            ) from None
    serve(
        args.service_dir,
        host=args.host,
        port=args.port,
        max_concurrent=args.max_concurrent,
        workers=args.workers or None,
        cache_max_entries=args.cache_max_entries,
        lease_seconds=args.lease_seconds,
        max_attempts=args.max_attempts,
        max_queue_depth=args.max_queue_depth,
        max_queued_per_tenant=args.max_queued_per_tenant,
        max_running_per_tenant=args.max_running_per_tenant,
        tenant_weights=weights or None,
        drain_timeout=args.drain_timeout,
        trace_log=args.trace_log,
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "search": _cmd_search,
        "evaluate": _cmd_evaluate,
        "draw": _cmd_draw,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
