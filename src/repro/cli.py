"""Command-line interface: ``python -m repro <command>``.

Four subcommands cover the workflows a user runs repeatedly:

* ``search`` — Algorithm 1 on a seeded dataset, optionally parallel,
  optionally saving the JSON result;
* ``evaluate`` — score one named mixer on a dataset (quick what-if);
* ``draw`` — render a mixer circuit as ASCII (Fig. 6 on demand);
* ``serve`` — run the long-lived search service (persistent job queue,
  shared cache, HTTP API — see ``docs/service.md``).

The sweep flags of ``search`` and ``evaluate`` are generated from
``fields(repro.api.Config)`` — a flag *is* a ``Config`` field — and
``search`` is *args → ``Config`` → ``api.search`` → print*. Hand-written are
only the dataset flags (the facade's ``"family:count:seed"`` spec),
``--p-max``, ``--out``, ``evaluate``'s and ``draw``'s own arguments and
every ``serve`` flag. A rejected setting (``ConfigError``) exits with the
rule's own message; any other exception is a bug and tracebacks.

All stochastic inputs are seeded so runs are reproducible and scriptable.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from dataclasses import fields

from repro import api
from repro.core.evaluator import Evaluator
from repro.experiments.discovery import draw_mixer
from repro.experiments.figures import render_table
from repro.graphs.datasets import DATASET_FAMILIES
from repro.utils.validation import ConfigError

__all__ = ["main", "build_parser"]

def _add_config_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """One ``--flag`` per :class:`repro.api.Config` field that names
    ``command``, everything about it read off the field."""
    for setting in fields(api.Config):
        meta = setting.metadata
        if command not in meta["cli"]:
            continue
        kwargs: dict = {"help": meta["help"]}
        if setting.type == "bool":
            kwargs["action"] = "store_true"
        else:
            kwargs["type"] = {"int": int, "float": float}.get(setting.type.split(" | ")[0])
            kwargs["default"] = meta.get("cli_default", setting.default)
            choices = meta.get("cli_choices") or api.choices_of(setting)
            kwargs["choices"] = choices and list(choices)
        parser.add_argument("--" + setting.name.replace("_", "-"), **kwargs)


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="er",
                        choices=sorted(DATASET_FAMILIES),
                        help="seeded dataset family (default: er); each "
                             "family implies its problem's workload")
    parser.add_argument("--graphs", type=int, default=3, help="graphs in the workload")
    parser.add_argument("--dataset-seed", type=int, default=2023)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="QArchSearch reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    search = sub.add_parser("search", help="run Algorithm 1 on a dataset")
    _add_dataset_flags(search)
    _add_config_flags(search, "search")
    search.add_argument("--p-max", type=int, default=2)
    search.add_argument("--out", default=None, help="save SearchResult JSON")

    evaluate = sub.add_parser("evaluate", help="score one mixer")
    _add_dataset_flags(evaluate)
    _add_config_flags(evaluate, "evaluate")
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


def _sweep(args) -> tuple[str, api.Config]:
    """The parsed flags as the facade's arguments: the dataset spec string
    and the :class:`repro.api.Config`. A flag left at ``None`` keeps the
    field's default."""
    flags = {f.name: getattr(args, f.name, None) for f in fields(api.Config)}
    config = api.Config(**{k: v for k, v in flags.items() if v is not None})
    if args.workload is not None:
        # --workload was spelled out, so even "maxcut" must agree with
        # what the dataset family implies.
        implied = DATASET_FAMILIES[args.dataset][0]
        api.reconcile_workload(config, implied, explicit=True)
    return f"{args.dataset}:{args.graphs}:{args.dataset_seed}", config


def _cmd_search(args) -> int:
    spec, config = _sweep(args)
    result = api.search(spec, depths=args.p_max, config=config)
    if config.job_timeout is not None and "serial" in result.config["executor"]:
        print(
            "warning: --job-timeout has no effect with the serial "
            "executor (jobs run inline); use --workers >= 2",
            file=sys.stderr,
        )

    rows = [
        [d.p, str(d.best.tokens), d.best.ratio, f"{d.seconds:.1f}s"]
        for d in result.depth_results
        if d.evaluations  # a shard's slice of a narrow depth can be empty
    ]
    print(render_table(["p", "best mixer", "ratio", "time"], rows))
    print(f"\nwinner: {result.best_tokens} at p={result.best_p} "
          f"(ratio {result.best_ratio:.4f}; "
          f"{result.num_candidates} candidates, {result.total_seconds:.1f}s)")
    if config.cache_dir:
        print(f"cache: {result.config['cache_hits']} hits, "
              f"{result.config['cache_misses']} misses, "
              f"{result.config['restored_depths']} depths restored "
              f"({config.cache_dir})")
    if config.surrogate:
        print(f"surrogate: {result.config['surrogate_kept']} candidates "
              f"evaluated, {result.config['surrogate_skipped']} skipped by "
              f"the ranker")
    if config.shard_index is not None:
        print(f"shard {config.shard_index}/{config.shards}: partial sweep; "
              f"results persisted to the shared cache — merge with a run "
              f"omitting --shard-index")
    elif config.shards > 1:
        dead = result.config.get("dead_shards", [])
        print(f"shards: {config.shards} "
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
    spec, config = _sweep(args)
    implied, graphs = api.resolve_workload_spec(spec)
    config = api.reconcile_workload(config, implied)
    evaluator = Evaluator(graphs, config.evaluation_config())
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
    try:
        return handlers[args.command](args)
    except ConfigError as error:
        raise SystemExit(str(error)) from error


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
