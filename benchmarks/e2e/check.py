"""The correctness gate: every run checks what it timed.

Each function returns ``None`` when the property holds and a one-line
description of the mismatch otherwise; the caller counts either outcome as
one attempted operation, so a mismatch shows in the failed fraction and in
the exit code.

Cross-path equalities (repeat, cache, resume, worker processes, service)
are exact: the same ``(spec, Config)`` must give bit-identical answers on
every path. The golden file pins absolute numbers at the default seed under
the library versions it was written with; under other versions a golden
mismatch is a warning, not a failure — COBYLA's trajectory is SciPy's.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import scipy

from repro import AnsatzEnergy, build_qaoa_ansatz
from repro.api import resolve_workload, search
from repro.core.results import SearchResult

__all__ = [
    "DEFAULT_SEED",
    "dedup_problem",
    "differs",
    "golden_entry",
    "golden_problem",
    "oracle_problem",
    "write_golden",
]

DEFAULT_SEED = 2023
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN_TOLERANCE = 1e-9
ORACLE_TOLERANCE = 1e-10


def _energies(result: SearchResult) -> list[tuple]:
    return [
        (d.p, e.tokens, e.energy) for d in result.depth_results for e in d.evaluations
    ]


def differs(expected: SearchResult, actual: SearchResult) -> str | None:
    """Bit-identical winner and per-candidate energies, or what differs."""
    for name in ("best_tokens", "best_p", "best_energy"):
        a, b = getattr(expected, name), getattr(actual, name)
        if a != b:
            return f"{name} {b!r} != {a!r}"
    a, b = _energies(expected), _energies(actual)
    if a != b:
        wrong = sum(1 for x, y in zip(a, b) if x != y) + abs(len(a) - len(b))
        return f"{wrong} of {len(a)} candidate energies differ"
    return None


def dedup_problem(pair: list[SearchResult]) -> str | None:
    """Sweeps of one spec submitted together must agree, and between them
    train every candidate at least once and at most once each.

    Exactly once in total is the design goal, and the per-layer metric
    ``service.multiplexer.dedup_evaluated_frac`` reports how close a run
    came, but it is not gated: at the commit this benchmark was written
    against, ``SearchRuntime._run_depth`` looks a key up and claims it in
    two steps, so a tenant that misses just before the owner's put can
    claim after it and train the candidate again (about one run in ten).
    """
    unique = pair[0].num_candidates
    trained = sum(result.config["cache_misses"] for result in pair)
    if not unique <= trained <= len(pair) * unique:
        return f"{trained} candidates trained for {unique} unique"
    return differs(pair[0], pair[1])


def oracle_problem(seed: int) -> str | None:
    """One probe candidate on the run's first graph: the compiled engine
    against the per-gate statevector oracle at a seeded parameter point."""
    graph = resolve_workload(f"er:1:{seed}")[0]
    ansatz = build_qaoa_ansatz(graph, 2, ("rx", "ry"))
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, ansatz.num_parameters)
    fast = AnsatzEnergy(ansatz, engine="compiled").value(x)
    exact = AnsatzEnergy(ansatz, engine="statevector").value(x)
    if abs(fast - exact) > ORACLE_TOLERANCE:
        return f"compiled {fast!r} vs statevector {exact!r}"
    return None


def _versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def golden_entry(result: SearchResult) -> dict:
    return {
        "best_tokens": list(result.best_tokens),
        "best_p": result.best_p,
        "best_energy": result.best_energy,
    }


def golden_problem(workload: str, seed: int, result: SearchResult) -> str | None:
    """Sweep 0 of ``workload`` against the committed answer. Applies at the
    default seed only; returns ``None`` (after a warning on stderr) when the
    file was written under other numpy/scipy versions."""
    if seed != DEFAULT_SEED:
        return None
    golden = json.loads(GOLDEN_PATH.read_text())
    want, got = golden["workloads"][workload], golden_entry(result)
    problem = None
    if want["best_tokens"] != got["best_tokens"] or want["best_p"] != got["best_p"]:
        problem = (
            f"best {got['best_tokens']} p={got['best_p']}, "
            f"golden {want['best_tokens']} p={want['best_p']}"
        )
    elif abs(want["best_energy"] - got["best_energy"]) > GOLDEN_TOLERANCE:
        problem = f"best_energy {got['best_energy']!r}, golden {want['best_energy']!r}"
    if problem is not None and golden["versions"] != _versions():
        print(
            f"warning: {workload} differs from golden.json ({problem}), written "
            f"under {golden['versions']}; running {_versions()}",
            file=sys.stderr,
        )
        return None
    return problem


def write_golden(specs: dict) -> None:
    """Run each workload's sweep 0 (``name -> SweepSpec``) in process and
    commit the answers. The service's sweep 0 is held to the in-process
    answer by the cross-path check, so one path writes them all."""
    entries = {
        name: golden_entry(search(spec.workload, depths=spec.depths, config=spec.config))
        for name, spec in specs.items()
    }
    GOLDEN_PATH.write_text(
        json.dumps({"seed": DEFAULT_SEED, "versions": _versions(), "workloads": entries}, indent=2)
        + "\n"
    )
