"""`src/repro` stays closed: every module is served, or says why it is not.

ROADMAP aim 2: no module that is neither on the serving path, nor a pinned
oracle, nor behind a paper figure. The import graph is rebuilt from the
source (AST only, nothing is executed): roots are ``repro.api``,
``repro.cli``, ``repro.service.*`` and ``repro.experiments.*``; a ``from
pkg import name`` edge goes to the module that *defines* ``name``, so a
package ``__init__`` re-exporting a module does not keep it alive. A module
the walk does not reach must be in ``UNSERVED`` with its reason.

Below modules, names: every ``__all__`` entry must be mentioned (a word
match, nothing executed — so a docstring counts, the conservative direction)
somewhere in ``src/``, ``benchmarks/``, ``scripts/`` or ``examples/`` other
than by its own definition and by ``__init__`` re-export lines, or be in
``TEST_ONLY`` with its reason. A public name only ``tests/`` uses is the
other half of something that was replaced: delete it with its tests.

The same resolver checks the files tier-1 does not collect —
``examples/``, ``benchmarks/``, ``scripts/`` — so an import of a deleted
module or name there fails here, not when someone next runs the file.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: modules the roots do not reach, each with the reason it stays
UNSERVED = {
    "repro.qaoa.analytic": "closed-form p=1 oracle pinning test_evaluator/test_optimizers",
    "repro.parallel.faults": "deterministic chaos harness behind the chaos suite and CI smoke",
    "repro.workloads.builtin": "registers the built-in workloads by import side effect",
    "repro.qtensor.simulator": (
        "the paper's tensor-network backend, reproduced for its scaling argument: "
        "bench_ablation_{backends,ordering,slicing}.py and the cross-engine pin drive it; "
        "not an --engine (MaxCut only, ~5000x slower than compiled at 10 nodes)"
    ),
    "repro.parallel.async_executor": (
        "retired by the process fleet (PR 12); benchmarks/e2e/trace.py still imports it, "
        "and that directory changes only in a benchmark-only PR, which deletes both"
    ),
}

_CONSTRAINTS = "§6 constraint vocabulary: what a caller puts in SearchConfig(constraints=)"
_GRAPH_FAMILY = "fixture graph family with a known optimum (tests, docs, notebooks)"
_GATE = "gate vocabulary: reached by registry name (make_gate, QASM, circuit builders)"

_DEFERRED = "controller substrate beside softmax/AdamUpdater; decided with it (--strategy)"
_LAYER = (
    "one layer as a circuit of its own (Eq. 2's U_C, the RX baseline U_B) for inspection; "
    "the ansatz appends in place"
)

#: ``module.name`` for every ``__all__`` entry that only ``tests/`` references,
#: each with the reason it is not deleted
TEST_ONLY = {
    "repro.circuits.gates.RXX": _GATE,
    "repro.circuits.gates.SDG": _GATE,
    "repro.circuits.gates.SWAP": _GATE,
    "repro.circuits.gates.TDG": _GATE,
    "repro.circuits.gates.U3": _GATE,
    "repro.circuits.qasm.from_qasm": (
        "reads back what to_qasm writes: the round trip pins the exported winners' QASM"
    ),
    "repro.core.constraints.ForbiddenTokens": _CONSTRAINTS,
    "repro.core.constraints.MaxGates": _CONSTRAINTS,
    "repro.core.constraints.MaxMixerDepth": _CONSTRAINTS,
    "repro.core.constraints.MinGates": _CONSTRAINTS,
    "repro.core.constraints.NoAdjacentRepeats": _CONSTRAINTS,
    "repro.core.constraints.PredicateConstraint": _CONSTRAINTS,
    "repro.core.constraints.RequiredTokens": _CONSTRAINTS,
    "repro.core.constraints.RequiresParameterizedGate": _CONSTRAINTS,
    "repro.core.predictor.make_predictor": (
        "the --strategy seam (ROADMAP): strategy name -> PREDICTORS entry, driven in-process "
        "until Config.strategy lands"
    ),
    "repro.graphs.generators.complete_graph": _GRAPH_FAMILY,
    "repro.graphs.generators.cycle_graph": _GRAPH_FAMILY,
    "repro.graphs.generators.path_graph": _GRAPH_FAMILY,
    "repro.graphs.generators.star_graph": _GRAPH_FAMILY,
    "repro.graphs.io.load_graphs": "reads the dataset files save_graphs writes",
    "repro.ml.activations.log_softmax": _DEFERRED,
    "repro.ml.optim.SGD": _DEFERRED,
    "repro.qaoa.analytic.grid_search_p1": (
        "closed-form p=1 optimum: the oracle test_optimizers/test_evaluator train against"
    ),
    "repro.qaoa.cost_operator.cost_layer": _LAYER,
    "repro.qaoa.mixers.baseline_mixer": _LAYER,
    "repro.qtensor.lightcone.lightcone_qubits": (
        "how local an energy term is: the cone-size assertion behind the scaling argument"
    ),
    "repro.simulators.statevector.basis_state": "fixture state |index> for the simulator tests",
    "repro.workloads.registry.workload_summaries": "the registry table docs/workloads.md prints",
}

#: a trailing dot takes every module of the package
SERVING_ROOTS = ("repro.api", "repro.cli", "repro.__main__", "repro.service.", "repro.experiments.")


class SourceTree:
    """The modules under ``src_dir/package``, parsed but never imported."""

    def __init__(self, src_dir: Path, package: str = "repro"):
        self.package = package
        self.trees: dict[str, ast.Module] = {}
        self.paths: dict[str, Path] = {}
        self.packages: set[str] = set()
        for path in sorted((src_dir / package).rglob("*.py")):
            parts = path.relative_to(src_dir).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
                self.packages.add(".".join(parts))
            self.trees[".".join(parts)] = ast.parse(path.read_text(), str(path))
            self.paths[".".join(parts)] = path

    def modules(self) -> set[str]:
        """Every module that is not a package ``__init__``."""
        return set(self.trees) - self.packages

    def bindings(self, module: str) -> dict[str, tuple[str, str | None] | None]:
        """Top-level names of ``module``: ``None`` when defined there,
        ``(source module, source name or None for the module itself)`` when
        imported."""
        bound: dict[str, tuple[str, str | None] | None] = {}
        todo = list(self.trees[module].body)
        while todo:
            node = todo.pop()
            if isinstance(node, ast.ImportFrom):
                source = self._absolute(module, node)
                for alias in node.names:
                    bound[alias.asname or alias.name] = (source, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.partition(".")[0]
                    bound[alias.asname or top] = (alias.name if alias.asname else top, None)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound[node.name] = None
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
                bound.update((n.id, None) for n in names)
            elif isinstance(node, (ast.If, ast.Try, ast.With)):  # e.g. `if find_spec("cupy"):`
                todo += [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
        return bound

    def _absolute(self, module: str, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        base = module.split(".") if module in self.packages else module.split(".")[:-1]
        base = base[: len(base) - (node.level - 1)]
        return ".".join(base + ([node.module] if node.module else []))

    def definer(self, module: str, name: str) -> str | None:
        """The module that defines ``module.name``, following re-exports;
        ``None`` when ``module`` neither defines, imports nor contains it."""
        seen = set()
        while (module, name) not in seen:
            seen.add((module, name))
            if f"{module}.{name}" in self.trees:
                return f"{module}.{name}"
            if module not in self.trees:
                return None
            bound = self.bindings(module)
            if name not in bound:
                return None
            origin = bound[name]
            if origin is None:
                return module
            source, source_name = origin
            if not self._ours(source):
                return module  # a third-party name re-exported here
            if source_name is None:
                return source
            module, name = source, source_name
        return None

    def _ours(self, module: str) -> bool:
        return module == self.package or module.startswith(self.package + ".")

    def imports(self, tree: ast.AST, module: str = "") -> list[tuple[int, str, str | None]]:
        """Every import of this package in ``tree``, function-level ones
        included, as ``(line, module, name or None)``."""
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [(node.lineno, a.name, None) for a in node.names if self._ours(a.name)]
            elif isinstance(node, ast.ImportFrom):
                source = self._absolute(module, node)
                if self._ours(source):
                    found += [(node.lineno, source, a.name) for a in node.names]
        return found

    def edges(self, module: str) -> set[str]:
        """The modules ``module`` depends on. A package ``__init__`` counts
        only when it defines the imported name itself."""
        targets = set()
        for _, source, name in self.imports(self.trees[module], module):
            target = source if name is None else self.definer(source, name)
            if target is not None and (target not in self.packages or name is not None):
                targets.add(target)
        return targets

    def reachable(self, roots: tuple[str, ...] = SERVING_ROOTS) -> set[str]:
        todo = [
            m for m in self.trees
            if any(m.startswith(r) if r.endswith(".") else m == r for r in roots)
        ]
        reached = set(todo)
        while todo:
            for target in self.edges(todo.pop()) - reached:
                reached.add(target)
                todo.append(target)
        return reached

    def exports(self) -> set[tuple[str, str]]:
        """``(defining module, name)`` for every entry of every ``__all__``."""
        found = set()
        for module, tree in self.trees.items():
            for node in tree.body:
                if _assigns(node, "__all__"):
                    for entry in ast.literal_eval(node.value):
                        found.add((self.definer(module, entry) or module, entry))
        return found

    def definition(self, module: str, name: str) -> list[ast.stmt]:
        """The top-level statements of ``module`` that define ``name``."""
        return [
            node for node in self.trees[module].body
            if getattr(node, "name", None) == name or _assigns(node, name)
        ]

    def unresolved(self, path: Path) -> list[str]:
        """``file:line: message`` for each import in ``path`` naming a module
        that does not exist or a name its module does not provide."""
        problems = []
        for line, source, name in self.imports(ast.parse(path.read_text(), str(path))):
            where = f"{path.relative_to(REPO)}:{line}"
            if source not in self.trees:
                problems.append(f"{where}: no module {source}")
            elif name is not None and name != "*" and self.definer(source, name) is None:
                problems.append(f"{where}: {source} has no {name!r}")
        return problems


def _assigns(node: ast.stmt, name: str) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return isinstance(node, (ast.Assign, ast.AnnAssign)) and any(
        isinstance(n, ast.Name) and n.id == name for t in targets for n in ast.walk(t)
    )


def words(path: Path, skip: list[ast.stmt] = ()) -> set[str]:
    """Every identifier-like word of ``path`` outside the ``skip`` statements."""
    skipped = {line for node in skip for line in range(node.lineno, node.end_lineno + 1)}
    lines = path.read_text().splitlines()
    return set(re.findall(r"\w+", "\n".join(
        line for number, line in enumerate(lines, 1) if number not in skipped
    )))


def unreferenced_exports(tree: SourceTree, others: list[Path]) -> list[str]:
    """``module.name`` for each ``__all__`` entry no file mentions, its own
    definition and ``__init__`` re-export lines (imports, ``__all__``) aside."""

    def reexports(module: str) -> list[ast.stmt]:
        return [
            node for node in tree.trees[module].body
            if _assigns(node, "__all__")
            or (module in tree.packages and isinstance(node, (ast.Import, ast.ImportFrom)))
        ]

    mentioned = {module: words(tree.paths[module], reexports(module)) for module in tree.trees}
    elsewhere = [words(path) for path in others]
    dead = []
    for module, name in sorted(tree.exports()):
        own = words(tree.paths[module], reexports(module) + tree.definition(module, name))
        used = name in own or any(
            name in found for other, found in mentioned.items() if other != module
        ) or any(name in found for found in elsewhere)
        if not used:
            dead.append(f"{module}.{name}")
    return dead


@pytest.fixture(scope="module")
def tree():
    return SourceTree(REPO / "src")


def test_every_module_is_served_or_says_why(tree):
    served = tree.reachable()
    stale = sorted(set(UNSERVED) & served)
    assert not stale, f"UNSERVED entries the serving roots reach (drop them): {stale}"
    # what a kept module imports is kept with it
    unreached = sorted(tree.modules() - tree.reachable(SERVING_ROOTS + tuple(UNSERVED)))
    assert not unreached, (
        f"modules nothing serves — delete them, or add them to UNSERVED with a reason: {unreached}"
    )
    assert len(UNSERVED) <= 5 and all(UNSERVED.values())


def test_every_exported_name_is_referenced_or_says_why(tree):
    others = [
        path for pattern in ("benchmarks/**/*.py", "scripts/*", "examples/*.py")
        for path in sorted(REPO.glob(pattern)) if path.suffix in (".py", ".sh")
    ]
    dead = unreferenced_exports(tree, others)
    stale = sorted(set(TEST_ONLY) - set(dead))
    assert not stale, f"TEST_ONLY entries that are referenced, or gone (drop them): {stale}"
    unexplained = sorted(set(dead) - set(TEST_ONLY))
    assert not unexplained, (
        "exported names only tests/ references — delete them with their tests, "
        f"or add them to TEST_ONLY with a reason: {unexplained}"
    )
    assert all(TEST_ONLY.values())


def test_a_package_reexport_alone_keeps_nothing_alive(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "api.py").write_text("from pkg.sub import used\n")
    (pkg / "sub" / "__init__.py").write_text(
        "from pkg.sub.live import used\nfrom pkg.sub.dead import unused\n"
        "def helper():\n    return unused\n"
    )
    (pkg / "sub" / "live.py").write_text("def used():\n    pass\n")
    (pkg / "sub" / "dead.py").write_text("def unused():\n    pass\n")
    synthetic = SourceTree(tmp_path, "pkg")
    assert synthetic.definer("pkg.sub", "used") == "pkg.sub.live"
    assert synthetic.modules() - synthetic.reachable(("pkg.api",)) == {"pkg.sub.dead"}

    # `helper` is defined in the __init__ itself: importing it makes the
    # __init__ a real module, and what a real module imports counts
    (pkg / "api.py").write_text("from .sub import helper as h\n")
    synthetic = SourceTree(tmp_path, "pkg")
    assert "pkg.sub.dead" in synthetic.reachable(("pkg.api",))


@pytest.mark.parametrize(
    "pattern", ["examples/*.py", "benchmarks/*.py", "benchmarks/e2e/*.py", "scripts/*.py"]
)
def test_imports_outside_src_resolve(tree, pattern):
    paths = sorted(REPO.glob(pattern))
    assert paths, f"{pattern} matches nothing; was the directory moved?"
    problems = [problem for path in paths for problem in tree.unresolved(path)]
    assert not problems, "\n".join(problems)

