"""`src/repro` stays closed: every module is served, or says why it is not.

ROADMAP aim 2: no module that is neither on the serving path, nor a pinned
oracle, nor behind a paper figure. The import graph is rebuilt from the
source (AST only, nothing is executed): roots are ``repro.api``,
``repro.cli``, ``repro.service.*`` and ``repro.experiments.*``; a ``from
pkg import name`` edge goes to the module that *defines* ``name``, so a
package ``__init__`` re-exporting a module does not keep it alive. A module
the walk does not reach must be in ``UNSERVED`` with its reason.

The same resolver checks the files tier-1 does not collect —
``examples/``, ``benchmarks/``, ``scripts/`` — so an import of a deleted
module or name there fails here, not when someone next runs the file.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: modules the roots do not reach, each with the reason it stays
UNSERVED = {
    "repro.qaoa.analytic": "closed-form p=1 oracle pinning test_evaluator/test_optimizers",
    "repro.parallel.faults": "deterministic chaos harness behind the chaos suite and CI smoke",
    "repro.workloads.builtin": "registers the built-in workloads by import side effect",
}

#: a trailing dot takes every module of the package
SERVING_ROOTS = ("repro.api", "repro.cli", "repro.__main__", "repro.service.", "repro.experiments.")


class SourceTree:
    """The modules under ``src_dir/package``, parsed but never imported."""

    def __init__(self, src_dir: Path, package: str = "repro"):
        self.package = package
        self.trees: dict[str, ast.Module] = {}
        self.packages: set[str] = set()
        for path in sorted((src_dir / package).rglob("*.py")):
            parts = path.relative_to(src_dir).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
                self.packages.add(".".join(parts))
            self.trees[".".join(parts)] = ast.parse(path.read_text(), str(path))

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
    assert len(UNSERVED) <= 4 and all(UNSERVED.values())


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


def test_the_names_the_e2e_tracer_patches_exist(monkeypatch):
    """``benchmarks/e2e/trace.py`` wraps ``SearchRuntime.run``,
    ``ResultCache.claim``, … by name and reads them from the class's own
    ``__dict__``; a renamed or inherited method raises here, not mid-benchmark."""
    monkeypatch.syspath_prepend(str(REPO / "benchmarks"))
    from e2e.trace import Tracer, install

    tracer = Tracer()
    try:
        install(tracer, in_worker_processes=False)
    finally:
        tracer.uninstall()
