"""`src/repro` stays closed: every module is served, or says why it is not.

ROADMAP aim 2: no module that is neither on the serving path, nor a pinned
oracle, nor behind a paper figure. The import graph is rebuilt from the
source (AST only, nothing is executed): roots are ``repro.api``,
``repro.cli``, ``repro.service.*`` and ``repro.experiments.*``; a ``from
pkg import name`` edge goes to the module that *defines* ``name``, so a
package ``__init__`` re-exporting a module does not keep it alive. A module
the walk does not reach must be in ``UNSERVED`` with its reason.

Below modules, names: every ``__all__`` entry must be mentioned (a word
of code, nothing executed: a name, a string literal that is wholly a name
or a dotted path, or a name in an f-string's replacement field — not a
comment, a docstring or a word in a message) somewhere in ``src/``,
``benchmarks/``, ``scripts/`` or ``examples/`` other than by its own
definition and by ``__init__`` re-export lines, or be in ``TEST_ONLY``
with its reason. A public name only ``tests/`` uses is the other half of
something that was replaced: delete it with its tests.

Below names, methods: every public method or property of a class under
``src/repro`` must be referenced — as an attribute (``pool.map``) or a
``getattr``/``hasattr`` string, parsed from the same files, its own
definition aside; a bare name is not a reference — or override a
base-class method that is (a referenced method of ours, or a framework
hook such as ``BaseHTTPRequestHandler.log_message``), or sit in
``TEST_ONLY`` under ``module.Class.method`` with its reason.

Below methods, keywords: every keyword-only parameter of a public
function, a public method or a public class's ``__init__`` must be passed
as ``name=`` by some call in the same files, and some call of its own
callable outside the callable's body must be able to carry it — by that
name, through a ``**`` spread, or by handing the callable over as a value
(a call matches by the name it spells, as for defaulted parameters) — or
it sits in ``TEST_ONLY_KEYWORDS`` under ``module.callable(name=)`` with its
reason. A ``name=`` passed to another callable, or forwarded by the
callable to itself, passes nothing. A knob only tests turn becomes a
module or class constant the test monkeypatches.

Beside keywords, defaulted parameters: every defaulted positional-or-keyword
parameter of a public callable must be reached by a call outside its own
body, by name or by enough positional arguments (``*args``/``**kwargs``
reach everything; a call matches by the name it spells, the conservative
direction), or by handing the callable over as a value
(``as_completed(evaluate_candidate, ...)``; an annotation is not a value) —
or sit in ``TEST_ONLY_DEFAULTS``. And config fields: every field of the
internal configs (``INTERNAL_CONFIGS``) must be set by a call that builds
the class outside ``tests/`` — ``api.Config``'s mapping included — or sit
in ``TEST_ONLY_FIELDS``. Keyword-only parameters, defaulted parameters and
config fields together are the knob total, which may not rise above
``KNOB_CEILING``; ``python tests/integration/test_reachability.py`` prints
it.

``repro.experiments.*`` is a serving root because it is behind the
benches: each of its modules is imported by some ``benchmarks/bench_*.py``.

The same resolver checks the files tier-1 does not collect —
``examples/``, ``benchmarks/``, ``scripts/`` — so an import of a deleted
module or name there fails here, not when someone next runs the file.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import io
import re
import sys
import tokenize
from collections.abc import Iterator
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
        "not an --engine (MaxCut only, ~5000x slower than compiled at 10 nodes; a p=2 energy "
        "at n=48 costs 0.6-0.9 reference-box s, width <= 9 - the ROADMAP qtensor/ item decides)"
    ),
    "repro.parallel.async_executor": (
        "retired by the process fleet (PR 12); benchmarks/e2e/trace.py still imports it, "
        "and that directory changes only in a benchmark-only PR, which deletes both"
    ),
}

_CONSTRAINTS = "§6 constraint vocabulary: what a caller puts in SearchConfig(constraints=)"
_GRAPH_FAMILY = "fixture graph family with a known optimum (tests, docs, notebooks)"

_PREDICTOR = "predictor protocol beside the --strategy seam; the ROADMAP --strategy item decides it"
_QTENSOR = "the tensor-network package's own surface; the ROADMAP qtensor/ item decides it"
_API = "docs/architecture.md § API stability: the facade's keywords are the contract"
_TIMER = "operator API: the span helper docs/observability.md offers for an operator's own code"
_LAYER = (
    "one layer as a circuit of its own (Eq. 2's U_C, the RX baseline U_B) for inspection; "
    "the ansatz appends in place"
)

#: ``module.name`` for every ``__all__`` entry, and ``module.Class.method``
#: for every public method, that only ``tests/`` references, each with the
#: reason it is not deleted
TEST_ONLY = {
    "repro.core.alphabet.count_sequences": (
        "the §3.1 arithmetic (2500 = 4 depths x 5^4 sequences) and the enumerators' sizes"
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
    "repro.qaoa.analytic.grid_search_p1": (
        "closed-form p=1 optimum: the oracle test_optimizers/test_evaluator train against"
    ),
    "repro.qaoa.cost_operator.cost_layer": _LAYER,
    "repro.qaoa.maxcut.cut_value": (
        "Eq. (1) on one assignment: the oracle brute_force_maxcut's bitstring and its "
        "lower bound over random assignments are checked against"
    ),
    "repro.qaoa.mixers.baseline_mixer": _LAYER,
    "repro.qtensor.lightcone.lightcone_qubits": (
        "how local an energy term is: the cone-size assertion behind the scaling argument"
    ),
    "repro.simulators.statevector.basis_state": "fixture state |index> for the simulator tests",
    "repro.simulators.statevector.circuit_unitary": (
        "test oracle: a small circuit's full unitary, column by column"
    ),
    "repro.simulators.statevector.plus_state": "fixture state |+>^n for the simulator tests",
    "repro.workloads.registry.workload_summaries": "the registry table docs/workloads.md prints",
    # methods
    "repro.core.predictor.ExhaustivePredictor.exhausted": _PREDICTOR,
    "repro.core.predictor.ExhaustivePredictor.reset": _PREDICTOR,
    "repro.core.predictor.ExhaustivePredictor.space_size": _PREDICTOR,
    "repro.core.predictor.Predictor.exhausted": _PREDICTOR,
    "repro.core.results.SearchResult.load": (
        "docs/architecture.md § API stability: load() reads every prior payload version"
    ),
    "repro.obs.metrics.Counter.value_for": "test accessor: one labelled child's value",
    "repro.obs.metrics.Gauge.value_for": "test accessor: one labelled child's value",
    "repro.obs.metrics.MetricsRegistry.timer": _TIMER,
    "repro.obs.metrics.MetricsRegistry.trace_path": "test accessor: where the trace log is written",
    "repro.parallel.executor.MultiprocessingExecutor.worker_pids": (
        "test accessor: the fleet's pids the fleet-reuse and worker-loss tests compare"
    ),
    "repro.parallel.faults.FaultPlan.should_raise": (
        "test accessor: the plan's decision, without executing it"
    ),
    "repro.qtensor.network.TensorNetwork.all_vars": _QTENSOR,
    "repro.qtensor.network.TensorNetwork.closed": _QTENSOR,
    "repro.qtensor.simulator.QTensorSimulator.amplitude": _QTENSOR,
    "repro.qtensor.simulator.QTensorSimulator.statevector": _QTENSOR,
    "repro.qtensor.variables.VariableFactory.fresh_many": _QTENSOR,
    "repro.simulators.compiled.CompiledProgram.num_ops": "test accessor: the lowered op count",
    "repro.simulators.compiled.CompiledProgram.states": (
        "batched states, pinned against the dense simulator in test_compiled.py and "
        "test_array_backends.py"
    ),
    "repro.surrogate.cost.CostModel.fitted": "test accessor: whether the cost model has data",
}

_STRATEGY = "the --strategy seam: the ROADMAP --strategy item decides whether Config carries it"

_COUNT = "the closed-form oracle of gate_sequences: a test checks each enumeration's size"

#: ``module.callable(name=)`` for every keyword-only parameter no call of
#: its own callable outside ``tests/`` passes, each with the reason it is
#: not a constant
TEST_ONLY_KEYWORDS = {
    "repro.api.Client.wait(poll=)": _API,
    "repro.api.Client.wait(poll_cap=)": _API,
    "repro.api.connect(timeout=)": _API,
    "repro.core.alphabet.count_sequences(ordered=)": _COUNT,
    "repro.core.alphabet.count_sequences(repetition=)": _COUNT,
    "repro.core.controller.PolicyController(allow_end=)": _STRATEGY,
    "repro.core.predictor.ExhaustivePredictor(mode=)": _STRATEGY,
    "repro.core.predictor.make_predictor(seed=)": _STRATEGY,
    "repro.core.search.search_mixer(candidates_per_depth=)": _STRATEGY,
    "repro.core.search.search_mixer(predictor=)": _STRATEGY,
    "repro.qaoa.analytic.grid_search_p1(resolution=)": (
        "the grid of the p = 1 oracle: a test trades resolution for time"
    ),
    "repro.qtensor.contraction.choose_slice_vars(exclude=)": _QTENSOR,
    "repro.qtensor.contraction.contract_sliced(method=)": _QTENSOR,
    "repro.qtensor.lightcone.lightcone_qubits(diag_aware=)": _QTENSOR,
    "repro.qtensor.ordering.min_degree_order(seed=)": _QTENSOR,
    "repro.qtensor.ordering.min_fill_order(seed=)": _QTENSOR,
    "repro.qtensor.simulator.QTensorSimulator.amplitude(bindings=)": _QTENSOR,
    "repro.qtensor.simulator.QTensorSimulator.amplitude(initial_state=)": _QTENSOR,
    "repro.qtensor.simulator.QTensorSimulator.maxcut_energy(bindings=)": _QTENSOR,
    "repro.qtensor.simulator.QTensorSimulator.statevector(bindings=)": _QTENSOR,
    "repro.qtensor.simulator.QTensorSimulator.statevector(initial_state=)": _QTENSOR,
    "repro.workloads.registry.register_workload(replace=)": (
        "docs/workloads.md's extension point; a caller's replace= swaps in a double, and "
        "docs/architecture.md § API stability keeps its keywords"
    ),
}

#: ``module.callable(name=)`` for every defaulted positional-or-keyword
#: parameter no call outside ``tests/`` reaches, each with its reason
TEST_ONLY_DEFAULTS = {
    "repro.obs.metrics.MetricsRegistry.timer(help=)": _TIMER,
    "repro.qtensor.variables.VariableFactory.fresh_many(prefix=)": _QTENSOR,
}

#: ``module.Class.field`` for every :data:`INTERNAL_CONFIGS` field no code
#: outside ``tests/`` sets, each with its reason
TEST_ONLY_FIELDS = {
    "repro.core.search.SearchConfig.constraints": _CONSTRAINTS,
}

#: the knob total (see :func:`knob_total`) may only go down: lower it with
#: the change that cuts a knob
KNOB_CEILING = 297

#: ``(module, class)`` of the configs a sweep's settings are mapped onto
INTERNAL_CONFIGS = (
    ("repro.core.evaluator", "EvaluationConfig"),
    ("repro.core.search", "SearchConfig"),
    ("repro.core.runtime", "RuntimeConfig"),
    ("repro.surrogate.config", "SurrogateConfig"),
)

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

    def methods(self) -> Iterator[tuple[str, ast.ClassDef, str]]:
        """``(module, class, name)`` for every public method or property of
        every class, nested ones included."""
        for module, tree in self.trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    names = {
                        item.name for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")
                    }
                    yield from ((module, node, name) for name in sorted(names))

    def callables(self) -> Iterator[tuple[str, str, str, ast.FunctionDef, int]]:
        """``(module, callable, callee, def, skip)`` for every public function,
        public method (of a public class, nested ones included) and public
        class's ``__init__``: ``callee`` is the name a call spells (the
        class's for ``__init__``), ``skip`` how many leading parameters a
        call does not pass (``self``/``cls``)."""

        def walk(module: str, body: list[ast.stmt], prefix: str):
            for node in body:
                if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                    yield from walk(module, node.body, f"{prefix}{node.name}.")
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if prefix and node.name == "__init__":
                        callable_, callee = prefix[:-1], prefix[:-1].rpartition(".")[2]
                    elif node.name.startswith("_"):
                        continue
                    else:
                        callable_, callee = prefix + node.name, node.name
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in node.decorator_list
                    )
                    yield module, callable_, callee, node, int(bool(prefix) and not static)

        for module, tree in self.trees.items():
            yield from walk(module, tree.body, "")

    def keyword_parameters(self) -> Iterator[tuple[str, str, str, tuple[str, int, int]]]:
        """``(module.callable(name=), callee, name, own)`` for every
        keyword-only parameter of a public callable (see :meth:`callables`),
        ``own`` as in :meth:`defaulted_parameters`."""
        for module, callable_, callee, node, _ in self.callables():
            own = (module, _first_line(node), node.end_lineno)
            for arg in node.args.kwonlyargs:
                yield f"{module}.{callable_}({arg.arg}=)", callee, arg.arg, own

    def defaulted_parameters(self) -> Iterator[tuple[str, str, int, str, tuple[str, int, int]]]:
        """``(module.callable(name=), callee, position, name, own)`` for every
        defaulted positional-or-keyword parameter of a public callable:
        ``position`` counts the arguments a call passes before it, ``own``
        is ``(module, first line, last line)`` of the callable's definition."""
        for module, callable_, callee, node, skip in self.callables():
            positional = node.args.posonlyargs + node.args.args
            own = (module, _first_line(node), node.end_lineno)
            for index in range(len(positional) - len(node.args.defaults), len(positional)):
                name = positional[index].arg
                yield f"{module}.{callable_}({name}=)", callee, index - skip, name, own

    def config_fields(self) -> Iterator[tuple[str, str, int, str, tuple[str, int, int]]]:
        """``(module.Class.field, Class, position, field, own)`` for every
        field of the :data:`INTERNAL_CONFIGS` dataclasses, ``own`` being the
        class's definition."""
        for module, name in INTERNAL_CONFIGS:
            (cls,) = [
                node for node in self.trees[module].body
                if isinstance(node, ast.ClassDef) and node.name == name
            ]
            own = (module, _first_line(cls), cls.end_lineno)
            fields = [
                node.target.id for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            ]
            for index, field in enumerate(fields):
                yield f"{module}.{name}.{field}", name, index, field, own

    def bases(self, module: str, cls: ast.ClassDef) -> Iterator[tuple[str, ast.ClassDef] | type]:
        """Every ancestor of ``cls`` the source names: ``(module, ClassDef)``
        for one of ours, the class object itself (imported) for another
        package's."""
        todo, seen = [(module, cls)], set()
        while todo:
            module, cls = todo.pop()
            for expr in cls.bases:
                base = self._base(module, expr.value if isinstance(expr, ast.Subscript) else expr)
                if isinstance(base, tuple) and (base[0], base[1].name) not in seen:
                    seen.add((base[0], base[1].name))
                    todo.append(base)
                if base is not None:
                    yield base

    def _base(self, module: str, expr: ast.expr) -> tuple[str, ast.ClassDef] | type | None:
        path = []
        while isinstance(expr, ast.Attribute):
            path.insert(0, expr.attr)
            expr = expr.value
        if not isinstance(expr, ast.Name):
            return None
        bound = self.bindings(module)
        if expr.id not in bound:
            source, name = "builtins", expr.id
        elif bound[expr.id] is None:
            source, name = module, expr.id
        else:
            source, name = bound[expr.id]
        if self._ours(source):
            definer = self.definer(source, name) if name else None
            found = [
                node for node in self.trees.get(definer, ast.Module([], [])).body
                if isinstance(node, ast.ClassDef) and node.name == name
            ]
            return (definer, found[0]) if found and not path else None
        target = builtins if source == "builtins" else importlib.import_module(source)
        for attr in ([name] if name else []) + path:
            target = getattr(target, attr, None)  # None: a class local to a function
        return target

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


def _first_line(node: ast.stmt) -> int:
    """Where a definition starts, its decorators included."""
    return min([d.lineno for d in getattr(node, "decorator_list", ())] + [node.lineno])


#: a string literal that names code: an identifier or a dotted path
_NAME_LITERAL = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _literal_names(tree: ast.AST) -> Iterator[tuple[int, str]]:
    """``(line, text)`` for every name a ``.py`` file's string literals
    carry: a string that is wholly an identifier or a dotted path (a
    ``getattr`` argument, a registry key), and the names and attributes in
    an f-string's replacement fields. A docstring, a comment or any other
    text in a string — a message naming a function — carries none."""
    # an f-string's literal text and a string standing as a statement
    prose = {
        id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
        for part in node.values
    } | {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.FormattedValue):
            for inner in ast.walk(node.value):
                if isinstance(inner, ast.Name):
                    yield inner.lineno, inner.id
                elif isinstance(inner, ast.Attribute):
                    yield inner.lineno, inner.attr
        elif (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in prose and _NAME_LITERAL.fullmatch(node.value)
        ):
            yield node.lineno, node.value


def words(path: Path, skip: list[ast.stmt] = ()) -> set[str]:
    """Every identifier-like word of ``path`` outside the ``skip``
    statements. A ``.py`` file is read as code: its names and the names its
    string literals carry (:func:`_literal_names`); a word in a comment, a
    docstring or a message is prose, not a use."""
    skipped = {line for node in skip for line in range(node.lineno, node.end_lineno + 1)}
    text = path.read_text()
    if path.suffix != ".py":
        chunks = list(enumerate(text.splitlines(), 1))
    else:
        chunks = [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(io.StringIO(text).readline)
            if token.type == tokenize.NAME
        ] + list(_literal_names(ast.parse(text, str(path))))
    return {
        word for line, chunk in chunks if line not in skipped
        for word in re.findall(r"\w+", chunk)
    }


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


def references(tree: ast.AST) -> Iterator[tuple[str, int]]:
    """``(name, line)`` for every attribute and ``getattr``-family string
    literal in ``tree``. A bare name is not one: a method is reached
    through its object, and a local ``load`` says nothing about
    ``SearchResult.load``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr", "setattr", "delattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            yield str(node.args[1].value), node.lineno


def unreferenced_methods(tree: SourceTree, others: list[Path]) -> list[str]:
    """``module.Class.method`` for each public method or property nothing
    references outside its own definition (getter, setter and deleter
    together) and that overrides no referenced base-class method."""
    where: dict[str, list[tuple[str, int]]] = {}
    for place, parsed in _parsed(tree, others):
        for name, line in references(parsed):
            where.setdefault(name, []).append((place, line))
    for path in others:
        if path.suffix != ".py":
            for word in words(path):
                where.setdefault(word, []).append((str(path), 0))

    def referenced(module: str, cls: ast.ClassDef, name: str) -> bool:
        own = [
            (_first_line(item), item.end_lineno)
            for item in cls.body if getattr(item, "name", None) == name
        ]
        return any(
            where_module != module or not any(lo <= line <= hi for lo, hi in own)
            for where_module, line in where.get(name, ())
        )

    def overrides_live(module: str, cls: ast.ClassDef, name: str) -> bool:
        for base in tree.bases(module, cls):
            if not isinstance(base, tuple):
                if hasattr(base, name):
                    return True
            elif any(getattr(item, "name", None) == name for item in base[1].body):
                if referenced(base[0], base[1], name):
                    return True
        return False

    return sorted(
        f"{module}.{cls.name}.{name}" for module, cls, name in tree.methods()
        if not referenced(module, cls, name) and not overrides_live(module, cls, name)
    )


def passed_keywords(paths: list[Path]) -> set[str]:
    """Every ``name`` some call in ``paths`` passes as ``name=``, whatever
    it calls; ``f(**kwargs)`` passes nothing."""
    return {
        keyword.arg
        for path in paths if path.suffix == ".py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        for keyword in node.keywords if keyword.arg is not None
    }


def unpassed_keywords(tree: SourceTree, others: list[Path]) -> list[str]:
    """``module.callable(name=)`` for each keyword-only parameter that no
    call in ``src/`` or ``others`` passes by name, or that no call of its own
    callable outside the callable's body can carry: by name, through a
    ``**`` spread, or the callable handed over as a value."""
    passed = passed_keywords(list(tree.paths.values()) + others)
    uses = _uses(tree, others)
    return sorted(
        key for key, callee, name, own in tree.keyword_parameters()
        if name not in passed or not any(
            (name in keywords or None in keywords) and _outside(own, where, line)
            for where, line, _, keywords in uses.get(callee, ())
        )
    )


#: the positional count of a call that may reach every parameter:
#: ``f(*args)``, ``f(**kwargs)``, or a callable handed over as a value
EVERY = sys.maxsize


def _parsed(tree: SourceTree, others: list[Path]) -> Iterator[tuple[str, ast.Module]]:
    """``(where, parsed)`` for every module of ``tree`` (``where`` is its
    dotted name) and every ``.py`` file of ``others`` (its path)."""
    yield from tree.trees.items()
    for path in others:
        if path.suffix == ".py":
            yield str(path), ast.parse(path.read_text(), str(path))


def _name(node: ast.expr) -> str | None:
    """What ``f`` or ``obj.f`` spells; ``None`` for any other expression."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _spread(call: ast.Call) -> bool:
    return any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    )


def calls(tree: ast.AST) -> Iterator[tuple[str, int, int, frozenset[str | None]]]:
    """``(callee, line, positional count, keywords)`` for every call in
    ``tree`` — ``cls(...)`` calls the enclosing class, ``super().__init__``
    its bases — and, as a call that passes everything (:data:`EVERY`
    positions, ``None`` among the keywords: any name), for every name or
    attribute handed over as a value: ``as_completed(evaluate_candidate,
    ...)``. A ``**`` spread puts ``None`` among a call's keywords. An
    annotation is not a value."""
    annotations, called, enclosing = set(), set(), {}
    for node in ast.walk(tree):
        note = getattr(node, "annotation", None) or getattr(node, "returns", None)
        annotations.update(map(id, ast.walk(note)) if note else ())
        if isinstance(node, ast.ClassDef):  # outer classes first: an inner one overrides
            enclosing.update((id(inner), node) for inner in ast.walk(node))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            called.add(id(node.func))
            count = EVERY if _spread(node) else len(node.args)
            keywords = frozenset(k.arg for k in node.keywords)
            callee, cls = _name(node.func), enclosing.get(id(node))
            if callee == "cls" and cls is not None:
                callees = [cls.name]
            elif callee == "__init__" and isinstance(node.func.value, ast.Call) and cls is not None:
                callees = [_name(base) for base in cls.bases]  # super().__init__(...)
            else:
                callees = [callee]
            yield from ((c, node.lineno, count, keywords) for c in callees if c)
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            and id(node) not in called and id(node) not in annotations
        ):
            yield _name(node), node.lineno, EVERY, frozenset([None])


def _outside(own: tuple[str, int, int], where: str, line: int) -> bool:
    module, first, last = own
    return where != module or not first <= line <= last


def _uses(
    tree: SourceTree, others: list[Path]
) -> dict[str, list[tuple[str, int, int, frozenset[str | None]]]]:
    """``callee -> [(where, line, positional count, keywords)]`` over every
    call (:func:`calls`) in ``src/`` and ``others``."""
    uses: dict[str, list[tuple[str, int, int, frozenset[str | None]]]] = {}
    for where, parsed in _parsed(tree, others):
        for callee, line, count, keywords in calls(parsed):
            uses.setdefault(callee, []).append((where, line, count, keywords))
    return uses


def unpassed_defaults(tree: SourceTree, others: list[Path]) -> list[str]:
    """``module.callable(name=)`` for each defaulted positional-or-keyword
    parameter no call in ``src/`` or ``others`` outside the callable's own
    body reaches, by name or by position."""
    uses = _uses(tree, others)
    return sorted(
        key for key, callee, position, name, own in tree.defaulted_parameters()
        if not any(
            (count > position or name in keywords) and _outside(own, where, line)
            for where, line, count, keywords in uses.get(callee, ())
        )
    )


def unset_fields(tree: SourceTree, others: list[Path]) -> list[str]:
    """``module.Class.field`` for each :data:`INTERNAL_CONFIGS` field no
    call in ``src/`` or ``others`` outside the class sets. A call builds
    ``Class`` when it calls it, or hands it over with the settings
    (``_checked(EvaluationConfig, max_steps=...)``): it sets the fields its
    keywords name, the first ones by position, all of them through ``*``
    or ``**``. ``dataclasses.replace(obj, name=)`` sets ``name`` on every
    config that has it."""
    configs = {name for _, name in INTERNAL_CONFIGS}
    built: list[tuple[str, str, int, int, frozenset[str]]] = []
    for where, parsed in _parsed(tree, others):
        for node in ast.walk(parsed):
            if not isinstance(node, ast.Call):
                continue
            keywords = frozenset(k.arg for k in node.keywords if k.arg)
            callee = _name(node.func)
            count = EVERY if _spread(node) else len(node.args)
            if callee in configs:
                built.append((callee, where, node.lineno, count, keywords))
            for arg in node.args:
                if _name(arg) in configs and callee not in configs:
                    built.append((_name(arg), where, node.lineno, EVERY * _spread(node), keywords))
            if callee == "replace":
                built += [(config, where, node.lineno, 0, keywords) for config in configs]
    return sorted(
        key for key, config, position, field, own in tree.config_fields()
        if not any(
            (count > position or field in keywords) and _outside(own, where, line)
            for built_config, where, line, count, keywords in built if built_config == config
        )
    )


def knob_total(tree: SourceTree) -> int:
    """ROADMAP aim 2's count of independently settable values: keyword-only
    and defaulted positional-or-keyword parameters of public callables, and
    fields of the internal configs."""
    return sum(1 for _ in tree.keyword_parameters()) + sum(
        1 for _ in tree.defaulted_parameters()
    ) + sum(1 for _ in tree.config_fields())


def _outside_sources() -> list[Path]:
    """What besides ``src/`` may keep a name or a method alive."""
    return [
        path for pattern in ("benchmarks/**/*.py", "scripts/*", "examples/*.py")
        for path in sorted(REPO.glob(pattern)) if path.suffix in (".py", ".sh")
    ]


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


def _method_keys(tree: SourceTree) -> set[str]:
    return {f"{module}.{cls.name}.{name}" for module, cls, name in tree.methods()}


def test_every_exported_name_is_referenced_or_says_why(tree):
    dead = unreferenced_exports(tree, _outside_sources())
    ledger = set(TEST_ONLY) - _method_keys(tree)
    stale = sorted(ledger - set(dead))
    assert not stale, f"TEST_ONLY entries that are referenced, or gone (drop them): {stale}"
    unexplained = sorted(set(dead) - ledger)
    assert not unexplained, (
        "exported names only tests/ references — delete them with their tests, "
        f"or add them to TEST_ONLY with a reason: {unexplained}"
    )
    assert all(TEST_ONLY.values())


def test_every_public_method_is_referenced_or_says_why(tree):
    dead = unreferenced_methods(tree, _outside_sources())
    ledger = set(TEST_ONLY) & _method_keys(tree)
    stale = sorted(ledger - set(dead))
    assert not stale, f"TEST_ONLY methods that are referenced (drop them): {stale}"
    unexplained = sorted(set(dead) - ledger)
    assert not unexplained, (
        "public methods only tests/ calls — delete them with their tests, "
        f"or add them to TEST_ONLY with a reason: {unexplained}"
    )


def test_every_keyword_is_passed_or_says_why(tree):
    dead = unpassed_keywords(tree, _outside_sources())
    stale = sorted(set(TEST_ONLY_KEYWORDS) - set(dead))
    assert not stale, f"TEST_ONLY_KEYWORDS entries that are passed, or gone (drop them): {stale}"
    unexplained = sorted(set(dead) - set(TEST_ONLY_KEYWORDS))
    assert not unexplained, (
        "keyword-only parameters only tests/ passes — make them module constants, delete "
        f"them with the branches they select, or add them to TEST_ONLY_KEYWORDS: {unexplained}"
    )
    assert all(TEST_ONLY_KEYWORDS.values())


def test_every_defaulted_parameter_is_passed_or_says_why(tree):
    dead = unpassed_defaults(tree, _outside_sources())
    stale = sorted(set(TEST_ONLY_DEFAULTS) - set(dead))
    assert not stale, f"TEST_ONLY_DEFAULTS entries that are passed, or gone (drop them): {stale}"
    unexplained = sorted(set(dead) - set(TEST_ONLY_DEFAULTS))
    assert not unexplained, (
        "defaulted parameters only tests/ passes — make them constants, delete them with "
        f"the branches they select, or add them to TEST_ONLY_DEFAULTS: {unexplained}"
    )
    assert all(TEST_ONLY_DEFAULTS.values())


def test_every_config_field_is_set_or_says_why(tree):
    dead = unset_fields(tree, _outside_sources())
    stale = sorted(set(TEST_ONLY_FIELDS) - set(dead))
    assert not stale, f"TEST_ONLY_FIELDS entries that are set, or gone (drop them): {stale}"
    unexplained = sorted(set(dead) - set(TEST_ONLY_FIELDS))
    assert not unexplained, (
        "internal config fields only tests/ sets — make them constants, delete them with "
        f"the branches they select, or add them to TEST_ONLY_FIELDS: {unexplained}"
    )
    assert all(TEST_ONLY_FIELDS.values())


def test_the_knob_total_stays_under_its_ceiling(tree):
    total = knob_total(tree)
    assert total <= KNOB_CEILING, (
        f"{total} knobs, more than the committed ceiling of {KNOB_CEILING}: a new setting "
        "needs a caller outside tests/ and a lower knob elsewhere"
    )


def test_every_experiments_module_is_behind_a_bench(tree):
    imported = {
        source if name is None else tree.definer(source, name)
        for path in sorted(REPO.glob("benchmarks/bench_*.py"))
        for _, source, name in tree.imports(ast.parse(path.read_text(), str(path)))
    }
    drivers = {module for module in tree.modules() if module.startswith("repro.experiments.")}
    assert drivers, "repro.experiments has no modules; was the package moved?"
    unbenched = sorted(drivers - imported)
    assert not unbenched, (
        "repro.experiments.* is a serving root only because benches import it: "
        f"delete these, or import them from a benchmarks/bench_*.py: {unbenched}"
    )


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


def test_a_keyword_lives_only_by_a_call_of_its_own_callable(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "knobs.py").write_text(
        "def fit(data, *, rate=0.1):\n"
        "    return data\n"
        "def tune(data, *, rate=0.1):\n"
        "    return data\n"
        "def solve(data, *, tries=3):\n"
        "    return solve(data, tries=tries - 1) if tries else data\n"
        "def spread(data, *, clip=5.0):\n"
        "    return data\n"
        "def handed(data, *, width=4):\n"
        "    return data\n"
    )
    bench = tmp_path / "bench.py"
    bench.write_text(
        "from functools import partial\n"
        "from pkg.knobs import fit, handed, solve, spread, tune\n"
        "tune(fit([1]), rate=0.5)\n"
        "solve([1])\n"
        "settings = dict(clip=1.0)\n"
        "spread([1], **settings)\n"
        "narrow = partial(handed, width=2)\n"
    )
    synthetic = SourceTree(tmp_path, "pkg")
    # `rate=` reaches `tune` only, a same-named parameter of another
    # callable; `tries=` only `solve`'s own body forwards; `**settings`
    # can carry `clip=` and `partial` is handed `handed` as a value
    assert unpassed_keywords(synthetic, [bench]) == [
        "pkg.knobs.fit(rate=)", "pkg.knobs.solve(tries=)",
    ]


def test_a_method_lives_by_attribute_reference_or_override(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "pool.py").write_text(
        "from http.server import BaseHTTPRequestHandler\n"
        "class Pool:\n"
        "    def map(self, fn, items):\n"
        "        return [fn(i) for i in items]\n"
        "    def lonely(self):\n"
        "        return self.lonely()\n"
        "class Step:\n"
        "    def run(self):\n"
        "        pass\n"
        "class Loud(Step):\n"
        "    def run(self):\n"
        "        return super().run()\n"
        "class Handler(BaseHTTPRequestHandler):\n"
        "    def log_message(self, *args):\n"
        "        pass\n"
        "    def not_a_hook(self):\n"
        "        pass\n"
        "class Record:\n"
        "    def load(self):\n"
        "        pass\n"
        "def load():\n"
        "    return load\n"
    )
    bench = tmp_path / "bench.py"
    bench.write_text(
        "from pkg.pool import load\ndef main(pool):\n    return pool.map(str, [load()])\n"
    )
    synthetic = SourceTree(tmp_path, "pkg")
    # `Loud.run` is named only inside itself, but overrides `Step.run`, which
    # its body references; `log_message` is a stdlib handler hook; the
    # bench's `load()` is the unrelated function, not `Record.load`
    assert unreferenced_methods(synthetic, [bench]) == [
        "pkg.pool.Handler.not_a_hook", "pkg.pool.Pool.lonely", "pkg.pool.Record.load",
    ]
    # without the benchmark's `pool.map` nothing calls it
    assert "pkg.pool.Pool.map" in unreferenced_methods(synthetic, [])


def test_a_keyword_lives_by_a_call_outside_tests(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "knobs.py").write_text(
        "def fit(data, *, rate=0.1, tries=3, clip=5.0):\n"
        "    return data\n"
        "def forward(**kwargs):\n"
        "    return fit([], **kwargs)\n"
        "class Model:\n"
        "    def __init__(self, *, width=4):\n"
        "        pass\n"
        "    def _hidden(self, *, depth=1):\n"
        "        pass\n"
        "class _Private:\n"
        "    def run(self, *, fast=True):\n"
        "        pass\n"
    )
    bench = tmp_path / "bench.py"
    bench.write_text("from pkg.knobs import fit\nfit([1], rate=0.5)\n")
    test = tmp_path / "test_knobs.py"
    test.write_text("from pkg.knobs import Model, fit\nfit([], tries=1)\nModel(width=2)\n")
    synthetic = SourceTree(tmp_path, "pkg")
    assert {key for key, *_ in synthetic.keyword_parameters()} == {
        "pkg.knobs.fit(rate=)", "pkg.knobs.fit(tries=)", "pkg.knobs.fit(clip=)",
        "pkg.knobs.Model(width=)",
    }
    # the bench keeps `rate=`; `tries=` and `width=` only a test passes;
    # `clip=` would reach `fit` only through the **kwargs forward
    assert unpassed_keywords(synthetic, [bench]) == [
        "pkg.knobs.Model(width=)", "pkg.knobs.fit(clip=)", "pkg.knobs.fit(tries=)",
    ]
    assert unpassed_keywords(synthetic, [bench, test]) == ["pkg.knobs.fit(clip=)"]


def test_a_defaulted_parameter_lives_by_a_call_that_reaches_it(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "opt.py").write_text(
        "class Optimizer:\n"
        "    def __init__(self, maxiter=100, rate=0.1, tol=1e-6):\n"
        "        pass\n"
        "    def run(self, fn, x0, budget=10):\n"
        "        return self.run(fn, x0, budget)\n"
        "def evaluate(tokens, p=1, warm=None):\n"
        "    return tokens\n"
        "def scores(values: list, axis: int = -1, ordered: bool = True):\n"
        "    return values\n"
        "def as_completed(fn, items):\n"
        "    return [fn(i) for i in items]\n"
        "def _private(x, y=1):\n"
        "    return x\n"
    )
    bench = tmp_path / "bench.py"
    bench.write_text(
        "from pkg.opt import Optimizer, as_completed, evaluate, scores\n"
        "opt = Optimizer(50, 0.2)\n"
        "as_completed(evaluate, [1])\n"
        "opt.run(print, [0.0])\n"
        "note: scores = None\n"
        "scores([1.0], ordered=False)\n"
    )
    test = tmp_path / "test_opt.py"
    test.write_text("from pkg.opt import Optimizer\nOptimizer(tol=1e-3)\n")
    synthetic = SourceTree(tmp_path, "pkg")
    assert {key for key, *_ in synthetic.defaulted_parameters()} == {
        "pkg.opt.Optimizer(maxiter=)", "pkg.opt.Optimizer(rate=)", "pkg.opt.Optimizer(tol=)",
        "pkg.opt.Optimizer.run(budget=)", "pkg.opt.evaluate(p=)", "pkg.opt.evaluate(warm=)",
        "pkg.opt.scores(axis=)", "pkg.opt.scores(ordered=)",
    }
    # the bench reaches `maxiter`/`rate` by position, `ordered` by name and
    # every parameter of `evaluate`, handed over as a value; `tol` only a
    # test passes; `run` passes `budget` only to itself; an annotation of
    # `scores` is not a value, so nothing reaches its `axis`
    assert unpassed_defaults(synthetic, [bench]) == [
        "pkg.opt.Optimizer(tol=)", "pkg.opt.Optimizer.run(budget=)", "pkg.opt.scores(axis=)",
    ]
    assert "pkg.opt.Optimizer(tol=)" not in unpassed_defaults(synthetic, [bench, test])


def test_a_config_field_lives_by_a_setting_outside_tests(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "core").mkdir(parents=True)
    for init in (pkg / "__init__.py", pkg / "core" / "__init__.py"):
        init.write_text("")
    configs = {
        "evaluator": "EvaluationConfig", "search": "SearchConfig", "runtime": "RuntimeConfig",
    }
    for module, name in configs.items():
        (pkg / "core" / f"{module}.py").write_text(
            f"class {name}:\n    steps: int = 1\n    seed: int = 0\n    depth: int = 2\n"
            "    LIMIT = 3\n"
        )
    (pkg / "api.py").write_text(
        "from pkg.core.evaluator import EvaluationConfig\n"
        "from pkg.core.runtime import RuntimeConfig\n"
        "from pkg.core.search import SearchConfig\n"
        "def _checked(build, **settings):\n    return build(**settings)\n"
        "class Config:\n"
        "    def evaluation_config(self):\n"
        "        return _checked(EvaluationConfig, steps=self.steps)\n"
        "    def search_config(self):\n"
        "        return SearchConfig(4, 1)\n"
        "    def runtime_config(self):\n"
        "        return RuntimeConfig(**vars(self))\n"
    )
    test = tmp_path / "test_config.py"
    test.write_text(
        "from pkg.core.evaluator import EvaluationConfig\nEvaluationConfig(depth=5)\n"
    )
    synthetic = SourceTree(tmp_path, "pkg")
    internal = [(f"pkg.core.{module}", name) for module, name in configs.items()]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys.modules[__name__], "INTERNAL_CONFIGS", internal)
        assert len(list(synthetic.config_fields())) == 9  # a class constant is no field
        # the mapping sets `steps` by name; the search config is built
        # positionally up to `seed`; `**` sets every runtime field;
        # `depth` of the evaluation config only a test sets
        assert unset_fields(synthetic, []) == [
            "pkg.core.evaluator.EvaluationConfig.depth",
            "pkg.core.evaluator.EvaluationConfig.seed",
            "pkg.core.search.SearchConfig.depth",
        ]
        assert "pkg.core.evaluator.EvaluationConfig.depth" not in unset_fields(
            synthetic, [test]
        )


def test_a_name_in_prose_alone_is_not_a_use(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "lib.py").write_text(
        '__all__ = ["coded", "commented", "documented", "quoted"]\n'
        "def coded():\n    pass\n"
        "def commented():\n    pass\n"
        "def documented():\n    pass\n"
        "def quoted():\n    pass\n"
    )
    (pkg / "user.py").write_text(
        '"""Module prose: see documented()."""\n'
        "from pkg import lib\n"
        "def run():\n"
        '    """Calls coded, not documented."""\n'
        "    # commented() used to run here\n"
        '    return lib.coded(), getattr(lib, "quoted")\n'
    )
    synthetic = SourceTree(tmp_path, "pkg")
    assert unreferenced_exports(synthetic, []) == [
        "pkg.lib.commented", "pkg.lib.documented",
    ]
    # a shell script is still read by word
    script = tmp_path / "run.sh"
    script.write_text("# documented and commented\n")
    assert unreferenced_exports(synthetic, [script]) == []


def _messages_package(tmp_path, names, user):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "lib.py").write_text(
        f"__all__ = {names}\n" + "".join(f"def {name}():\n    pass\n" for name in names)
    )
    (pkg / "user.py").write_text("from pkg import lib\n" + user)
    return SourceTree(tmp_path, "pkg")


def test_a_message_naming_a_function_keeps_nothing_alive(tmp_path):
    """An error text that says "use messaged" is prose, in a plain string or
    in an f-string's literal text alike: it keeps ``messaged`` no more alive
    than a comment would."""
    synthetic = _messages_package(
        tmp_path, ["coded", "messaged", "worded"],
        "def run(n):\n"
        "    if n > 24:\n"
        "        raise ValueError('intractable; use messaged')\n"
        "    print(f'{n} nodes: worded would be faster')\n"
        "    return lib.coded()\n",
    )
    assert unreferenced_exports(synthetic, []) == ["pkg.lib.messaged", "pkg.lib.worded"]
    # a shell script is still read by word
    script = tmp_path / "run.sh"
    script.write_text("# messaged and worded\n")
    assert unreferenced_exports(synthetic, [script]) == []


def test_a_literal_name_or_a_replacement_field_is_a_use(tmp_path):
    """A string that is wholly a name or a dotted path (a registry key, a
    ``getattr`` argument) and a name in an f-string's replacement field are
    code, so each keeps its function alive."""
    synthetic = _messages_package(
        tmp_path, ["dotted", "formatted", "quoted", "unused"],
        "REGISTRY = ['pkg.lib.dotted']\n"
        "def run(n):\n"
        "    print(f'{lib.formatted()} on {n} nodes')\n"
        '    return getattr(lib, "quoted")\n',
    )
    assert unreferenced_exports(synthetic, []) == ["pkg.lib.unused"]


@pytest.mark.parametrize(
    "pattern", ["examples/*.py", "benchmarks/*.py", "benchmarks/e2e/*.py", "scripts/*.py"]
)
def test_imports_outside_src_resolve(tree, pattern):
    paths = sorted(REPO.glob(pattern))
    assert paths, f"{pattern} matches nothing; was the directory moved?"
    problems = [problem for path in paths for problem in tree.unresolved(path)]
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    print(f"knobs: {knob_total(SourceTree(REPO / 'src'))}")
