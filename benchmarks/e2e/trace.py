"""Spans around the program's public callables, recorded from outside.

The program under test has no tracing of its own at the layer boundaries
this benchmark budgets, so the traced run installs timing wrappers by
attribute replacement — on classes for methods, on every ``repro`` module
that imported the name for functions — and removes them afterwards.
Spans are kept in memory as ``(id, parent, sweep, name, start, end)`` and
written as JSON lines when the run ends. Parents come from a per-thread
stack; a sweep id is the id of the root span (one ``api.search`` call or
one service job) that everything beneath it inherits.

Self time of a span is its duration minus the part of its interval that
its children cover. Children may run on other threads (the service fleet)
and so overlap each other or outlive the parent: the union of their
intervals, clipped to the parent, is what is subtracted.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from collections.abc import Callable, Iterable
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

__all__ = ["Span", "Tracer", "covered", "install", "self_times"]


class Span(NamedTuple):
    id: int
    parent: int | None
    sweep: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; owns the wrappers it installed so it can undo them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: work counted at a span boundary (rows of a batched call), by
        #: ``(span name, sweep id)``
        self.counts: dict[tuple[str, int | None], int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[tuple[int, int | None]]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self, root: bool) -> tuple[int, int | None, int | None]:
        stack = self._stack()
        span_id = next(self._ids)
        parent, sweep = stack[-1] if stack else (None, None)
        if root:
            sweep = span_id
        stack.append((span_id, sweep))
        return span_id, parent, sweep

    def _close(self, opened: tuple, name: str, start: float) -> None:
        end = perf_counter()
        self._stack().pop()
        self.spans.append(Span(*opened, name, start, end))

    def traced(
        self,
        original: Callable,
        name: str,
        *,
        root: bool = False,
        count: Callable[..., int] | None = None,
    ) -> Callable:
        """``original`` wrapped in a span called ``name``. ``root`` starts
        a new sweep id; ``count`` maps the call's arguments to units of
        work added to ``self.counts[name, sweep]``."""
        if inspect.isgeneratorfunction(original):
            return self._traced_generator(original, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            opened = self._open(root)
            if count is not None:
                self.counts[name, opened[2]] += count(*args, **kwargs)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._close(opened, name, start)

        return wrapper

    def _traced_generator(self, original: Callable, name: str) -> Callable:
        """One span per resumption: the time between a ``yield`` and the
        next ``next()`` belongs to the consumer, not to the generator."""

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            generator = original(*args, **kwargs)
            try:
                while True:
                    opened = self._open(False)
                    start = perf_counter()
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        self._close(opened, name, start)
                    yield item
            finally:
                generator.close()

        return wrapper

    def phase(self, name: str):
        """Context manager the harness puts around each phase it drives;
        root spans are assigned to the phase whose interval they start in."""
        return _Phase(self, f"phase.{name}")

    # -- installing --------------------------------------------------------

    def wrap_method(self, owner: type, attr: str, name: str, **options) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.traced(original, name, **options))

    def wrap_function(self, module: object, attr: str, name: str, **options) -> None:
        """Replace a module-level function wherever ``repro`` bound it:
        ``from x import f`` copies the reference, so each importing module
        holds its own."""
        original = getattr(module, attr)
        wrapper = self.traced(original, name, **options)
        for module_name, candidate in list(sys.modules.items()):
            if candidate is None or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(candidate).items()):
                if value is original:
                    self._undo.append((candidate, key, original))
                    setattr(candidate, key, wrapper)

    def carry_context(self, owner: type, attr: str = "submit") -> None:
        """Make an executor's ``submit(fn, *args)`` run ``fn`` under the
        submitting thread's current span, so work handed to a fleet thread
        stays in its sweep's tree."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def submit(executor, fn, *args):
            context = tracer._stack()[-1:]

            def in_context(*call_args):
                stack = tracer._stack()
                saved = stack[:]
                stack[:] = context
                try:
                    return fn(*call_args)
                finally:
                    stack[:] = saved

            return original(executor, in_context, *args)

        self._undo.append((owner, attr, original))
        setattr(owner, attr, submit)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


class _Phase:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> None:
        self.opened = self.tracer._open(False)
        self.start = perf_counter()

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.opened, self.name, self.start)


# -- the wrapped callables ---------------------------------------------------


def _rows(_program, X) -> int:
    """Rows of a batched ``energies``/``gradients`` call."""
    first = X[0]
    return len(X) if hasattr(first, "__len__") else 1


def install(tracer: Tracer, *, in_worker_processes: bool) -> None:
    """Wrap every layer boundary the per-layer table names.

    With ``in_worker_processes`` the evaluation runs in pool workers the
    wrappers cannot see (and a wrapped ``evaluate_candidate`` would not
    pickle), so everything from the evaluator down is left alone and the
    run is traced from the parent only.
    """
    import repro.api as api
    from repro.core import cache, evaluator, qbuilder, runtime, search
    from repro.optimizers.restarts import MultiRestart
    from repro.parallel.async_executor import AsyncExecutor
    from repro.parallel.executor import MultiprocessingExecutor
    from repro.parallel.jobs import JobScheduler
    from repro.qaoa.ansatz import QAOAAnsatz
    from repro.service.jobs import JobQueue
    from repro.service.multiplexer import SweepMultiplexer
    from repro.service.server import SearchService
    from repro.simulators.compiled import CompiledProgram

    tracer.wrap_function(api, "search", "api.search", root=True)
    tracer.wrap_function(api, "resolve_workload_spec", "api.resolve")
    tracer.wrap_function(api, "reconcile_workload", "api.resolve")
    for attr in ("search_config", "runtime_config"):
        tracer.wrap_method(api.Config, attr, "api.resolve")
    tracer.wrap_function(evaluator, "classical_optima", "workloads.classical_optimum")

    tracer.wrap_function(search, "search_mixer", "core.runtime.search_mixer")
    tracer.wrap_method(runtime.SearchRuntime, "__init__", "core.runtime.init")
    tracer.wrap_method(runtime.SearchRuntime, "run", "core.runtime.run")

    for attr in ("get", "put", "flush", "claim", "wait_for"):
        tracer.wrap_method(cache.ResultCache, attr, f"core.cache.{attr}")
    tracer.wrap_method(cache.ResultCache, "__init__", "core.cache.open")
    tracer.wrap_method(cache.ResultCache, "close", "core.cache.close")
    tracer.wrap_method(cache.SweepCheckpoint, "__init__", "core.cache.open")
    tracer.wrap_method(cache.SweepCheckpoint, "load_depth", "core.cache.checkpoint_load")
    tracer.wrap_method(cache.SweepCheckpoint, "save_depth", "core.cache.checkpoint_save")

    tracer.wrap_method(JobScheduler, "as_completed", "parallel.as_completed")
    tracer.wrap_method(MultiprocessingExecutor, "__init__", "parallel.pool_start")
    tracer.wrap_method(MultiprocessingExecutor, "close", "parallel.pool_close")
    tracer.carry_context(AsyncExecutor)

    if not in_worker_processes:
        tracer.wrap_function(
            evaluator, "evaluate_candidate", "core.evaluator.evaluate_candidate"
        )
        tracer.wrap_method(qbuilder.QBuilder, "build_qaoa", "core.evaluator.build")
        tracer.wrap_method(QAOAAnsatz, "compile", "simulators.compiled.compile")
        tracer.wrap_method(
            MultiRestart, "minimize_population", "optimizers.minimize_population"
        )
        tracer.wrap_method(CompiledProgram, "energy", "simulators.compiled.energy")
        tracer.wrap_method(
            CompiledProgram, "energies", "simulators.compiled.energies", count=_rows
        )
        tracer.wrap_method(CompiledProgram, "gradient", "simulators.compiled.gradient")
        tracer.wrap_method(
            CompiledProgram, "gradients", "simulators.compiled.gradients", count=_rows
        )

    for attr in ("submit", "status", "result"):
        tracer.wrap_method(SearchService, attr, f"service.server.{attr}")
    for attr in ("submit", "claim_next", "mark_done", "get"):
        tracer.wrap_method(JobQueue, attr, f"service.jobs.{attr}")
    tracer.wrap_method(
        SweepMultiplexer, "run_spec", "service.multiplexer.run_spec", root=True
    )


# -- arithmetic on spans -----------------------------------------------------


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` inside ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span, by span id."""
    spans = list(spans)
    children: dict[int | None, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered(children[span.id], span.start, span.end)
        for span in spans
    }
