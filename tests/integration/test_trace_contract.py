"""The names ``benchmarks/e2e/trace.py`` patches are a contract with ``src``.

The traced benchmark pass wraps ``SearchRuntime.run``, ``ResultCache.claim``,
``JobScheduler.as_completed``, ... by name, reading methods from the class's
own ``__dict__``. CI runs the harness with ``--trace 0`` only, so a refactor
that renames or inherits one of them would pass CI and break the per-layer
pass; here it fails in tier-1 instead. ``trace.py`` is imported unmodified.
"""

from pathlib import Path

from repro.core.runtime import SearchRuntime

REPO = Path(__file__).resolve().parents[2]


def test_every_name_the_traced_pass_wraps_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "benchmarks"))
    from e2e.trace import Tracer, install

    original = SearchRuntime.__dict__["run"]
    tracer = Tracer()
    try:
        install(tracer, in_worker_processes=False)
        assert SearchRuntime.__dict__["run"] is not original
    finally:
        tracer.uninstall()
    assert SearchRuntime.__dict__["run"] is original
