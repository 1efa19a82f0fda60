"""The names ``benchmarks/e2e/trace.py`` patches are a contract with ``src``.

The traced benchmark pass wraps ``SearchRuntime.run``, ``ResultCache.claim``,
``JobScheduler.as_completed``, ... by name, reading methods from the class's
own ``__dict__``. CI runs the harness with ``--trace 0`` only, so a refactor
that renames or inherits one of them would pass CI and break the per-layer
pass; here it fails in tier-1 instead. ``trace.py`` is imported unmodified.
"""

import subprocess
import sys
from pathlib import Path

import pytest

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


#: run in a fresh interpreter, as ``benchmarks/e2e/run.py --trace 1`` starts
#: one: install for one flag value, then uninstall, and check that every
#: name the tracer replaced is its original again
_CHILD = """
import sys
sys.path[:0] = [{src!r}, {benchmarks!r}]
from e2e.trace import Tracer, install
tracer = Tracer()
install(tracer, in_worker_processes={flag})
wrapped = list(tracer._undo)
assert wrapped
tracer.uninstall()
assert all(vars(owner)[attr] is original for owner, attr, original in wrapped)
"""


@pytest.mark.parametrize("in_worker_processes", [False, True])
def test_the_traced_pass_installs_and_uninstalls_in_a_fresh_interpreter(in_worker_processes):
    script = _CHILD.format(
        src=str(REPO / "src"), benchmarks=str(REPO / "benchmarks"), flag=in_worker_processes
    )
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
