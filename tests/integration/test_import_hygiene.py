"""`import repro` stays cheap: scipy (0.46 s of a 0.67 s start-up) loads
where COBYLA is *chosen*, not where the package is imported — and what a
sweep never uses (`asyncio`, `http.client` with `ssl`/`email.parser`, the
tensor-network package) is not loaded at start-up at all.

One fresh interpreter walks the whole ladder, because `sys.modules` of the
test process says nothing (other tests have long since trained with COBYLA).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

_LADDER = """
import contextlib, io, json, runpy, socket, sys

seen = {}
WATCHED = ("asyncio", "http.client", "repro.qtensor")

def look(step):
    seen[step] = "scipy" in sys.modules
    seen[step + ": also loaded"] = [m for m in WATCHED if m in sys.modules]

import repro.api as api
look("import repro.api")

sys.argv = ["repro", "--help"]
with contextlib.redirect_stdout(io.StringIO()) as text, contextlib.suppress(SystemExit):
    runpy.run_module("repro", run_name="__main__")
assert "usage: repro" in text.getvalue()
look("python -m repro --help")

api.Config(optimizer="spsa").search_config(1)
look("a config that names spsa")

# where the parent of a forked pool first names the optimizer
api.Config(optimizer="cobyla").search_config(1)
look("a config that names cobyla")
seen["scipy.optimize"] = "scipy.optimize" in sys.modules

from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()) as text:
    code = main(["search", "--optimizer", "cobyla", "--graphs", "1", "--steps", "8",
                 "--p-max", "1", "--k-min", "1", "--k-max", "1", "--metric", "energy"])
seen["search exit code"] = code
seen["search output"] = text.getvalue()
look("a whole search")

# a port nothing listens on: the request fails, having loaded its transport
with socket.socket() as probe:
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
with contextlib.suppress(OSError):
    api.connect(f"http://127.0.0.1:{port}").healthz()
seen["http.client after the first request"] = "http.client" in sys.modules
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def seen():
    out = subprocess.run(
        [sys.executable, "-c", _LADDER],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_scipy_loads_where_cobyla_is_chosen_not_where_repro_is_imported(seen):
    assert seen["import repro.api"] is False
    assert seen["python -m repro --help"] is False
    assert seen["a config that names spsa"] is False
    assert seen["a config that names cobyla"] is True
    assert seen["scipy.optimize"] is True
    # ...and the paper's trainer still trains through the CLI
    assert seen["search exit code"] == 0
    assert "winner: " in seen["search output"]


def test_start_up_does_not_load_what_a_sweep_never_uses(seen):
    """No re-export of the retired ``AsyncExecutor`` (asyncio), no
    module-level ``http.client`` for a ``Client`` most processes never
    build, no tensor-network package behind the ``repro`` namespace."""
    for step in ("import repro.api", "python -m repro --help", "a whole search"):
        assert seen[step + ": also loaded"] == [], step
    assert seen["http.client after the first request"] is True
