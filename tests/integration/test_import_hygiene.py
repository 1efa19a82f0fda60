"""`import repro` stays cheap: scipy (0.46 s of a 0.67 s start-up) loads
where COBYLA is *chosen*, not where the package is imported.

One fresh interpreter walks the whole ladder, because `sys.modules` of the
test process says nothing (other tests have long since trained with COBYLA).
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_LADDER = """
import contextlib, io, json, runpy, sys

seen = {}

def look(step):
    seen[step] = "scipy" in sys.modules

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
print(json.dumps(seen))
"""


def test_scipy_loads_where_cobyla_is_chosen_not_where_repro_is_imported():
    out = subprocess.run(
        [sys.executable, "-c", _LADDER],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen["import repro.api"] is False
    assert seen["python -m repro --help"] is False
    assert seen["a config that names spsa"] is False
    assert seen["a config that names cobyla"] is True
    assert seen["scipy.optimize"] is True
    # ...and the paper's trainer still trains through the CLI
    assert seen["search exit code"] == 0
    assert "winner: " in seen["search output"]
