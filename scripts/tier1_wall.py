#!/usr/bin/env python
"""Tier-1 pytest between two machine-speed readings.

ROADMAP's rule for a deletion PR is "tier-1 wall time not up", and on a box
that runs at two speeds raw seconds cannot say (the same tree reads 119 s or
158 s minutes apart). The sweep benchmark's reference kernel
(``benchmarks/e2e/speed.py``, imported, not copied) is timed just before and
just after the suite, and the wall time is also printed in *reference-box
seconds* — what the run would have taken at the speed at which that kernel
takes ``REFERENCE_SECONDS``. Two readings bracket minutes of work, so this
is a coarser correction than the benchmark's per-stretch one: compare
commits on runs whose readings agree ("steady"), and repeat the others.

Usage: ``python scripts/tier1_wall.py [pytest args]`` (default ``-x -q``);
exits with pytest's exit code.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "benchmarks"))

from e2e.speed import REFERENCE_SECONDS, Stretch  # noqa: E402


def main(argv: list[str]) -> int:
    with Stretch() as stretch:
        code = subprocess.call(
            [sys.executable, "-m", "pytest", *(argv or ["-x", "-q"])], cwd=REPO
        )
    raw = stretch.wall * stretch.slowdown
    print(
        f"tier-1 wall: {raw:.1f} s here = {stretch.wall:.1f} reference-box s "
        f"(machine at {stretch.slowdown:.2f}x the {REFERENCE_SECONDS * 1e3:.1f} ms "
        f"reference kernel, {'steady' if stretch.steady else 'changed speed: repeat'})"
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
