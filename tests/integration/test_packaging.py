"""`setup.py` is the one place package metadata lives; it must agree with
the package it installs."""

import subprocess
import sys
from pathlib import Path

import repro

REPO = Path(__file__).resolve().parents[2]


def test_setup_py_reports_the_package_name_and_version():
    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert out == ["repro", repro.__version__]
