"""Shared helpers for the figure-regeneration benches.

Each bench runs its experiment driver exactly once under
``benchmark.pedantic`` (the drivers do their own internal repetition per
the paper's protocol), prints the figure's data as an ASCII table/chart,
asserts the paper's qualitative claim, and persists an ExperimentRecord
JSON under ``benchmarks/results/``.

Workload size follows ``QARCH_BENCH_SCALE`` (ci | laptop | paper); see
repro.experiments.scale.
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn):
    """Run an experiment driver once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def runner(fn):
        return run_once(benchmark, fn)

    return runner
