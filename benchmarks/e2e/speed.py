"""Machine-speed correction for timings taken on a shared box.

The reference box (a 2-vCPU microVM) runs in two speeds. For tens of seconds
at a time every kind of work — the engine, pure Python, this kernel — takes
about 1.3x as long as in the other stretches, with no steal time reported
and nothing else running in the guest; about half of all wall time is spent
in each state (README.md has the trace). A run of a few seconds lands in one
state or the other, so raw medians of identical runs differ by more than any
bound worth gating on.

The harness therefore times a fixed reference kernel immediately before and
after each stretch of timed work and divides the stretch's wall times by
``mean(kernel readings) / REFERENCE_SECONDS``. End-to-end timings are thus
reported in *reference-box seconds*: what the work would have taken with the
machine at the speed at which the kernel takes ``REFERENCE_SECONDS``. A
stretch whose two readings disagree saw the machine change speed part-way
and has no single speed to correct by; such stretches are left out of the
statistics as long as at least half of a phase's stretches remain. The
kernel is numpy element-wise arithmetic on a 1024-amplitude complex vector —
the same mix of small-array numpy calls and interpreter overhead as the
engine's inner loop — and depends on nothing in the program under test, so
the correction cannot hide or invent a change in the program.

Per-layer metrics are not corrected: they are read against each other
within one traced pass, not against another run.
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence
from time import perf_counter

import numpy as np

__all__ = ["REFERENCE_SECONDS", "Stretch", "reading", "steady"]

#: what one kernel pass takes on the reference box in its fast state
REFERENCE_SECONDS = 0.0064

#: readings further apart than this share of their mean mark a stretch
#: during which the machine changed speed
STEADY_TOLERANCE = 0.05

_VECTOR = np.exp(1j * np.linspace(0.0, 6.0, 1024))
_STEPS = 1000
_PASSES = 11
_TRIM = 2
#: a reading this fresh may serve the next stretch as its first one
_REUSE_WITHIN = 0.05


def _kernel() -> float:
    start = perf_counter()
    state = _VECTOR.copy()
    for _ in range(_STEPS):
        state = state * _VECTOR
        state /= np.abs(state).max()
    return perf_counter() - start


def reading() -> float:
    """Seconds one kernel pass takes right now: the mean of eleven passes
    without the two fastest and the two slowest. A mean, because the work
    being corrected also averages over whatever the machine did meanwhile;
    trimmed, so that one preemption does not read as a slow machine."""
    passes = sorted(_kernel() for _ in range(_PASSES))
    return statistics.fmean(passes[_TRIM:-_TRIM])


class Stretch:
    """Context manager around one stretch of timed work. After exit:
    ``wall`` (reference-box seconds), ``slowdown`` (1.0 = reference speed)
    and ``steady`` (the two readings agree)."""

    def __init__(self, *, cpu_bound: bool = True, before: float | None = None) -> None:
        #: work that mostly waits (a warm sweep through the service) does
        #: not slow down with the processor and is left as the clock read it
        self.cpu_bound = cpu_bound
        #: a reading taken a moment ago (see :meth:`handover`), to open with
        self._before = before
        self._after: float | None = None

    def __enter__(self) -> Stretch:
        if self.cpu_bound and self._before is None:
            self._before = reading()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        raw = perf_counter() - self._start
        if not self.cpu_bound:
            self.slowdown, self.wall, self.steady = 1.0, raw, True
            return
        after = self._after = reading()
        self._ended = perf_counter()
        mean = (self._before + after) / 2.0
        self.slowdown = mean / REFERENCE_SECONDS
        self.wall = raw / self.slowdown
        self.steady = abs(after - self._before) <= STEADY_TOLERANCE * mean

    def handover(self) -> float | None:
        """This stretch's closing reading, while it is fresh enough to open
        the next stretch with; back-to-back stretches share one reading."""
        if self._after is not None and perf_counter() - self._ended < _REUSE_WITHIN:
            return self._after
        return None


def steady(stretches: Sequence[Stretch]) -> list[Stretch]:
    """The steady stretches, or all of them when fewer than half are."""
    keep = [stretch for stretch in stretches if stretch.steady]
    return keep if 2 * len(keep) >= len(stretches) else list(stretches)
