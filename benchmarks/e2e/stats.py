"""Summaries of timing samples and the A/B comparison rule.

A timing is reported as its median, its quartiles and — once there are
enough samples for one to mean anything — a tail percentile. Two result
files of the same benchmark are compared row by row against the bound
``BENCHMARK.json`` fixes for each end-to-end metric.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

__all__ = ["compare", "quartiles", "summarize", "tail", "trimmed_mean", "verdict"]

#: percentiles tried for the tail, highest first, in per-mille so that
#: ranks are exact integers
_TAIL_LADDER = (999, 990, 950, 900, 750)
#: a percentile is only reported with at least this many samples beyond it
_TAIL_MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(n=4)`` gives
    them (the driver's rule); a single sample is its own quartiles."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def trimmed_mean(values: Sequence[float], trim: float = 0.1) -> float:
    """Mean of the values left after dropping the ``trim`` share at each end.

    The headline for ``warm_sweep_s``: a warm sweep through the service
    spends most of its time waiting for a 50 ms poll, so its latency is
    spread almost flat over 10-60 ms, and the median of a flat distribution
    is its least repeatable statistic (across identical runs of 100 samples
    its quartiles were 19% apart, those of this mean 7%)."""
    ordered = sorted(values)
    drop = int(len(ordered) * trim)
    return statistics.fmean(ordered[drop : len(ordered) - drop])


def tail(values: Sequence[float]) -> tuple[float, float] | None:
    """``(percentile, value)`` for the highest percentile that still has
    at least ten samples beyond it, or ``None`` below 40 samples (where
    the median and quartiles are all the data supports)."""
    n = len(values)
    for permille in _TAIL_LADDER:
        rank = -(-permille * n // 1000)  # nearest-rank, rounded up
        if n - rank >= _TAIL_MIN_BEYOND:
            return permille / 10.0, sorted(values)[rank - 1]
    return None


def summarize(values: Sequence[float], value: float | None = None) -> dict:
    """The record one metric contributes to a result file. ``value``
    overrides the median as the headline number (a rate taken over a whole
    phase keeps its per-sweep samples for the spread only)."""
    q1, q3 = quartiles(values)
    record = {
        "value": statistics.median(values) if value is None else value,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }
    found = tail(values)
    if found is not None:
        record["tail_percentile"], record["tail_value"] = found
    return record


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """How ``b`` reads against ``a`` for one metric of one workload.

    ``regressed``/``improved`` when the headline value moved the wrong /
    right way by more than ``bound`` (relative to ``a``); otherwise
    ``unchanged`` — unless either run could not have seen a move of that
    size, in which case the row is ``unresolved``. A run's resolution is its
    interquartile range over the square root of its sample count: about how
    far its headline would move if the run were repeated.
    """
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["value"] - a["value"]) / a["value"]
    if worsening > bound:
        return "regressed"
    if worsening < -bound:
        return "improved"
    resolution = max((r["q3"] - r["q1"]) / math.sqrt(r["n"]) for r in (a, b)) / abs(a["value"])
    return "unresolved" if resolution > bound else "unchanged"


def compare(a: dict, b: dict, end_to_end: Sequence[dict]) -> tuple[list[tuple], bool]:
    """Compare two result documents (``latest.json`` shape).

    Returns ``(rows, ok)``: one ``(workload, metric, a, b, change, verdict)``
    row per pairing both documents hold, and ``ok`` false when any row
    regressed or a workload's failed fraction rose.
    """
    rows: list[tuple] = []
    ok = True
    for name, run_a in a["workloads"].items():
        run_b = b["workloads"].get(name)
        if run_b is None:
            continue
        for metric in end_to_end:
            key = metric["name"]
            if key not in run_a["end_to_end"] or key not in run_b["end_to_end"]:
                continue
            rec_a, rec_b = run_a["end_to_end"][key], run_b["end_to_end"][key]
            outcome = verdict(rec_a, rec_b, metric["better"], metric["bound"])
            change = (rec_b["value"] - rec_a["value"]) / rec_a["value"]
            rows.append((name, key, rec_a["value"], rec_b["value"], change, outcome))
            ok = ok and outcome != "regressed"
        frac_a = run_a["failed"] / run_a["attempted"]
        frac_b = run_b["failed"] / run_b["attempted"]
        outcome = "regressed" if frac_b > frac_a else "unchanged"
        rows.append((name, "failed_frac", frac_a, frac_b, frac_b - frac_a, outcome))
        ok = ok and outcome != "regressed"
    return rows, ok
