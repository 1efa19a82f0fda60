"""Unit tests of the benchmark harness's own arithmetic (pure, < 1 s).

Nothing here runs a sweep: the tail rule, self-time arithmetic on synthetic
span trees, ``--compare`` verdicts on synthetic rows, and a lint that keeps
``BENCHMARK.json`` and the tables in this directory in step.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from e2e import stats
from e2e.layers import LAYER_METRICS, SpanTable
from e2e.trace import Span, Tracer, covered, self_times
from e2e.workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


# -- stats: tail rule ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, percentile",
    [(10, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0),
     (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile):
    values = list(range(1, n + 1))
    found = stats.tail(values)
    if percentile is None:
        assert found is None
        return
    assert found[0] == percentile
    assert sum(1 for v in values if v > found[1]) >= 10


def test_summarize_keeps_spread_and_count_beside_the_headline():
    record = stats.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert record["value"] == 3.0 and record["n"] == 5
    assert record["q1"] < record["value"] < record["q3"]
    assert "tail_value" not in record
    assert stats.summarize([2.0, 4.0], value=7.0)["value"] == 7.0
    assert stats.summarize([2.0])["q1"] == stats.summarize([2.0])["q3"] == 2.0


def test_trimmed_mean_ignores_the_ends():
    values = [0.0] + [10.0] * 8 + [1000.0]
    assert stats.trimmed_mean(values) == 10.0


# -- trace: self time ---------------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert covered([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3.0)
    assert covered([], 0, 10) == 0.0


def test_self_time_nested_and_sibling_spans():
    spans = [
        Span(1, None, 1, "api.search", 0.0, 10.0),
        Span(2, 1, 1, "core.runtime.run", 1.0, 9.0),
        Span(3, 2, 1, "core.cache.get", 2.0, 3.0),
        Span(4, 2, 1, "core.cache.put", 5.0, 7.0),
    ]
    own = self_times(spans)
    assert own == {1: pytest.approx(2.0), 2: pytest.approx(5.0), 3: 1.0, 4: 2.0}
    assert sum(own.values()) == pytest.approx(10.0)  # serial: adds up to the wall


def test_self_time_cross_thread_children_overlap_and_outlive_the_parent():
    spans = [
        Span(1, None, 1, "parallel.as_completed", 0.0, 4.0),
        # two fleet threads working at once; the second ends after the parent
        Span(2, 1, 1, "core.evaluator.evaluate_candidate", 1.0, 3.0),
        Span(3, 1, 1, "core.evaluator.evaluate_candidate", 2.0, 6.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(1.0)  # [0,1) only: [1,4] is covered
    assert own[2] == pytest.approx(2.0) and own[3] == pytest.approx(4.0)


def test_tracer_records_parents_sweeps_and_generator_resumptions():
    tracer = Tracer()

    def leaf():
        return 1

    def numbers():
        yield leaf_traced()
        yield leaf_traced()

    leaf_traced = tracer.traced(leaf, "layer.leaf")
    numbers_traced = tracer.traced(numbers, "layer.numbers")
    root = tracer.traced(lambda: sum(numbers_traced()), "api.search", root=True)
    with tracer.phase("fresh"):
        assert root() == 2
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (search,) = by_name["api.search"]
    assert search.sweep == search.id
    assert search.parent == by_name["phase.fresh"][0].id
    # one span per resumption of the generator: two items and the exhaustion
    assert len(by_name["layer.numbers"]) == 3
    assert {s.parent for s in by_name["layer.leaf"]} <= {s.id for s in by_name["layer.numbers"]}
    assert all(s.sweep == search.id for s in by_name["layer.leaf"])

    table = SpanTable(tracer.spans)
    assert [s.id for s in table.sweeps("fresh")] == [search.id]
    rows = dict(table.layer_table("fresh"))
    assert sum(v for k, v in rows.items() if k != "sweep wall") == pytest.approx(rows["sweep wall"])


def test_wrap_method_installs_and_uninstalls():
    class Thing:
        def work(self):
            return "done"

    tracer = Tracer()
    original = Thing.__dict__["work"]
    tracer.wrap_method(Thing, "work", "layer.work")
    assert Thing().work() == "done" and Thing.__dict__["work"] is not original
    tracer.uninstall()
    assert Thing.__dict__["work"] is original
    assert [s.name for s in tracer.spans] == ["layer.work"]


# -- stats: compare -----------------------------------------------------------


def _record(value, spread=0.0):
    return {"value": value, "q1": value - spread / 2, "q3": value + spread / 2, "n": 9}


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        (_record(1.0), _record(1.05), "lower", "unchanged"),
        (_record(1.0), _record(1.25), "lower", "regressed"),
        (_record(1.0), _record(0.7), "lower", "improved"),
        (_record(100.0), _record(70.0), "higher", "regressed"),
        (_record(100.0), _record(130.0), "higher", "improved"),
        # inside the bound, but either run's IQR / sqrt(n) is wider than it
        (_record(1.0, spread=0.9), _record(1.05), "lower", "unresolved"),
        (_record(1.0), _record(1.05, spread=0.9), "lower", "unresolved"),
        (_record(1.0, spread=0.3), _record(1.05), "lower", "unchanged"),
    ],
)
def test_verdict(a, b, better, expected):
    assert stats.verdict(a, b, better, 0.2) == expected


def test_compare_flags_regressions_and_a_higher_failed_fraction():
    end_to_end = [{"name": "sweep_s", "unit": "s", "better": "lower", "bound": 0.2}]

    def document(sweep_s, failed):
        run = {"attempted": 10, "failed": failed, "end_to_end": {"sweep_s": _record(sweep_s)}}
        return {"workloads": {"deep_spsa": run}}

    rows, ok = stats.compare(document(1.0, 0), document(1.1, 0), end_to_end)
    assert ok and [row[-1] for row in rows] == ["unchanged", "unchanged"]
    rows, ok = stats.compare(document(1.0, 0), document(1.5, 0), end_to_end)
    assert not ok and rows[0][-1] == "regressed"
    rows, ok = stats.compare(document(1.0, 0), document(1.0, 1), end_to_end)
    assert not ok and rows[-1][:2] == ("deep_spsa", "failed_frac") and rows[-1][-1] == "regressed"


# -- BENCHMARK.json lint ------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_is_within_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        why = workload["why"]
        assert 0 < len(why) <= 200 and "\n" not in why
        assert why.count(". ") == 0 and why.endswith(".")  # one sentence
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher") and 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["better"] in ("lower", "higher")


def test_benchmark_json_matches_the_harness_tables():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert declared == {name: row[:2] for name, row in LAYER_METRICS.items()}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for name, (_unit, _better, moves, workloads) in LAYER_METRICS.items():
        assert moves in end_to_end, name
        assert workloads and set(workloads) <= set(WORKLOADS), name
