"""MetricsRegistry: families, histograms, exposition format, tracing."""

import json
import math
import threading

import pytest

from repro.obs import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.obs.metrics import Counter, Gauge, Histogram


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestFamilies:
    def test_counter_inc_and_value(self, registry):
        counter = registry.counter("repro_test_total", "help text")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self, registry):
        counter = registry.counter("repro_test_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_labeled_counter_children_are_independent(self, registry):
        counter = registry.counter("repro_t_total", labels=("tenant",))
        counter.labels(tenant="a").inc()
        counter.labels(tenant="a").inc()
        counter.labels(tenant="b").inc(5)
        assert counter.value_for(tenant="a") == 2
        assert counter.value_for(tenant="b") == 5

    def test_labeled_counter_child_rejects_negative(self, registry):
        counter = registry.counter("repro_t_total", labels=("tenant",))
        with pytest.raises(ValueError, match="only go up"):
            counter.labels(tenant="a").inc(-3)

    def test_wrong_label_names_rejected(self, registry):
        counter = registry.counter("repro_t_total", labels=("tenant",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.labels(nope="x")

    def test_default_child_requires_no_labels(self, registry):
        counter = registry.counter("repro_t_total", labels=("tenant",))
        with pytest.raises(ValueError, match="declares labels"):
            counter.inc()

    def test_gauge_set_inc_dec(self, registry):
        gauge = registry.gauge("repro_depth")
        gauge.set(4)
        gauge.inc()
        gauge.dec()
        gauge.dec()
        assert gauge.value == 3

    def test_invalid_metric_name_rejected(self, registry):
        for bad in ("", "9starts_with_digit", "has space", "has-dash"):
            with pytest.raises(ValueError, match="invalid metric name"):
                registry.counter(bad)

    def test_get_or_create_is_idempotent(self, registry):
        first = registry.counter("repro_x_total", "help")
        again = registry.counter("repro_x_total", "different help ignored")
        assert first is again

    def test_conflicting_type_raises(self, registry):
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_x_total")

    def test_conflicting_labels_raise(self, registry):
        registry.counter("repro_x_total", labels=("a",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("repro_x_total", labels=("b",))

    def test_remove_drops_one_child(self, registry):
        gauge = registry.gauge("repro_g", labels=("job",))
        gauge.labels(job="1").set(7)
        gauge.labels(job="2").set(9)
        gauge.remove(job="1")
        text = registry.render()
        assert 'repro_g{job="1"}' not in text
        assert 'repro_g{job="2"} 9' in text


class TestConcurrency:
    def test_concurrent_counter_increments_all_land(self, registry):
        counter = registry.counter("repro_c_total")
        workers, per_worker = 8, 500

        def spin():
            for _ in range(per_worker):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == workers * per_worker

    def test_concurrent_histogram_observations_all_land(self, registry):
        histogram = registry.histogram("repro_h_seconds", buckets=(1.0, 2.0))
        workers, per_worker = 8, 300

        def spin():
            for index in range(per_worker):
                histogram.observe(0.5 if index % 2 else 1.5)

        threads = [threading.Thread(target=spin) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == workers * per_worker


class TestHistogram:
    def test_bucket_edges_are_le(self, registry):
        """A value exactly on a bound lands in that bound's bucket."""
        histogram = registry.histogram("repro_h_seconds", buckets=(0.1, 1.0))
        histogram.observe(0.1)   # == first bound -> le="0.1"
        histogram.observe(0.11)  # just past it   -> le="1"
        histogram.observe(5.0)   # beyond last    -> +Inf only
        text = registry.render()
        assert 'repro_h_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_h_seconds_bucket{le="1"} 2' in text
        assert 'repro_h_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_h_seconds_count 3" in text

    def test_sum_and_count(self, registry):
        histogram = registry.histogram("repro_h_seconds", buckets=(1.0,))
        for value in (0.25, 0.5, 2.25):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(3.0)

    def test_bounds_are_sorted_and_inf_stripped(self, registry):
        histogram = registry.histogram(
            "repro_h_seconds", buckets=(5.0, 1.0, math.inf)
        )
        assert histogram.bounds == (1.0, 5.0)

    def test_duplicate_bounds_rejected(self, registry):
        with pytest.raises(ValueError, match="duplicate"):
            registry.histogram("repro_h_seconds", buckets=(1.0, 1.0))

    def test_empty_bounds_rejected(self, registry):
        with pytest.raises(ValueError, match="at least one"):
            registry.histogram("repro_h_seconds", buckets=())

    def test_default_buckets_cover_cache_to_training_latencies(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.001
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 300.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestExposition:
    def test_help_and_type_lines(self, registry):
        registry.counter("repro_a_total", "does a thing").inc()
        text = registry.render()
        assert "# HELP repro_a_total does a thing\n" in text
        assert "# TYPE repro_a_total counter\n" in text

    def test_families_render_sorted_and_newline_terminated(self, registry):
        registry.counter("repro_b_total").inc()
        registry.counter("repro_a_total").inc()
        text = registry.render()
        assert text.index("repro_a_total") < text.index("repro_b_total")
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render() == ""

    def test_label_values_escaped(self, registry):
        counter = registry.counter("repro_l_total", labels=("key",))
        counter.labels(key='sp"am\\eggs\n').inc()
        text = registry.render()
        assert 'key="sp\\"am\\\\eggs\\n"' in text

    def test_histogram_buckets_are_cumulative(self, registry):
        histogram = registry.histogram("repro_h_seconds", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(1.5)
        lines = registry.render().splitlines()
        buckets = [line for line in lines if "_bucket" in line]
        assert buckets == [
            'repro_h_seconds_bucket{le="1"} 1',
            'repro_h_seconds_bucket{le="2"} 2',
            'repro_h_seconds_bucket{le="+Inf"} 2',
        ]

    def test_a_histogram_has_no_series_before_its_first_observation(self, registry):
        histogram = registry.histogram("repro_h_seconds", buckets=(1.0,))
        assert registry.render().splitlines() == [
            "# HELP repro_h_seconds repro_h_seconds",
            "# TYPE repro_h_seconds histogram",
        ]
        histogram.observe(2.0)
        lines = registry.render().splitlines()
        assert 'repro_h_seconds_bucket{le="1"} 0' in lines
        assert 'repro_h_seconds_bucket{le="+Inf"} 1' in lines
        assert "repro_h_seconds_count 1" in lines

    def test_labeled_histogram_children_render_their_own_buckets(self, registry):
        histogram = registry.histogram(
            "repro_h_seconds", labels=("tenant",), buckets=(1.0, 2.0)
        )
        histogram.labels(tenant="a").observe(0.5)
        histogram.labels(tenant="b").observe(1.5)
        histogram.labels(tenant="b").observe(1.5)
        buckets = [line for line in registry.render().splitlines() if "_bucket" in line]
        assert buckets == [
            'repro_h_seconds_bucket{tenant="a",le="1"} 1',
            'repro_h_seconds_bucket{tenant="a",le="2"} 1',
            'repro_h_seconds_bucket{tenant="a",le="+Inf"} 1',
            'repro_h_seconds_bucket{tenant="b",le="1"} 0',
            'repro_h_seconds_bucket{tenant="b",le="2"} 2',
            'repro_h_seconds_bucket{tenant="b",le="+Inf"} 2',
        ]

    def test_the_buckets_give_the_scraper_its_quantile(self, registry):
        """Prometheus ``histogram_quantile`` over the rendered buckets:
        rank 2 of 4 falls a third of the way through (1, 2]."""
        histogram = registry.histogram("repro_h_seconds", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 1.5, 1.5):
            histogram.observe(value)
        cumulative = {}
        for line in registry.render().splitlines():
            if "_bucket" in line:
                bound = line.split('le="')[1].split('"')[0]
                cumulative[float(bound)] = int(line.rsplit(" ", 1)[1])
        rank = 0.5 * cumulative[math.inf]
        lower, below = 0.0, 0
        for upper, count in sorted(cumulative.items()):
            if count >= rank:
                break
            lower, below = upper, count
        estimate = lower + (upper - lower) * (rank - below) / (count - below)
        assert estimate == pytest.approx(1.0 + 1.0 / 3.0)

    def test_collectors_run_per_render(self, registry):
        gauge = registry.gauge("repro_uptime_seconds")
        ticks = []

        def collect():
            ticks.append(1)
            gauge.set(len(ticks))

        registry.add_collector(collect)
        registry.render()
        assert "repro_uptime_seconds 2" in registry.render()


class TestTimerAndTrace:
    def test_timer_observes_into_histogram(self, registry):
        with registry.timer("repro_span_seconds"):
            pass
        histogram = registry.histogram("repro_span_seconds")
        assert histogram.count == 1

    def test_timer_with_labels(self, registry):
        with registry.timer("repro_span_seconds", tenant="a"):
            pass
        histogram = registry.histogram(
            "repro_span_seconds", labels=("tenant",)
        )
        assert histogram.labels(tenant="a").count == 1

    def test_trace_records_timer_spans(self, registry, tmp_path):
        path = tmp_path / "trace.jsonl"
        registry.enable_trace(path)
        with registry.timer("repro_span_seconds", job="7"):
            pass
        registry.disable_trace()
        (event,) = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert event["span"] == "repro_span_seconds"
        assert event["seconds"] >= 0
        assert event["labels"] == {"job": "7"}
        assert "ts" in event

    def test_trace_event_direct_emission(self, registry, tmp_path):
        path = tmp_path / "trace.jsonl"
        registry.enable_trace(path)
        registry.trace_event("job_run", 0.25, index=3, attempt=1)
        registry.disable_trace()
        (event,) = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert event == {
            "ts": event["ts"],
            "span": "job_run",
            "seconds": 0.25,
            "labels": {"index": 3, "attempt": 1},
        }

    def test_trace_event_noop_when_disabled(self, registry):
        registry.trace_event("job_run", 0.1)  # must not raise

    def test_trace_path_property(self, registry, tmp_path):
        assert registry.trace_path is None
        registry.enable_trace(tmp_path / "t.jsonl")
        assert registry.trace_path == tmp_path / "t.jsonl"
        registry.disable_trace()
        assert registry.trace_path is None


class TestModuleSurface:
    def test_reexports(self):
        from repro import obs

        assert obs.MetricsRegistry is MetricsRegistry
        assert obs.Counter is Counter
        assert obs.Gauge is Gauge
        assert obs.Histogram is Histogram
