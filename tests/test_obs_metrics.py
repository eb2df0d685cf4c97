"""Tests for repro.obs.metrics and the Prometheus exporter."""

import pytest

from repro.obs.exporters import registry_to_prometheus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_total,
    get_registry,
    nearest_rank,
    worst_p99,
)


class TestCounter:
    def test_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_up_down_set(self):
        gauge = Gauge()
        gauge.inc(3)
        gauge.dec()
        assert gauge.value == 2
        gauge.set(-7.5)
        assert gauge.value == -7.5


class TestHistogram:
    def test_percentiles_one_to_hundred(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(float(value))
        snap = histogram.snapshot()
        assert snap["p50"] == 50.0
        assert snap["p95"] == 95.0
        assert snap["p99"] == 99.0
        assert snap["count"] == 100
        assert snap["min"] == 1.0
        assert snap["max"] == 100.0
        assert snap["mean"] == pytest.approx(50.5)

    def test_reservoir_bounds_memory_not_count(self):
        histogram = Histogram(reservoir=10)
        for value in range(1000):
            histogram.observe(float(value))
        assert len(histogram.samples) == 10
        assert histogram.count == 1000
        # Window percentiles reflect only the retained tail.
        assert histogram.percentile(50.0) >= 990.0

    def test_empty_snapshot(self):
        assert Histogram().snapshot() == {"count": 0}
        assert Histogram().percentile(50.0) == 0.0

    def test_reservoir_must_be_positive(self):
        with pytest.raises(ValueError):
            Histogram(reservoir=0)

    def test_nearest_rank_single_value(self):
        assert nearest_rank([42.0], 99.0) == 42.0


class TestRegistry:
    def test_same_labels_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("requests", op="x")
        b = registry.counter("requests", op="x")
        c = registry.counter("requests", op="y")
        assert a is b
        assert a is not c
        a.inc()
        assert b.value == 1

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")
        with pytest.raises(TypeError):
            registry.histogram("thing")

    def test_family_and_len(self):
        registry = MetricsRegistry()
        registry.counter("requests", op="a")
        registry.counter("requests", op="b")
        registry.gauge("other")
        family = registry.family("requests")
        assert len(family) == 2
        assert {labels["op"] for labels, __ in family} == {"a", "b"}
        assert len(registry) == 3

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(2)
        registry.histogram("lat", op="q").observe(0.5)
        snap = registry.snapshot()
        assert snap["hits"] == [
            {"labels": {}, "kind": "counter", "value": 2.0}
        ]
        (entry,) = snap["lat"]
        assert entry["labels"] == {"op": "q"}
        assert entry["kind"] == "histogram"
        assert entry["count"] == 1
        assert entry["p50"] == 0.5

    def test_clear(self):
        registry = MetricsRegistry()
        registry.counter("x")
        registry.clear()
        assert len(registry) == 0

    def test_global_registry_is_shared(self):
        assert get_registry() is get_registry()


class TestSnapshotReaders:
    def test_counter_total_sums_across_labels(self):
        registry = MetricsRegistry()
        registry.counter("service_requests_total", op="neighbors").inc(3)
        registry.counter("service_requests_total", op="ping").inc(2)
        registry.counter("service_errors_total", op="ping").inc()
        snap = registry.snapshot()
        assert counter_total(snap, "service_requests_total") == 5
        assert counter_total(snap, "service_errors_total") == 1

    def test_counter_total_of_absent_family_is_zero(self):
        assert counter_total({}, "service_requests_total") == 0
        # Malformed entries (e.g. from the wire) are skipped.
        snap = {"x": [{"value": "7"}, "junk", {"value": 2}]}
        assert counter_total(snap, "x") == 2

    def test_worst_p99_across_ops(self):
        registry = MetricsRegistry()
        for ms in range(1, 101):
            registry.histogram("service_request_seconds", op="a").observe(
                ms / 1000.0
            )
        registry.histogram("service_request_seconds", op="b").observe(0.5)
        assert worst_p99(registry.snapshot()) == 0.5
        registry.histogram("service_request_seconds", op="b").observe(0.0)
        # b's p99 over {0.0, 0.5} is still 0.5; a's is 0.099.
        assert worst_p99(registry.snapshot()) == 0.5

    def test_worst_p99_none_when_nothing_recorded(self):
        registry = MetricsRegistry()
        assert worst_p99(registry.snapshot()) is None
        registry.histogram("service_request_seconds", op="a")  # empty
        registry.counter("service_requests_total", op="a")
        snap = registry.snapshot()
        assert snap["service_request_seconds"] == [
            {"labels": {"op": "a"}, "kind": "histogram", "count": 0}
        ]
        assert worst_p99(snap) is None
        assert counter_total(snap, "service_requests_total") == 0


class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", op="neighbors").inc(7)
        registry.gauge("active").set(3)
        text = registry_to_prometheus(registry)
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{op="neighbors"} 7' in text
        assert "# TYPE active gauge" in text
        assert "active 3" in text
        assert text.endswith("\n")

    def test_histogram_as_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds", op="q")
        for value in range(1, 101):
            histogram.observe(value / 1000.0)
        text = registry_to_prometheus(registry)
        assert "# TYPE latency_seconds summary" in text
        assert 'latency_seconds{op="q",quantile="0.5"} 0.05' in text
        assert 'latency_seconds_count{op="q"} 100' in text
        assert 'latency_seconds_sum{op="q"}' in text

    def test_type_line_emitted_once_per_family(self):
        registry = MetricsRegistry()
        registry.counter("c", op="a")
        registry.counter("c", op="b")
        text = registry_to_prometheus(registry)
        assert text.count("# TYPE c counter") == 1

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c", path='a"b\\c\nd').inc()
        text = registry_to_prometheus(registry)
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_empty_registry(self):
        assert registry_to_prometheus(MetricsRegistry()) == ""
