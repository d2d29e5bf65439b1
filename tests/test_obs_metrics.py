"""Tests for the metrics registry: kinds, labels, exposition, the JSON
serializer, concurrency."""

import json
import math
import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricError,
    MetricsRegistry,
    default_registry,
)
from repro.obs.metrics import registry_to_dict, registry_to_json, render_labels


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "Events.")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("events_total", "Events.")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_labeled_children_are_independent(self):
        registry = MetricsRegistry()
        family = registry.counter("hits_total", "Hits.", ("mode",))
        family.labels("user").inc(3)
        family.labels("venue").inc()
        assert family.labels("user").value == 3
        assert family.labels("venue").value == 1

    def test_labels_returns_same_child(self):
        family = MetricsRegistry().counter("c_total", "C.", ("k",))
        assert family.labels("x") is family.labels("x")
        assert family.labels(k="x") is family.labels("x")

    def test_family_level_api_requires_no_labels(self):
        family = MetricsRegistry().counter("c_total", "C.", ("k",))
        with pytest.raises(MetricError):
            family.inc()
        with pytest.raises(MetricError):
            family.child()

    def test_wrong_label_count_rejected(self):
        family = MetricsRegistry().counter("c_total", "C.", ("a", "b"))
        with pytest.raises(MetricError):
            family.labels("only-one")
        with pytest.raises(MetricError):
            family.labels(a="x", wrong="y")


class TestGauge:
    def test_up_down_set(self):
        gauge = MetricsRegistry().gauge("depth", "Depth.")
        gauge.inc(10)
        gauge.dec(3)
        assert gauge.value == 7
        gauge.set(2)
        assert gauge.value == 2

    def test_child_binding_shares_state_with_family(self):
        registry = MetricsRegistry()
        family = registry.gauge("rows", "Rows.")
        child = family.child()
        child.inc(5)
        assert family.value == 5


class TestHistogram:
    def test_observations_land_in_correct_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "lat_seconds", "Latency.", buckets=(0.01, 0.1, 1.0)
        )
        hist.observe(0.005)  # <= 0.01
        hist.observe(0.05)  # <= 0.1
        hist.observe(0.5)  # <= 1.0
        hist.observe(5.0)  # +Inf overflow
        buckets = dict(hist.bucket_counts())
        assert buckets[0.01] == 1
        assert buckets[0.1] == 2
        assert buckets[1.0] == 3
        assert buckets[math.inf] == 4
        assert hist.count == 4
        assert hist.sum == pytest.approx(5.555)

    def test_boundary_value_counts_into_its_bucket(self):
        # Prometheus buckets are `le` (<=): an observation exactly on a
        # bound belongs to that bound's bucket.
        hist = MetricsRegistry().histogram(
            "b_seconds", "B.", buckets=(0.1, 1.0)
        )
        hist.observe(0.1)
        assert dict(hist.bucket_counts())[0.1] == 1

    def test_default_buckets_are_the_shared_latency_shape(self):
        hist = MetricsRegistry().histogram("d_seconds", "D.")
        assert hist.buckets == DEFAULT_LATENCY_BUCKETS

    def test_explicit_inf_bound_is_absorbed(self):
        hist = MetricsRegistry().histogram(
            "i_seconds", "I.", buckets=(1.0, math.inf)
        )
        assert hist.buckets == (1.0,)

    def test_empty_or_duplicate_bounds_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.histogram("x_seconds", "X.", buckets=())
        with pytest.raises(MetricError):
            registry.histogram("y_seconds", "Y.", buckets=(1.0, 1.0))

    def test_concurrent_recording_at_bucket_boundaries(self):
        """8 threads hammering boundary values: totals must be exact."""
        hist = MetricsRegistry().histogram(
            "conc_seconds",
            "Concurrent.",
            buckets=(0.001, 0.01, 0.1),
        )
        per_thread = 2_000
        # Every thread observes each boundary value plus one overflow.
        values = (0.001, 0.01, 0.1, 1.0)

        def hammer():
            for _ in range(per_thread):
                for value in values:
                    hist.observe(value)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = 8 * per_thread
        buckets = dict(hist.bucket_counts())
        assert buckets[0.001] == total
        assert buckets[0.01] == 2 * total
        assert buckets[0.1] == 3 * total
        assert buckets[math.inf] == 4 * total
        assert hist.count == 4 * total
        assert hist.sum == pytest.approx(total * sum(values))


class TestConcurrentCounters:
    def test_eight_threads_lose_no_increments(self):
        counter = MetricsRegistry().counter("spin_total", "Spin.")
        per_thread = 25_000

        def spin():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8 * per_thread


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total", "A.")
        second = registry.counter("a_total", "different help text")
        assert first is second

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "A.")
        with pytest.raises(MetricError):
            registry.gauge("a_total", "A.")

    def test_label_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "A.", ("x",))
        with pytest.raises(MetricError):
            registry.counter("a_total", "A.", ("y",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("", "empty")
        with pytest.raises(MetricError):
            registry.counter("1starts_with_digit", "bad")
        with pytest.raises(MetricError):
            registry.counter("has space", "bad")
        with pytest.raises(MetricError):
            registry.counter("ok_total", "bad label", ("le ",))

    def test_names_and_get(self):
        registry = MetricsRegistry()
        registry.gauge("z_gauge", "Z.")
        registry.counter("a_total", "A.")
        assert registry.names() == ["a_total", "z_gauge"]
        assert registry.get("a_total").kind == "counter"
        assert registry.get("missing") is None

    def test_snapshot_reports_values_and_histogram_counts(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "C.", ("k",)).labels("v").inc(2)
        registry.gauge("g", "G.").set(7)
        hist = registry.histogram("h_seconds", "H.")
        hist.observe(0.5)
        hist.observe(0.5)
        snap = registry.snapshot()
        assert snap["c_total"][("v",)] == 2
        assert snap["g"][()] == 7
        assert snap["h_seconds"][()] == 2

    def test_default_registry_is_a_stable_singleton(self):
        assert default_registry() is default_registry()
        assert isinstance(default_registry(), MetricsRegistry)


class TestExposition:
    def test_render_text_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter(
            "reqs_total", "Requests seen.", ("mode",)
        ).labels("user").inc(3)
        registry.gauge("depth", "Queue depth.").set(1.5)
        text = registry.render_text()
        assert "# HELP reqs_total Requests seen.\n" in text
        assert "# TYPE reqs_total counter\n" in text
        assert 'reqs_total{mode="user"} 3\n' in text
        assert "# TYPE depth gauge\n" in text
        assert "depth 1.5\n" in text
        assert text.endswith("\n")

    def test_render_text_histogram_has_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "lat_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        hist.observe(0.05)
        hist.observe(0.5)
        text = registry.render_text()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_sum 0.55" in text
        assert "lat_seconds_count 2" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("esc_total", "E.", ("path",)).labels(
            'a"b\\c\nd'
        ).inc()
        text = registry.render_text()
        assert r'esc_total{path="a\"b\\c\nd"} 1' in text

    def test_render_labels_empty_for_no_labels(self):
        assert render_labels((), ()) == ""
        assert render_labels(("a",), ("x",)) == '{a="x"}'

    def test_empty_registry_renders_empty_string(self):
        assert MetricsRegistry().render_text() == ""


def _registry():
    registry = MetricsRegistry()
    checkins = registry.counter(
        "t_checkins_total", "Check-ins.", ("status",)
    )
    depth = registry.gauge("t_queue_depth", "Queue depth.")
    latency = registry.histogram(
        "t_latency_seconds", "Latency.", buckets=(0.1, 1.0)
    )
    return registry, checkins, depth, latency


class TestRegistrySerializer:
    def test_counter_and_gauge_shapes(self):
        registry, checkins, depth, _ = _registry()
        checkins.labels("valid").inc(3)
        checkins.labels("flagged").inc()
        depth.set(7)
        out = registry_to_dict(registry)
        family = out["t_checkins_total"]
        assert family["kind"] == "counter"
        assert family["labelnames"] == ["status"]
        values = {
            sample["labels"]["status"]: sample["value"]
            for sample in family["samples"]
        }
        assert values == {"valid": 3.0, "flagged": 1.0}
        (gauge_sample,) = out["t_queue_depth"]["samples"]
        assert gauge_sample == {"labels": {}, "value": 7.0}

    def test_histogram_sample_carries_count_sum_buckets(self):
        registry, _, _, latency = _registry()
        latency.observe(0.05)
        latency.observe(0.5)
        latency.observe(5.0)
        (sample,) = registry_to_dict(registry)["t_latency_seconds"]["samples"]
        assert sample["value"] == 3.0  # observation count
        assert math.isclose(sample["sum"], 5.55)
        assert sample["buckets"]["0.1"] == 1
        assert sample["buckets"]["1.0"] == 2  # cumulative
        assert sample["buckets"]["+Inf"] == 3

    def test_json_round_trips(self):
        registry, checkins, _, _ = _registry()
        checkins.labels("valid").inc()
        parsed = json.loads(registry_to_json(registry, indent=2))
        assert parsed == registry_to_dict(registry)
