"""Tests for the span tracer: histograms and the slow ring."""

import pytest

from repro.obs import (
    SPAN_HISTOGRAM_NAME,
    MetricsRegistry,
    SpanRecord,
    Tracer,
)


def make_tracer(threshold=0.05, ring_size=128):
    registry = MetricsRegistry()
    return registry, Tracer(
        registry, slow_threshold_s=threshold, ring_size=ring_size
    )


class TestSpanRecording:
    def test_span_observes_into_the_shared_histogram(self):
        registry, tracer = make_tracer()
        tracer.record("checkin.commit", 0.001)
        family = registry.get(SPAN_HISTOGRAM_NAME)
        assert family is not None
        assert family.labels("checkin.commit").count == 1
        assert tracer.span_count == 1

    def test_span_names_become_label_values(self):
        registry, tracer = make_tracer()
        tracer.record("crawler.fetch", 0.001)
        tracer.record("store.lock", 0.001)
        text = registry.render_text()
        assert 'span="crawler.fetch"' in text
        assert 'span="store.lock"' in text

    def test_record_primitive_matches_span(self):
        registry, tracer = make_tracer()
        tracer.record("checkin.commit", 0.002)
        child = registry.get(SPAN_HISTOGRAM_NAME).labels("checkin.commit")
        assert child.count == 1
        assert child.sum == pytest.approx(0.002)

    def test_span_count_sums_across_names(self):
        _, tracer = make_tracer()
        tracer.record("a.x", 0.001)
        tracer.record("b.y", 0.001)
        tracer.record("a.x", 0.001)
        assert tracer.span_count == 3


class TestSlowRing:
    def test_fast_spans_stay_out_of_the_ring(self):
        _, tracer = make_tracer(threshold=10.0)
        tracer.record("quick.op", 0.001)
        assert tracer.recent_slow() == []

    def test_slow_spans_are_retained(self):
        _, tracer = make_tracer(threshold=0.0)  # everything is "slow"
        tracer.record("slow.op", 0.0, trace_id="t-1")
        records = tracer.recent_slow()
        assert len(records) == 1
        assert isinstance(records[0], SpanRecord)
        assert records[0].name == "slow.op"
        assert records[0].duration_s == 0.0
        assert records[0].trace_id == "t-1"

    def test_ring_is_bounded_and_keeps_newest(self):
        _, tracer = make_tracer(threshold=0.0, ring_size=4)
        for index in range(10):
            tracer.record(f"op.{index}", float(index))
        records = tracer.recent_slow()
        assert len(records) == 4
        assert [record.name for record in records] == [
            "op.6",
            "op.7",
            "op.8",
            "op.9",
        ]

    def test_recent_slow_limit_returns_newest(self):
        _, tracer = make_tracer(threshold=0.0)
        for index in range(5):
            tracer.record(f"op.{index}", float(index))
        limited = tracer.recent_slow(limit=2)
        assert [record.name for record in limited] == ["op.3", "op.4"]
        assert len(tracer.recent_slow(limit=9)) == 5
        assert tracer.recent_slow(limit=0) == []
        with pytest.raises(ValueError):
            tracer.recent_slow(limit=-1)

    def test_threshold_is_inclusive(self):
        _, tracer = make_tracer(threshold=0.5)
        tracer.record("edge.op", 0.5)
        assert [record.name for record in tracer.recent_slow()] == [
            "edge.op"
        ]


class TestSharedRegistry:
    def test_two_tracers_share_the_histogram_family(self):
        registry = MetricsRegistry()
        first = Tracer(registry)
        second = Tracer(registry)
        first.record("x.y", 0.001)
        second.record("x.y", 0.001)
        assert registry.get(SPAN_HISTOGRAM_NAME).labels("x.y").count == 2
