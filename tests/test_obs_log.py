"""Unit tests for the structured JSONL logging layer (repro.obs.log).

Covers levels and per-logger overrides, the ring buffer's wraparound
accounting, the ``records()`` query filters behind ``/debug/logs``, and
the lazy JSONL serialisation contract.
"""

import json

import pytest

from repro.obs.log import (
    DEBUG,
    ERROR,
    INFO,
    WARNING,
    LogError,
    LogHub,
    LogRecord,
    level_name,
)
from repro.obs.metrics import MetricsRegistry


class TestLevels:
    def test_default_hub_level_suppresses_debug(self):
        hub = LogHub()
        logger = hub.logger("svc")
        assert not logger.debug("ignored")
        assert logger.info("kept")
        assert hub.emitted == 1

    def test_logger_override_beats_hub_level(self):
        hub = LogHub(level=WARNING)
        noisy = hub.logger("noisy", level=DEBUG)
        quiet = hub.logger("quiet")
        assert noisy.debug("kept")
        assert not quiet.info("ignored")
        assert [r.logger for r in hub.records()] == ["noisy"]

    def test_set_level_accepts_names_and_none_reverts(self):
        hub = LogHub(level="warning")
        logger = hub.logger("svc")
        assert not logger.info("ignored")
        logger.set_level("info")
        assert logger.info("kept")
        logger.set_level(None)  # back to the hub's WARNING
        assert not logger.info("ignored again")

    def test_enabled_for_mirrors_threshold(self):
        hub = LogHub(level=INFO)
        logger = hub.logger("svc")
        assert not logger.enabled_for(DEBUG)
        assert logger.enabled_for(INFO)
        logger.set_level(ERROR)
        assert not logger.enabled_for(WARNING)

    def test_unknown_level_name_raises(self):
        hub = LogHub()
        with pytest.raises(LogError):
            hub.set_level("chatty")

    def test_level_name_falls_back_to_number(self):
        assert level_name(INFO) == "info"
        assert level_name(55) == "55"


class TestRing:
    def test_wraparound_keeps_newest_and_counts_dropped(self):
        hub = LogHub(ring_size=4)
        logger = hub.logger("svc")
        for n in range(1, 11):
            logger.info("e", n=n)
        assert hub.emitted == 10
        assert hub.dropped == 6
        assert len(hub) == 4
        assert [r.fields["n"] for r in hub.records()] == [7, 8, 9, 10]

    def test_partial_ring_in_emission_order(self):
        hub = LogHub(ring_size=100)
        logger = hub.logger("svc")
        for n in range(5):
            logger.info("e", n=n)
        assert hub.dropped == 0
        assert [r.fields["n"] for r in hub.records()] == [0, 1, 2, 3, 4]

    def test_ring_size_must_be_positive(self):
        with pytest.raises(LogError):
            LogHub(ring_size=0)


class TestRecordsQuery:
    def _hub(self):
        hub = LogHub(level=DEBUG)
        a, b = hub.logger("a"), hub.logger("b")
        a.info("checkin", trace_id="t1", n=1)
        a.debug("commit", trace_id="t1", n=2)
        b.warning("drop", trace_id="t2", n=3)
        a.info("checkin", trace_id="t2", n=4)
        return hub

    def test_filter_by_trace_id(self):
        hub = self._hub()
        assert [r.fields["n"] for r in hub.records(trace_id="t1")] == [1, 2]

    def test_filter_by_logger_and_event(self):
        hub = self._hub()
        assert [r.fields["n"] for r in hub.records(logger="a")] == [1, 2, 4]
        assert [r.fields["n"] for r in hub.records(event="checkin")] == [1, 4]

    def test_filter_by_min_level(self):
        hub = self._hub()
        assert [r.fields["n"] for r in hub.records(min_level=WARNING)] == [3]

    def test_limit_keeps_newest_matches(self):
        hub = self._hub()
        assert [r.fields["n"] for r in hub.records(limit=2)] == [3, 4]
        assert [r.fields["n"] for r in hub.records(limit=9)] == [1, 2, 3, 4]
        assert hub.records(limit=0) == []
        with pytest.raises(LogError):
            hub.records(limit=-2)

    def test_filters_compose(self):
        hub = self._hub()
        out = hub.records(logger="a", event="checkin", trace_id="t2")
        assert [r.fields["n"] for r in out] == [4]


class TestSerialisation:
    def test_jsonl_key_order_is_stable(self):
        hub = LogHub()
        hub.logger("svc").info("checkin", z_field=1, a_field=2)
        line = hub.export_jsonl().splitlines()[0]
        keys = list(json.loads(line))
        assert keys[:4] == ["ts", "level", "logger", "event"]
        # Field insertion order is preserved after the header keys.
        assert keys[4:] == ["z_field", "a_field"]

    def test_unserialisable_field_falls_back_to_repr(self):
        hub = LogHub()
        hub.logger("svc").info("odd", payload=object())
        obj = json.loads(hub.export_jsonl())
        assert obj["payload"].startswith("<object object")

    def test_export_jsonl_covers_the_ring(self):
        hub = LogHub()
        logger = hub.logger("svc")
        for n in range(3):
            logger.info("e", n=n)
        lines = hub.export_jsonl().splitlines()
        assert [json.loads(line)["n"] for line in lines] == [0, 1, 2]

    def test_trace_id_property(self):
        record = LogRecord(0.0, INFO, "svc", "e", {"trace_id": "t9"})
        assert record.trace_id == "t9"
        assert LogRecord(0.0, INFO, "svc", "e", {}).trace_id is None


class TestHubMetrics:
    def test_kept_records_counted_by_logger_and_level(self):
        registry = MetricsRegistry()
        hub = LogHub(metrics=registry)
        hub.logger("a").info("e")
        hub.logger("a").info("e")
        hub.logger("b").warning("w")
        hub.logger("a").debug("below the hub level")
        flat = registry.snapshot()["repro_log_records_total"]
        assert flat[("a", "info")] == 2.0
        assert flat[("b", "warning")] == 1.0
        assert ("a", "debug") not in flat

    def test_logger_cache_returns_same_instance(self):
        hub = LogHub()
        assert hub.logger("svc") is hub.logger("svc")
        assert hub.logger_names() == ["svc"]

    def test_logger_reconfigure_on_lookup(self):
        hub = LogHub()
        logger = hub.logger("svc")
        hub.logger("svc", level=ERROR)
        assert logger.level == ERROR
        assert not logger.warning("below the new level")
