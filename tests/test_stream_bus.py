"""Tests for the event bus: fan-out, sequencing, lifecycle."""

import threading

import pytest

from repro.stream import BusError, EventBus, StreamEvent


def make_event(seq=-1, timestamp=0.0):
    return StreamEvent(seq=seq, timestamp=timestamp)


class TestSynchronousFanout:
    def test_all_subscribers_see_every_event_in_order(self):
        bus = EventBus()
        seen = {"a": [], "b": [], "c": []}
        for name in seen:
            bus.subscribe(name, seen[name].append)
        events = [bus.publish(make_event()) for _ in range(25)]
        for log in seen.values():
            assert log == events
        assert bus.published == 25

    def test_publish_stamps_monotonic_seq(self):
        bus = EventBus()
        events = [bus.publish(make_event()) for _ in range(10)]
        assert [e.seq for e in events] == list(range(10))

    def test_presequenced_events_keep_their_seq(self):
        bus = EventBus()
        event = bus.publish(make_event(seq=41))
        assert event.seq == 41
        # The bus counter advances past external sequences.
        assert bus.publish(make_event()).seq == 42

    def test_delivered_counter(self):
        bus = EventBus()
        stats = bus.subscribe("s", lambda e: None)
        for _ in range(7):
            bus.publish(make_event())
        assert stats.delivered == 7

    def test_subscriber_exception_counted_not_raised(self):
        bus = EventBus()

        def explode(event):
            raise RuntimeError("detector bug")

        stats = bus.subscribe("bad", explode)
        quiet = bus.subscribe("good", lambda e: None)
        bus.publish(make_event())
        assert stats.errors == 1
        assert stats.delivered == 1
        assert quiet.delivered == 1


class TestSubscriptionManagement:
    def test_duplicate_name_rejected(self):
        bus = EventBus()
        bus.subscribe("x", lambda e: None)
        with pytest.raises(BusError):
            bus.subscribe("x", lambda e: None)

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        log = []
        bus.subscribe("x", log.append)
        bus.publish(make_event())
        bus.unsubscribe("x")
        bus.publish(make_event())
        assert len(log) == 1
        assert bus.subscriber_names() == []

    def test_unsubscribe_unknown_raises(self):
        with pytest.raises(BusError):
            EventBus().unsubscribe("ghost")


class TestLifecycle:
    def test_publish_after_close_raises(self):
        bus = EventBus()
        bus.close()
        with pytest.raises(BusError):
            bus.publish(make_event())

    def test_context_manager_closes(self):
        with EventBus() as bus:
            stats = bus.subscribe("x", lambda e: None)
            bus.publish(make_event())
        assert stats.delivered == 1
        assert bus.subscriber_names() == []
        with pytest.raises(BusError):
            bus.publish(make_event())


class TestConcurrentPublish:
    def test_many_threads_unique_monotonic_seqs(self):
        bus = EventBus()
        seen = []
        lock = threading.Lock()

        def collect(event):
            with lock:
                seen.append(event.seq)

        bus.subscribe("collector", collect)
        per_thread = 200

        def hammer():
            for _ in range(per_thread):
                bus.publish(make_event())

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == 8 * per_thread
        assert sorted(seen) == list(range(8 * per_thread))
