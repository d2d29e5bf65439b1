"""Unit tests for the datastore."""

import threading

import pytest

from repro.errors import ServiceError
from repro.geo.coordinates import GeoPoint
from repro.geo.distance import destination_point
from repro.lbsn.models import CheckIn, User, Venue
from repro.lbsn.store import DataStore
from repro.obs.metrics import MetricsRegistry

ABQ = GeoPoint(35.0844, -106.6504)


def make_user(user_id, username=None):
    return User(user_id=user_id, display_name=f"U{user_id}", username=username)


def make_venue(venue_id, location=ABQ):
    return Venue(venue_id=venue_id, name=f"V{venue_id}", location=location)


def make_checkin(checkin_id, user_id=1, venue_id=1, timestamp=0.0):
    return CheckIn(
        checkin_id=checkin_id,
        user_id=user_id,
        venue_id=venue_id,
        timestamp=timestamp,
        reported_location=ABQ,
    )


class TestUsers:
    def test_add_and_get(self):
        store = DataStore()
        user = store.add_user(make_user(1, username="a"))
        assert store.get_user(1) is user
        assert store.get_user_by_username("a") is user
        assert store.user_count() == 1

    def test_duplicate_id_rejected(self):
        store = DataStore()
        store.add_user(make_user(1))
        with pytest.raises(ServiceError):
            store.add_user(make_user(1))

    def test_duplicate_username_rejected(self):
        store = DataStore()
        store.add_user(make_user(1, username="a"))
        with pytest.raises(ServiceError):
            store.add_user(make_user(2, username="a"))

    def test_require_user_raises_when_missing(self):
        with pytest.raises(ServiceError):
            DataStore().require_user(42)

    def test_iter_users_snapshot(self):
        store = DataStore()
        store.add_user(make_user(1))
        store.add_user(make_user(2))
        assert {u.user_id for u in store.iter_users()} == {1, 2}


class TestVenues:
    def test_add_and_spatial_query(self):
        store = DataStore()
        near = store.add_venue(make_venue(1, destination_point(ABQ, 0, 200.0)))
        store.add_venue(make_venue(2, destination_point(ABQ, 0, 9_000.0)))
        hits = store.venues_near(ABQ, 1_000.0)
        assert [v.venue_id for v in hits] == [near.venue_id]

    def test_nearest_venue(self):
        store = DataStore()
        store.add_venue(make_venue(1, destination_point(ABQ, 0, 200.0)))
        store.add_venue(make_venue(2, destination_point(ABQ, 0, 900.0)))
        assert store.nearest_venue(ABQ).venue_id == 1

    def test_nearest_none_when_empty(self):
        assert DataStore().nearest_venue(ABQ) is None

    def test_duplicate_venue_rejected(self):
        store = DataStore()
        store.add_venue(make_venue(1))
        with pytest.raises(ServiceError):
            store.add_venue(make_venue(1))


class TestCheckins:
    def test_indexes_by_user_and_venue(self):
        store = DataStore()
        store.add_checkin(make_checkin(1, user_id=1, venue_id=5))
        store.add_checkin(make_checkin(2, user_id=1, venue_id=6))
        store.add_checkin(make_checkin(3, user_id=2, venue_id=5))
        assert len(store.checkins_of_user(1)) == 2
        assert len(store.checkins_at_venue(5)) == 2
        assert store.checkin_count() == 3

    def test_duplicate_checkin_rejected(self):
        store = DataStore()
        store.add_checkin(make_checkin(1))
        with pytest.raises(ServiceError):
            store.add_checkin(make_checkin(1))

    def test_duplicate_committed_checkin_changes_nothing(self):
        store = DataStore()
        store.add_checkin_committed(make_checkin(1, user_id=1, venue_id=5))

        def state():
            return (
                store.checkin_count(),
                list(store.checkins_of_user(1)),
                list(store.checkins_at_venue(5)),
                store.event_seq_watermark(),
            )

        before = state()
        with pytest.raises(ServiceError):
            store.add_checkin_committed(
                make_checkin(1, user_id=1, venue_id=5)
            )
        # All-or-nothing: no row landed, no seq slot was burned.
        assert state() == before


class TestReadsNeverInsert:
    @staticmethod
    def _state(store):
        return (
            store.user_count(),
            store.checkin_count(),
            sorted(store._checkins_by_user),
            sorted(store._checkins_by_venue),
        )

    def test_reads_of_unknown_and_fresh_ids_change_nothing(self):
        store = DataStore()
        store.add_user(make_user(1))
        store.add_venue(make_venue(1))
        store.add_checkin_committed(make_checkin(1, user_id=1, venue_id=1))
        store.add_user(make_user(2))
        store.add_venue(make_venue(2))
        before = self._state(store)
        for unknown in range(1_000, 2_000):
            assert not store.checkins_of_user(unknown)
            assert not store.checkins_at_venue(unknown)
        assert not store.checkins_of_user(2)
        assert not store.checkins_at_venue(2)
        assert self._state(store) == before

    def test_first_row_appears_in_the_next_read(self):
        store = DataStore()
        store.add_user(make_user(1))
        store.add_venue(make_venue(5))
        assert not store.checkins_of_user(1)
        first = make_checkin(1, user_id=1, venue_id=5)
        store.add_checkin_committed(first)
        by_user = store.checkins_of_user(1)
        assert list(by_user) == [first]
        assert list(store.checkins_at_venue(5)) == [first]
        # From its first row on, an id's read is the live list again.
        second = make_checkin(2, user_id=1, venue_id=5)
        store.add_checkin_committed(second)
        assert list(by_user) == [first, second]


class TestConcurrency:
    def test_parallel_checkin_inserts(self):
        store = DataStore()
        errors = []

        def worker(base):
            try:
                for index in range(200):
                    store.add_checkin(
                        make_checkin(base + index, user_id=base, venue_id=1)
                    )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(base,))
            for base in (1_000, 2_000, 3_000)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.checkin_count() == 600
        assert len(store.checkins_at_venue(1)) == 600


class TestLockFreePointReads:
    def test_point_reads_never_wait_for_the_store_lock(self):
        # Every writer holds the lock; a crawl thread's point read must
        # not queue behind one (the two-thread crawl convoyed there).
        store = DataStore()
        user = store.add_user(make_user(1, username="a"))
        venue = store.add_venue(make_venue(1))
        held, release = threading.Event(), threading.Event()

        def hold_lock():
            with store._lock:
                held.set()
                release.wait(10.0)

        results = []

        def read():
            results.append(store.get_user(1))
            results.append(store.get_venue(1))
            results.append(store.get_user_by_username("a"))

        holder = threading.Thread(target=hold_lock)
        reader = threading.Thread(target=read)
        holder.start()
        try:
            assert held.wait(5.0)
            reader.start()
            reader.join(2.0)
            assert not reader.is_alive(), "a point read waited for the lock"
        finally:
            release.set()
            holder.join(5.0)
            reader.join(5.0)
        assert not holder.is_alive() and not reader.is_alive()
        assert results == [user, venue, user]


class TestLockHoldInstrumentation:
    """Regression: attaching metrics mid-commit must not observe garbage.

    The old pattern read ``self._lock_hold`` twice — once to decide
    whether to stamp ``started`` (else ``0.0``) and again to decide
    whether to observe.  An instrument attached between the two reads
    recorded ``perf_counter() - 0.0`` (~machine uptime) into the
    histogram.  The fix binds the instrument once per commit.
    """

    @staticmethod
    def _hold_child(registry):
        return registry.histogram(
            "repro_store_lock_hold_seconds",
            "Store-lock hold time per committed check-in.",
        ).child()

    def _attach_mid_commit(self, store, registry):
        """Attach the instrument from inside the locked commit section."""
        original = store._insert_checkin_row_locked

        def hooked(checkin):
            store._lock_hold = self._hold_child(registry)
            store._insert_checkin_row_locked = original
            original(checkin)

        store._insert_checkin_row_locked = hooked

    def test_mid_commit_attach_observes_nothing_garbage(self):
        registry = MetricsRegistry()
        store = DataStore()  # no metrics: _lock_hold starts detached
        self._attach_mid_commit(store, registry)
        store.add_checkin_committed(make_checkin(1))
        hold = store._lock_hold
        # The in-flight commit bound None and must skip the observation;
        # the next commit observes one sane (sub-second) hold time.
        assert hold._count == 0
        store.add_checkin_committed(make_checkin(2))
        assert hold._count == 1
        assert hold._sum < 1.0

    def test_steady_state_hold_times_stay_sane(self):
        registry = MetricsRegistry()
        store = DataStore(metrics=registry)
        for index in range(10):
            store.add_checkin_committed(make_checkin(index + 1))
        hold = store._lock_hold
        assert hold._count == 10
        assert hold._sum < 1.0
