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

    def test_last_checkin(self):
        store = DataStore()
        assert store.last_checkin_of_user(1) is None
        store.add_checkin(make_checkin(1, timestamp=10.0))
        store.add_checkin(make_checkin(2, timestamp=20.0))
        assert store.last_checkin_of_user(1).checkin_id == 2

    def test_recent_checkins_newest_first(self):
        store = DataStore()
        for index in range(5):
            store.add_checkin(make_checkin(index + 1, timestamp=index * 10.0))
        recent = store.recent_checkins_of_user(1, limit=3)
        assert [c.checkin_id for c in recent] == [5, 4, 3]

    def test_get_checkin(self):
        store = DataStore()
        added = store.add_checkin(make_checkin(1))
        assert store.get_checkin(1) is added
        assert store.get_checkin(99) is None


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


class TestBatchCommit:
    def test_batch_allocates_contiguous_block_in_input_order(self):
        store = DataStore()
        rows = [make_checkin(i + 1, user_id=1, venue_id=1) for i in range(5)]
        pairs = store.add_checkins_committed(rows)
        assert [c.checkin_id for c, _ in pairs] == [1, 2, 3, 4, 5]
        seqs = [seq for _, seq in pairs]
        assert seqs == list(range(seqs[0], seqs[0] + 5))
        assert store.event_seq_watermark() == seqs[-1] + 1
        assert len(store.checkins_of_user(1)) == 5
        assert len(store.checkins_at_venue(1)) == 5

    def test_empty_batch_is_a_no_op(self):
        store = DataStore()
        assert store.add_checkins_committed([]) == []
        assert store.event_seq_watermark() == 0

    def test_duplicate_inside_batch_aborts_whole_batch(self):
        store = DataStore()
        rows = [
            make_checkin(1, user_id=1),
            make_checkin(2, user_id=1),
            make_checkin(1, user_id=1),
        ]
        with pytest.raises(ServiceError):
            store.add_checkins_committed(rows)
        # All-or-nothing: no row landed, no seq slot was burned.
        assert store.checkin_count() == 0
        assert store.event_seq_watermark() == 0

    def test_duplicate_against_existing_row_aborts_whole_batch(self):
        store = DataStore()
        store.add_checkin(make_checkin(2))
        with pytest.raises(ServiceError):
            store.add_checkins_committed(
                [make_checkin(1), make_checkin(2)]
            )
        assert store.checkin_count() == 1
        assert store.event_seq_watermark() == 0

    def test_batch_metrics_recorded(self):
        registry = MetricsRegistry()
        store = DataStore(metrics=registry)
        store.add_checkins_committed(
            [make_checkin(i + 1) for i in range(4)]
        )
        snapshot = registry.snapshot()
        assert snapshot["repro_store_batch_commits_total"][()] == 1
        assert snapshot["repro_store_batch_checkins_total"][()] == 4


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
            "Store-lock hold time across composite sections.",
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

    def test_mid_commit_attach_during_batch(self):
        registry = MetricsRegistry()
        store = DataStore()
        original = store._validate_new_rows_locked

        def hooked(checkins):
            store._lock_hold = self._hold_child(registry)
            store._validate_new_rows_locked = original
            original(checkins)

        store._validate_new_rows_locked = hooked
        store.add_checkins_committed(
            [make_checkin(1), make_checkin(2)]
        )
        assert store._lock_hold._count == 0
        store.add_checkins_committed([make_checkin(3)])
        assert store._lock_hold._count == 1
        assert store._lock_hold._sum < 1.0

    def test_mid_section_detach_in_locked_is_safe(self):
        registry = MetricsRegistry()
        store = DataStore(metrics=registry)
        hold = store._lock_hold
        count_before = hold._count
        with store.locked():
            store._lock_hold = None  # detached mid-section
        # The section still observes on the instrument it entered with.
        assert hold._count == count_before + 1

    def test_steady_state_hold_times_stay_sane(self):
        registry = MetricsRegistry()
        store = DataStore(metrics=registry)
        for index in range(10):
            store.add_checkin_committed(make_checkin(index + 1))
        hold = store._lock_hold
        assert hold._count == 10
        assert hold._sum < 1.0
