"""Consistent-hash routing, the durable bus tap, and shard semantics.

The load-bearing property here is the one the recovery layer depends on:
routing is a pure function of (user key, partition count), so a replayed
event lands on the same shard every time.  The N=1 equivalence test pins
that a single-partition pipeline is *exactly* a plain SuspicionLedger —
partitioning only changes scoring when the venue replica is sharded.
"""

import pytest

from repro.analysis.detection import DetectorConfig
from repro.durable.partition import (
    ConsistentHashRouter,
    PartitionError,
    user_key,
)
from repro.durable.worker import PartitionedDetectorPipeline
from repro.geo.coordinates import GeoPoint
from repro.stream import detectors
from repro.stream.bus import EventBus
from repro.stream.events import (
    CheckInAccepted,
    CheckInFlagged,
    CheckInRejected,
    MayorChanged,
    UserRegistered,
    VenueCreated,
)
from repro.stream.ledger import SuspicionLedger

CONFIG = DetectorConfig(min_total_checkins=10)


def spread(router, keys):
    """How many of ``keys`` each partition owns."""
    counts = [0] * router.partitions
    for key in keys:
        counts[router.route_key(key)] += 1
    return counts


@pytest.fixture
def small_bounds(monkeypatch):
    """Factor-table LRU bounds of 256 users and 256 venues."""
    monkeypatch.setattr(detectors, "MAX_USERS", 256)
    monkeypatch.setattr(detectors, "MAX_VENUES", 256)


def checkin(seq, user_id, venue_id=0, flagged=False):
    cls = CheckInFlagged if flagged else CheckInAccepted
    kwargs = dict(
        user_id=user_id,
        venue_id=venue_id,
        venue_location=GeoPoint(40.0, -74.0),
        reported_location=GeoPoint(40.0, -74.0),
        checkin_id=seq,
    )
    if not flagged:
        kwargs["points"] = 3
    return cls(seq, float(seq) * 60.0, **kwargs)


class TestRouter:
    def test_routing_is_deterministic(self):
        one = ConsistentHashRouter(4)
        two = ConsistentHashRouter(4)
        for user_id in range(500):
            assert one.route_key(user_id) == two.route_key(user_id)

    def test_routes_are_in_range(self):
        router = ConsistentHashRouter(5)
        for user_id in range(1000):
            assert 0 <= router.route_key(user_id) < 5

    def test_single_partition_routes_everything_to_zero(self):
        router = ConsistentHashRouter(1)
        assert spread(router, range(200)) == [200]

    def test_spread_is_roughly_balanced(self):
        counts = spread(ConsistentHashRouter(4), range(4000))
        assert min(counts) > 0
        # Consistent hashing is lumpy but not degenerate: no shard
        # should own more than ~2.5x its fair share at this scale.
        assert max(counts) < 2500

    def test_growing_the_ring_moves_few_keys(self):
        # The defining property vs. modulo hashing: adding a partition
        # relocates ~1/(N+1) of keys, not ~all of them.
        four = ConsistentHashRouter(4)
        five = ConsistentHashRouter(5)
        moved = sum(
            1
            for key in range(2000)
            if four.route_key(key) != five.route_key(key)
        )
        assert moved < 1000  # modulo hashing would move ~1600

    def test_bad_arguments_rejected(self):
        with pytest.raises(PartitionError):
            ConsistentHashRouter(0)

    def test_user_key_extraction(self):
        keyed = [
            checkin(1, user_id=7),
            checkin(2, user_id=7, flagged=True),
            CheckInRejected(
                3, 0.0, user_id=7, venue_id=1,
                venue_location=GeoPoint(0.0, 0.0),
                reported_location=GeoPoint(0.0, 0.0),
                checkin_id=3,
            ),
            UserRegistered(4, 0.0, user_id=7),
        ]
        for event in keyed:
            assert user_key(event) == 7
        assert user_key(VenueCreated(5, 0.0, venue_id=1)) is None
        assert user_key(MayorChanged(6, 0.0, venue_id=1)) is None

    def test_route_event_broadcasts_keyless(self):
        router = ConsistentHashRouter(3)
        assert router.route_event(VenueCreated(0, 0.0, venue_id=1)) is None
        assert router.route_event(checkin(1, user_id=9)) == router.route_key(9)


class TestSinglePartitionEquivalence:
    def test_n1_pipeline_is_exactly_a_plain_ledger(
        self, tmp_path, small_bounds
    ):
        """With one shard nothing is split: digests must match exactly."""
        events = []
        for seq in range(300):
            events.append(
                checkin(
                    seq,
                    user_id=seq % 9,
                    venue_id=seq % 5,
                    flagged=(seq % 7 == 0),
                )
            )
        plain = SuspicionLedger(config=CONFIG)
        with PartitionedDetectorPipeline(1, tmp_path, config=CONFIG) as pipeline:
            for event in events:
                plain.on_event(event)
                pipeline.on_event(event)
            assert pipeline.workers[0].ledger.digest() == plain.digest()
            assert sorted(pipeline.suspect_ids()) == sorted(
                plain.suspect_ids()
            )

    def test_sharded_run_routes_each_user_to_one_wal(
        self, tmp_path, small_bounds
    ):
        with PartitionedDetectorPipeline(4, tmp_path, config=CONFIG) as pipeline:
            for seq in range(200):
                pipeline.on_event(checkin(seq, user_id=seq % 20))
            per_shard = [w.wal.appended for w in pipeline.workers]
            assert sum(per_shard) == 200  # keyed events are not duplicated
        # Every user's events live in exactly one shard's WAL.
        router = pipeline.router
        for seq in range(200):
            owner = router.route_key(seq % 20)
            assert owner == router.route_event(checkin(seq, user_id=seq % 20))

    def test_keyless_events_reach_every_shard(self, tmp_path):
        with PartitionedDetectorPipeline(3, tmp_path) as pipeline:
            pipeline.on_event(VenueCreated(0, 0.0, venue_id=1))
            assert [w.wal.appended for w in pipeline.workers] == [1, 1, 1]


class TestDurableBusTap:
    def test_durable_tap_runs_before_plain_subscribers(self):
        order = []
        bus = EventBus()
        bus.subscribe("plain", lambda e: order.append("plain"))
        bus.subscribe("tap", lambda e: order.append("tap"), durable=True)
        bus.publish(UserRegistered(0, 0.0, user_id=1))
        bus.close()
        assert order == ["tap", "plain"]
        # Durable-first even though it subscribed second.

    def test_subscriber_names_list_durable_first(self):
        bus = EventBus()
        bus.subscribe("plain", lambda e: None)
        bus.subscribe("tap", lambda e: None, durable=True)
        assert bus.subscriber_names() == ["tap", "plain"]
        bus.unsubscribe("tap")
        assert bus.subscriber_names() == ["plain"]
        bus.close()

    def test_pipeline_attach_taps_the_bus(self, tmp_path, small_bounds):
        bus = EventBus()
        with PartitionedDetectorPipeline(2, tmp_path, config=CONFIG) as pipeline:
            pipeline.attach(bus)
            for seq in range(50):
                bus.publish(checkin(seq, user_id=seq % 6))
            assert pipeline.events_routed == 50
            total = sum(w.wal.appended for w in pipeline.workers)
            assert total == 50
        bus.close()
