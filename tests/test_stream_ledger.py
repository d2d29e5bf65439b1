"""Tests for the live suspicion ledger: scoring, churn, inline defense,
and online-vs-offline parity on a full seeded world."""

import pytest

from repro.analysis.detection import CheaterDetector, DetectorConfig
from repro.crawler import crawl_full_site
from repro.defense.distance_bounding import DistanceBoundingVerifier
from repro.defense.integration import (
    RULE_STREAM_SUSPECT,
    DefendedLbsnService,
    DeviceRegistry,
    registry_locator,
)
from repro.geo.coordinates import GeoPoint
from repro.geo.regions import US_CITIES
from repro.lbsn.models import CheckInStatus
from repro.lbsn.service import LbsnService
from repro.stream import (
    CheckInAccepted,
    CheckInFlagged,
    EventBus,
    SuspicionLedger,
    detectors,
)
from repro.workload import build_web_stack, build_world

HERE = GeoPoint(35.0844, -106.6504)


def accepted(user_id, venue_id, ts, where=HERE, badges=0):
    return CheckInAccepted(
        seq=-1,
        timestamp=ts,
        user_id=user_id,
        venue_id=venue_id,
        venue_location=where,
        reported_location=where,
        new_badge_count=badges,
    )


def flagged(user_id, venue_id, ts, where=HERE):
    return CheckInFlagged(
        seq=-1,
        timestamp=ts,
        user_id=user_id,
        venue_id=venue_id,
        venue_location=where,
        reported_location=where,
        rule="frequent",
    )


class TestLedgerScoring:
    def test_below_min_total_never_reported(self):
        ledger = SuspicionLedger(DetectorConfig(min_total_checkins=50))
        for i in range(30):
            ledger.on_event(accepted(1, i, ts=float(i)))
        assert not ledger.is_suspect(1)
        assert len(ledger) == 0

    def test_strong_activity_factor_reports(self):
        # 25 distinct venues, well-badged: only the activity factor is hot
        # (recent == total), and a single screaming factor suffices.
        ledger = SuspicionLedger(DetectorConfig(min_total_checkins=20))
        for i in range(25):
            ledger.on_event(accepted(1, i, ts=float(i), badges=2))
        report = ledger.score_user(1)
        assert report.activity_score == 1.0
        assert report.reward_score == 0.0
        assert ledger.is_suspect(1)

    def test_suspect_leaves_ledger_when_displaced(self):
        ledger = SuspicionLedger(DetectorConfig(min_total_checkins=20))
        for i in range(25):
            ledger.on_event(accepted(1, i, ts=float(i), badges=2))
        assert ledger.is_suspect(1)
        # Ten later visitors per venue push user 1 off every recent list.
        ts = 100.0
        for venue in range(25):
            for other in range(2, 13):
                ts += 1.0
                ledger.on_event(accepted(other, venue, ts=ts, badges=2))
        assert not ledger.is_suspect(1)

    def test_top_k_orders_by_combined_score(self):
        ledger = SuspicionLedger(DetectorConfig(min_total_checkins=10))
        # User 1: one city.  User 2: many cities -> higher pattern score.
        for i in range(15):
            ledger.on_event(accepted(1, i, ts=float(i)))
        for i, city in enumerate(US_CITIES[:15]):
            ledger.on_event(accepted(2, 100 + i, ts=float(i), where=city.center))
        top = ledger.top(2)
        assert [r.user_id for r in top] == [2, 1]
        assert top[0].city_count == 15

    def test_events_processed_counts_checkins(self):
        ledger = SuspicionLedger()
        bus = EventBus()
        ledger.attach(bus)
        for i in range(5):
            bus.publish(accepted(1, i, ts=float(i)))
        assert ledger.events_processed == 5

    def test_flagged_checkins_keep_the_whole_record_resident(
        self, monkeypatch
    ):
        # One record per user, one recency order: a user kept warm only by
        # flagged check-ins keeps their city count along with their total
        # when the table is over its bound.
        monkeypatch.setattr(detectors, "MAX_USERS", 4)
        ledger = SuspicionLedger()
        for i, city in enumerate(US_CITIES[:6]):
            ledger.on_event(accepted(1, i, ts=float(i), where=city.center))
        ts = 100.0
        for other in range(2, 6):
            ledger.on_event(flagged(1, 50 + other, ts=ts))
            ledger.on_event(accepted(other, 50 + other, ts=ts + 1.0))
            ts += 10.0
        report = ledger.score_user(1)
        assert report.total_checkins == 10
        assert report.city_count == 6
        assert report.pattern_score == 0.3


class TestInlineDefense:
    def test_ledger_verdict_refuses_checkins(self):
        config = DetectorConfig(min_total_checkins=20)
        bus = EventBus()
        ledger = SuspicionLedger(config).attach(bus)
        service = LbsnService(event_bus=bus)
        registry = DeviceRegistry()
        defended = DefendedLbsnService(
            service,
            DistanceBoundingVerifier(seed=1),
            registry_locator(registry),
            suspicion_ledger=ledger,
        )
        cheater = service.register_user("Cheater")
        venues = [
            service.create_venue(f"V{i}", HERE) for i in range(30)
        ]
        registry.place(cheater.user_id, HERE)
        # Burn through venues (2h apart — no cheater-code trips); once the
        # account crosses the reporting bar the ledger starts refusing.
        results = [
            defended.check_in(
                cheater.user_id, venue.venue_id, HERE,
                timestamp=7_200.0 * (i + 1),
            )
            for i, venue in enumerate(venues[:25])
        ]
        assert ledger.is_suspect(cheater.user_id)
        assert defended.stats.ledger_refused > 0
        refused = [
            r for r in results
            if r.checkin.flagged_rule == RULE_STREAM_SUSPECT
        ]
        assert len(refused) == defended.stats.ledger_refused
        # The gate stays shut for further attempts.
        result = defended.check_in(
            cheater.user_id, venues[25].venue_id, HERE,
            timestamp=7_200.0 * 40,
        )
        assert result.checkin.status is CheckInStatus.REJECTED
        assert result.checkin.flagged_rule == RULE_STREAM_SUSPECT

    def test_honest_user_unaffected(self):
        bus = EventBus()
        ledger = SuspicionLedger(DetectorConfig(min_total_checkins=20)).attach(bus)
        service = LbsnService(event_bus=bus)
        registry = DeviceRegistry()
        defended = DefendedLbsnService(
            service,
            DistanceBoundingVerifier(seed=1),
            registry_locator(registry),
            suspicion_ledger=ledger,
        )
        user = service.register_user("Honest")
        venue = service.create_venue("Cafe", HERE)
        registry.place(user.user_id, HERE)
        result = defended.check_in(user.user_id, venue.venue_id, HERE)
        assert result.rewarded
        assert defended.stats.ledger_refused == 0


class TestOnlineOfflineParity:
    """The E19 acceptance: streaming flags >= 90% of offline suspects."""

    @pytest.fixture(scope="class")
    def streamed_world(self):
        config = DetectorConfig(min_total_checkins=100)
        bus = EventBus()
        ledger = SuspicionLedger(config=config).attach(bus)
        service = LbsnService(event_bus=bus)
        world = build_world(scale=0.0004, seed=20_110_601, service=service)
        return world, bus, ledger, config

    def test_world_streams_through_pipeline(self, streamed_world):
        world, bus, ledger, _ = streamed_world
        assert bus.published > 0
        assert ledger.events_processed > 1_000

    def test_streaming_flags_offline_suspects(self, streamed_world):
        world, bus, ledger, config = streamed_world
        stack = build_web_stack(world, seed=11)
        database, _, _ = crawl_full_site(
            stack.transport, [stack.network.create_egress()]
        )
        offline = CheaterDetector(database, config).find_suspects()
        offline_ids = {r.user_id for r in offline}
        assert offline_ids, "seeded world must contain offline suspects"
        online_ids = set(ledger.suspect_ids())
        overlap = offline_ids & online_ids
        assert len(overlap) / len(offline_ids) >= 0.9

    def test_planted_mega_cheater_caught_online(self, streamed_world):
        world, bus, ledger, _ = streamed_world
        mega = world.roster.mega_cheater
        assert mega is not None
        assert ledger.is_suspect(mega.user_id)
        report = ledger.score_user(mega.user_id)
        assert report.city_count >= 10
