"""Unit tests for the LBSN service: the full check-in pipeline."""

import pytest

from repro.errors import ServiceError
from repro.geo.coordinates import GeoPoint
from repro.geo.distance import destination_point
from repro.lbsn.cheater_code import RULE_FREQUENT, RULE_SUPERHUMAN
from repro.lbsn.models import CheckInStatus, Special
from repro.lbsn.service import RULE_GPS_VERIFICATION, LbsnService
from repro.simnet.clock import SECONDS_PER_DAY

ABQ = GeoPoint(35.0844, -106.6504)
SF = GeoPoint(37.8080, -122.4177)


@pytest.fixture
def populated():
    service = LbsnService()
    user = service.register_user("Tester", username="tester")
    venue = service.create_venue("Coffee Corner", ABQ, city="Albuquerque, NM")
    return service, user, venue


class TestRegistration:
    def test_sequential_user_ids(self, service):
        first = service.register_user("A")
        second = service.register_user("B")
        assert (first.user_id, second.user_id) == (1, 2)

    def test_sequential_venue_ids(self, service):
        v1 = service.create_venue("V1", ABQ)
        v2 = service.create_venue("V2", ABQ)
        assert (v1.venue_id, v2.venue_id) == (1, 2)

    def test_empty_names_rejected(self, service):
        with pytest.raises(ServiceError):
            service.register_user("")
        with pytest.raises(ServiceError):
            service.create_venue("", ABQ)

    def test_duplicate_username_rejected(self, service):
        service.register_user("A", username="dup")
        with pytest.raises(ServiceError):
            service.register_user("B", username="dup")

    def test_lookup_by_username(self, service):
        user = service.register_user("A", username="alpha")
        assert service.store.get_user_by_username("alpha") is user


class TestGpsVerification:
    def test_nearby_report_accepted(self, populated):
        service, user, venue = populated
        result = service.check_in(user.user_id, venue.venue_id, ABQ)
        assert result.checkin.status is CheckInStatus.VALID

    def test_distant_report_rejected(self, populated):
        # Claiming a venue while the GPS says 1000+ km away fails the
        # server's GPS verification outright.
        service, user, venue = populated
        result = service.check_in(user.user_id, venue.venue_id, SF)
        assert result.checkin.status is CheckInStatus.REJECTED
        assert result.checkin.flagged_rule == RULE_GPS_VERIFICATION
        assert not result.rewarded

    def test_rejected_checkin_not_counted(self, populated):
        service, user, venue = populated
        service.check_in(user.user_id, venue.venue_id, SF)
        assert user.total_checkins == 0
        assert service.store.checkin_count() == 0

    def test_edge_of_radius_accepted(self, populated):
        service, user, venue = populated
        near = destination_point(ABQ, 0.0, 900.0)
        result = service.check_in(user.user_id, venue.venue_id, near)
        assert result.checkin.status is CheckInStatus.VALID

    def test_unknown_user_or_venue(self, populated):
        service, user, venue = populated
        with pytest.raises(ServiceError):
            service.check_in(999, venue.venue_id, ABQ)
        with pytest.raises(ServiceError):
            service.check_in(user.user_id, 999, ABQ)


class TestRewardPipeline:
    def test_first_checkin_rewards(self, populated):
        service, user, venue = populated
        result = service.check_in(user.user_id, venue.venue_id, ABQ)
        assert result.points > 0
        assert "Newbie" in result.new_badges
        assert result.became_mayor  # sole visitor takes the crown
        assert user.points == result.points
        assert user.valid_checkins == 1

    def test_venue_counters_update(self, populated):
        service, user, venue = populated
        service.check_in(user.user_id, venue.venue_id, ABQ)
        assert venue.checkin_count == 1
        assert venue.unique_visitor_count == 1
        assert venue.recent_visitors == [user.user_id]

    def test_flagged_checkin_counts_but_earns_nothing(self, populated):
        # §4.3's policy: flagged check-ins "still count in the total
        # number of check-ins, but do not receive any rewards".
        service, user, venue = populated
        remote = service.create_venue("Remote", SF, city="San Francisco, CA")
        service.check_in(user.user_id, venue.venue_id, ABQ)
        points_before = user.points
        result = service.check_in(
            user.user_id, remote.venue_id, SF,
            timestamp=service.clock.now() + 60.0,
        )
        assert result.checkin.status is CheckInStatus.FLAGGED
        assert result.checkin.flagged_rule == RULE_SUPERHUMAN
        assert user.total_checkins == 2
        assert user.valid_checkins == 1
        assert user.points == points_before
        assert remote.checkin_count == 0
        assert not remote.recent_visitors

    def test_same_venue_within_hour_rejected(self, populated):
        service, user, venue = populated
        service.check_in(user.user_id, venue.venue_id, ABQ)
        result = service.check_in(
            user.user_id, venue.venue_id, ABQ,
            timestamp=service.clock.now() + 600.0,
        )
        assert result.checkin.status is CheckInStatus.REJECTED
        assert result.checkin.flagged_rule == RULE_FREQUENT
        assert user.total_checkins == 1

    def test_first_of_day_bonus_applies_once(self, populated):
        service, user, venue = populated
        other = service.create_venue(
            "Second Venue", destination_point(ABQ, 90.0, 400.0)
        )
        first = service.check_in(
            user.user_id, venue.venue_id, ABQ, timestamp=1_000.0
        )
        second = service.check_in(
            user.user_id,
            other.venue_id,
            other.location,
            timestamp=3_500.0,
        )
        # First: base + first-visit + first-of-day + mayor = 1+2+3+5.
        assert first.points == 11
        # Second: base + first-visit + mayor (no first-of-day).
        assert second.points == 8


class TestMayorshipFlow:
    def test_mayor_transfer_emits_loser(self, populated):
        service, user, venue = populated
        rival = service.register_user("Rival")
        service.check_in(
            user.user_id, venue.venue_id, ABQ, timestamp=1_000.0
        )
        assert venue.mayor_id == user.user_id
        # Rival checks in on 3 distinct days; incumbent has 1 day.
        result = None
        for day in range(1, 4):
            result = service.check_in(
                rival.user_id,
                venue.venue_id,
                ABQ,
                timestamp=day * SECONDS_PER_DAY + 1_000.0,
            )
        assert venue.mayor_id == rival.user_id
        assert result.became_mayor or result.checkin.status is CheckInStatus.VALID
        assert service.mayorship_count(user.user_id) == 0
        assert service.mayorship_count(rival.user_id) == 1
        assert user.mayorship_count == 0
        assert rival.mayorship_count == 1

    def test_refresh_mayorship_ages_out(self, populated):
        service, user, venue = populated
        service.check_in(user.user_id, venue.venue_id, ABQ, timestamp=0.0)
        assert venue.mayor_id == user.user_id
        service.clock.advance_to(70 * SECONDS_PER_DAY)
        service.refresh_mayorship(venue.venue_id)
        assert venue.mayor_id is None
        assert service.mayorship_count(user.user_id) == 0

    def test_refresh_all_counts_changes(self, populated):
        service, user, venue = populated
        service.check_in(user.user_id, venue.venue_id, ABQ, timestamp=0.0)
        service.clock.advance_to(70 * SECONDS_PER_DAY)
        assert service.refresh_all_mayorships() == 1
        assert service.refresh_all_mayorships() == 0


class TestSpecials:
    def test_mayor_only_special_unlocks_with_crown(self, service):
        user = service.register_user("A")
        venue = service.create_venue(
            "Cafe", ABQ, special=Special("Free coffee for the mayor!")
        )
        result = service.check_in(user.user_id, venue.venue_id, ABQ)
        assert result.became_mayor
        assert result.special_unlocked is venue.special

    def test_count_special_unlocks_at_threshold(self, service):
        user = service.register_user("A")
        venue = service.create_venue(
            "Cafe",
            ABQ,
            special=Special(
                "Free drink on 2nd visit", mayor_only=False, unlock_checkins=2
            ),
        )
        first = service.check_in(
            user.user_id, venue.venue_id, ABQ, timestamp=0.0
        )
        assert first.special_unlocked is None
        second = service.check_in(
            user.user_id, venue.venue_id, ABQ, timestamp=7_200.0
        )
        assert second.special_unlocked is venue.special


class TestNearbyVenues:
    def test_nearby_ordering_and_radius(self, service):
        close = service.create_venue("Close", destination_point(ABQ, 0, 100.0))
        farther = service.create_venue(
            "Farther", destination_point(ABQ, 0, 800.0)
        )
        service.create_venue("Out of range", destination_point(ABQ, 0, 5_000.0))
        nearby = service.nearby_venues(ABQ)
        assert [v.venue_id for v in nearby] == [close.venue_id, farther.venue_id]

    def test_nearby_limit(self, service):
        for index in range(40):
            service.create_venue(
                f"V{index}", destination_point(ABQ, index * 9.0, 500.0)
            )
        assert len(service.nearby_venues(ABQ)) == service.config.nearby_limit


class TestCounters:
    def test_counter_totals(self, populated):
        service, user, venue = populated
        service.check_in(user.user_id, venue.venue_id, ABQ, timestamp=0.0)
        service.check_in(user.user_id, venue.venue_id, ABQ, timestamp=60.0)
        assert service.counters.valid == 1
        assert service.counters.rejected == 1
