"""Tests for the incremental factor table: correctness and memory bounds.

One :class:`FactorTable` keeps the counts behind all three factors; the
cases stay grouped by factor under the class names of the per-factor
detectors the table replaced, so their node IDs are unchanged.  The score
cases run the shared formulas of :mod:`repro.analysis.detection` on the
table's counts, and the gates through a :class:`SuspicionLedger`.
"""

import pytest

from repro.analysis.detection import (
    activity_score,
    pattern_score,
    reward_score,
)
from repro.geo.coordinates import GeoPoint
from repro.geo.distance import destination_point
from repro.geo.regions import US_CITIES
from repro.stream import (
    CheckInAccepted,
    CheckInFlagged,
    FactorTable,
    LruStateMap,
    SuspicionLedger,
    UserRegistered,
)
from repro.stream import detectors

HERE = GeoPoint(35.0844, -106.6504)  # Albuquerque


def accepted(user_id, venue_id, ts, where=HERE, badges=0, points=0):
    return CheckInAccepted(
        seq=-1,
        timestamp=ts,
        user_id=user_id,
        venue_id=venue_id,
        venue_location=where,
        reported_location=where,
        new_badge_count=badges,
        points=points,
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


class TestLruStateMap:
    def test_bound_enforced_with_eviction_count(self):
        lru = LruStateMap(max_entries=10)
        for key in range(25):
            lru.touch(key, dict)
        assert len(lru) == 10
        assert lru.evictions == 15

    def test_touch_refreshes_recency(self):
        lru = LruStateMap(max_entries=2)
        lru.touch("a", dict)
        lru.touch("b", dict)
        lru.touch("a", dict)  # 'a' is now hottest
        lru.touch("c", dict)  # evicts 'b'
        assert "a" in lru and "c" in lru and "b" not in lru

    def test_evict_callback_receives_pair(self):
        evicted = []
        lru = LruStateMap(max_entries=1, on_evict=lambda k, v: evicted.append(k))
        lru.touch(1, dict)
        lru.touch(2, dict)
        assert evicted == [1]

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            LruStateMap(max_entries=0)


class TestActivityRateDetector:
    """The activity factor: recent-list memberships over total check-ins."""

    def test_recent_membership_mirrors_venue_lists(self):
        table = FactorTable()
        # User 1 checks into three distinct venues: on three lists.
        for venue in (10, 11, 12):
            table.on_event(accepted(1, venue, ts=100.0))
        assert table.totals(1) == (3, 3)

    def test_rechecking_same_venue_does_not_double_count(self):
        table = FactorTable()
        table.on_event(accepted(1, 10, ts=1.0))
        table.on_event(accepted(1, 10, ts=2.0))
        assert table.totals(1) == (1, 2)

    def test_displacement_off_recent_list_decrements(self):
        table = FactorTable()
        table.on_event(accepted(1, 10, ts=0.0))
        for other in range(2, 12):  # ten later visitors push user 1 out
            table.on_event(accepted(other, 10, ts=float(other)))
        assert table.totals(1) == (0, 1)

    def test_flagged_counts_total_only(self):
        table = FactorTable()
        table.on_event(accepted(1, 10, ts=0.0))
        table.on_event(flagged(1, 11, ts=1.0))
        assert table.totals(1) == (1, 2)

    def test_non_checkin_events_ignored(self):
        table = FactorTable()
        table.on_event(UserRegistered(seq=-1, timestamp=0.0, user_id=1))
        assert table.totals(1) == (0, 0)

    def test_activity_score_matches_offline_formula(self):
        table = FactorTable()
        for venue in range(8):
            table.on_event(accepted(1, venue, ts=float(venue)))
        # 8 recent / 8 total = 1.0 ratio; saturates at ratio 0.8.
        assert activity_score(*table.totals(1)) == 1.0
        assert activity_score(2, 5) == 0.5
        assert SuspicionLedger().score_user(99).activity_score == 0.0

    def test_user_lru_bound(self, monkeypatch):
        monkeypatch.setattr(detectors, "MAX_USERS", 16)
        table = FactorTable()
        for user in range(64):
            table.on_event(accepted(user, 1, ts=float(user)))
        assert len(table.users) <= 16
        assert table.users.evictions == 48

    def test_venue_eviction_releases_memberships(self, monkeypatch):
        monkeypatch.setattr(detectors, "MAX_VENUES", 2)
        table = FactorTable()
        table.on_event(accepted(1, 10, ts=0.0))
        table.on_event(accepted(1, 11, ts=1.0))
        table.on_event(accepted(1, 12, ts=2.0))  # evicts venue 10's copy
        recent, total = table.totals(1)
        assert recent == 2
        assert total == 3


class TestRewardRateDetector:
    """The reward factor: badge shortfall against claimed activity."""

    def test_badges_accumulate_from_events(self):
        table = FactorTable()
        table.on_event(accepted(1, 10, ts=0.0, badges=2, points=5))
        table.on_event(accepted(1, 11, ts=1.0, badges=1, points=3))
        assert table.users.get(1).badges == 3
        assert table.totals(1) == (2, 2)

    def test_shortfall_formula_matches_offline(self):
        table = FactorTable()
        # 200 valid check-ins, zero badges: maximal shortfall.
        for i in range(200):
            table.on_event(accepted(1, i, ts=float(i)))
        state = table.users.get(1)
        assert reward_score(state.total, state.badges) == 1.0

    def test_well_rewarded_user_scores_zero(self):
        table = FactorTable()
        for i in range(10):
            table.on_event(accepted(1, i, ts=float(i), badges=1))
        state = table.users.get(1)
        assert reward_score(state.total, state.badges) == 0.0

    def test_unknown_user_scores_zero(self):
        assert SuspicionLedger().score_user(7).reward_score == 0.0


class TestGeoDispersionDetector:
    """The pattern factor: greedy city clusters of valid check-ins."""

    def test_city_count_one_metro(self):
        table = FactorTable()
        for i in range(10):
            point = destination_point(HERE, i * 36.0, 2_000.0 + i * 500.0)
            table.on_event(accepted(1, i, ts=float(i), where=point))
        assert table.city_count(1) == 1

    def test_city_count_many_metros(self):
        table = FactorTable()
        for i, city in enumerate(US_CITIES[:12]):
            table.on_event(accepted(1, i, ts=float(i), where=city.center))
        assert table.city_count(1) == 12

    def test_pattern_score_gated_on_min_points(self):
        ledger = SuspicionLedger()
        assert detectors.MIN_PATTERN_POINTS == 5
        for i, city in enumerate(US_CITIES[:4]):
            ledger.on_event(accepted(1, i, ts=float(i), where=city.center))
        assert ledger.score_user(1).pattern_score == 0.0
        ledger.on_event(accepted(1, 99, ts=99.0, where=US_CITIES[4].center))
        assert ledger.score_user(1).pattern_score == 0.25
        assert pattern_score(5) == 0.25

    def test_leader_cap_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(detectors, "MAX_CITY_LEADERS", 8)
        table = FactorTable()
        for i, city in enumerate(US_CITIES[:15]):
            table.on_event(accepted(1, i, ts=float(i), where=city.center))
        assert table.city_count(1) == 8

    def test_user_lru_bound(self, monkeypatch):
        monkeypatch.setattr(detectors, "MAX_USERS", 4)
        table = FactorTable()
        for user in range(20):
            table.on_event(accepted(user, 1, ts=float(user)))
        assert len(table.users) <= 4
        assert table.users.evictions == 16
