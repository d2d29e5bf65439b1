"""Stateful property testing of the LBSN service's bookkeeping.

Hypothesis drives random sequences of registrations and check-ins (honest,
teleporting, rapid) against a live service, then checks the global
invariants after every step: counters reconcile, mayorship indexes agree
from every direction, and flagged check-ins never produce rewards.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.geo.coordinates import GeoPoint
from repro.geo.distance import destination_point
from repro.lbsn.models import CheckInStatus
from repro.lbsn.service import LbsnService

ANCHOR = GeoPoint(39.0, -95.0)
FAR = GeoPoint(47.0, -122.0)


class ServiceMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.service = LbsnService()
        self.users = []
        self.venues = []
        self.now = 0.0

    @rule(name_suffix=st.integers(min_value=0, max_value=10_000))
    def register_user(self, name_suffix):
        self.users.append(
            self.service.register_user(f"User {name_suffix}")
        )

    @rule(
        bearing=st.floats(min_value=0.0, max_value=360.0),
        distance=st.floats(min_value=0.0, max_value=5_000.0),
    )
    def create_venue(self, bearing, distance):
        location = destination_point(ANCHOR, bearing, distance)
        self.venues.append(
            self.service.create_venue(
                f"Venue {len(self.venues)}", location
            )
        )

    def _advance(self, seconds):
        self.now += seconds
        return self.now

    @rule(
        user_index=st.integers(min_value=0, max_value=50),
        venue_index=st.integers(min_value=0, max_value=50),
        gap_minutes=st.floats(min_value=0.5, max_value=300.0),
        teleport=st.booleans(),
    )
    def check_in(self, user_index, venue_index, gap_minutes, teleport):
        if not self.users or not self.venues:
            return
        user = self.users[user_index % len(self.users)]
        venue = self.venues[venue_index % len(self.venues)]
        timestamp = self._advance(gap_minutes * 60.0)
        location = FAR if teleport else venue.location
        result = self.service.check_in(
            user.user_id, venue.venue_id, location, timestamp=timestamp
        )
        # Local invariants on the single result.
        if result.checkin.status is not CheckInStatus.VALID:
            assert result.points == 0
            assert result.new_badges == []
            assert not result.became_mayor

    @invariant()
    def totals_reconcile(self):
        if not hasattr(self, "service"):
            return
        recorded = self.service.store.checkin_count()
        counted = sum(u.total_checkins for u in self.service.store.iter_users())
        assert recorded == counted

    @invariant()
    def valid_counts_reconcile(self):
        if not hasattr(self, "service"):
            return
        venue_valid = sum(
            v.checkin_count for v in self.service.store.iter_venues()
        )
        user_valid = sum(
            u.valid_checkins for u in self.service.store.iter_users()
        )
        assert venue_valid == user_valid

    @invariant()
    def mayorship_indexes_agree(self):
        if not hasattr(self, "service"):
            return
        # Venue -> mayor agrees with user.mayorship_count and the
        # service's per-user venue sets.
        by_user = {}
        for venue in self.service.store.iter_venues():
            if venue.mayor_id is not None:
                by_user[venue.mayor_id] = by_user.get(venue.mayor_id, 0) + 1
        for user in self.service.store.iter_users():
            expected = by_user.get(user.user_id, 0)
            assert user.mayorship_count == expected
            assert self.service.mayorship_count(user.user_id) == expected

    @invariant()
    def recent_visitor_lists_bounded_and_valid(self):
        if not hasattr(self, "service"):
            return
        for venue in self.service.store.iter_venues():
            assert len(venue.recent_visitors) <= venue.RECENT_VISITOR_LIMIT
            assert len(set(venue.recent_visitors)) == len(
                venue.recent_visitors
            )
            for user_id in venue.recent_visitors:
                assert user_id in venue.visitor_valid_counts

    @invariant()
    def unique_visitors_match_valid_history(self):
        if not hasattr(self, "service"):
            return
        store = self.service.store
        for venue in store.iter_venues():
            valid_users = {
                checkin.user_id
                for checkin in store.checkins_at_venue(venue.venue_id)
                if checkin.status is CheckInStatus.VALID
            }
            assert venue.unique_visitor_count == len(valid_users)


TestServiceStateMachine = ServiceMachine.TestCase
TestServiceStateMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
