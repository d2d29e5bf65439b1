"""Online, O(1)-per-event versions of the Chapter-4 identifying factors.

The offline :class:`~repro.analysis.detection.CheaterDetector` scores users
from a *crawl snapshot*: (1) above-normal activity as the recent/total
check-in ratio, (2) below-normal rewards as badge shortfall, (3) suspicious
geographic pattern as the city count of the check-in map.  The
:class:`FactorTable` in this module keeps the same three signals
*incrementally* from the live event stream, in one record per user, so a
verdict is available the moment a check-in commits — no re-crawl, no
history rescan.

Memory is bounded under millions of users: the per-user records live in an
:class:`LruStateMap` capped at :data:`MAX_USERS` entries with
least-recently-updated eviction (an evicted cheater that keeps cheating
re-enters the table and re-accumulates quickly; an evicted dormant user
costs nothing), and the venue recent-visitor copies in one capped at
:data:`MAX_VENUES`.

Factor parity with the offline detector:

* **activity** — exact.  The table replays the venue recent-visitor list
  discipline (:data:`repro.lbsn.models.Venue.RECENT_VISITOR_LIMIT`
  distinct users, newest first) per venue and counts, per user, how many
  lists they currently appear on — precisely the crawler's
  ``RecentCheckins`` derived column — plus the same valid+flagged total.
* **reward** — exact.  Badges arrive on the event (``new_badge_count``).
* **pattern** — superset.  The stream clusters *every* valid check-in
  location (greedy leader clustering, same 60 km radius), while the crawl
  only sees venues where the user still sits in the recent list; streaming
  city counts are therefore ≥ the offline counts and flag at least the
  same users.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, List, Optional, Tuple, TypeVar

from repro.analysis.patterns import CITY_CLUSTER_RADIUS_M
from repro.geo.coordinates import GeoPoint
from repro.geo.distance import haversine_m
from repro.lbsn.models import Venue
from repro.stream.events import (
    CheckInAccepted,
    CheckInFlagged,
    StreamEvent,
)

#: LRU bound on resident per-user factor records.
MAX_USERS = 100_000
#: LRU bound on per-venue recent-visitor copies.
MAX_VENUES = 200_000
#: Valid check-ins required before the pattern factor scores at all.
MIN_PATTERN_POINTS = 5
#: Cap on tracked city leaders per user (memory bound; far above the
#: offline saturating count of 20, so saturation is unaffected).
MAX_CITY_LEADERS = 64

K = TypeVar("K")
V = TypeVar("V")


class LruStateMap(Generic[K, V]):
    """A bounded mapping with least-recently-*touched* eviction.

    Detector state for millions of users cannot all stay resident; this
    map keeps the ``max_entries`` hottest keys and reports how many cold
    ones it evicted (so benches can verify the bound actually engaged).
    Eviction hands the evicted pair to an optional callback so owners can
    decrement cross-table counters.
    """

    def __init__(self, max_entries: int, on_evict=None) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1: {max_entries}")
        self.max_entries = max_entries
        self.evictions = 0
        self._on_evict = on_evict
        self._data: "OrderedDict[K, V]" = OrderedDict()

    def touch(self, key: K, factory) -> V:
        """Get-or-create ``key``, marking it most recently used."""
        data = self._data
        value = data.get(key)
        if value is None and key not in data:
            value = factory()
            data[key] = value
            if len(data) > self.max_entries:
                old_key, old_value = data.popitem(last=False)
                self.evictions += 1
                if self._on_evict is not None:
                    self._on_evict(old_key, old_value)
        else:
            data.move_to_end(key)
        return value

    def get(self, key: K) -> Optional[V]:
        """Peek without changing recency."""
        return self._data.get(key)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def keys(self) -> List[K]:
        """Snapshot of resident keys, coldest first."""
        return list(self._data.keys())

    # Snapshot hooks ----------------------------------------------------
    #
    # Serialized coldest-first and restored by plain insertion in the
    # same order, so the restored map evicts in exactly the order the
    # original would have — recovery must not perturb LRU recency or
    # replayed evictions diverge from the uncrashed run.

    def state_dict(self, encode_value) -> dict:
        """JSON-able snapshot: eviction count + (key, value) pairs."""
        return {
            "evictions": self.evictions,
            "entries": [
                [key, encode_value(value)]
                for key, value in self._data.items()
            ],
        }

    def load_state_dict(self, doc: dict, decode_value) -> None:
        """Restore a :meth:`state_dict` snapshot (replaces contents)."""
        self._data.clear()
        self.evictions = doc["evictions"]
        for key, encoded in doc["entries"]:
            self._data[key] = decode_value(encoded)


class _UserFactors:
    """One user's factor inputs.

    ``total`` counts valid plus flagged check-ins and ``valid`` the
    accepted ones (the points of the check-in map); ``recent`` is how many
    venue recent-visitor lists the user currently appears on — the
    streaming mirror of the crawler's ``RecentCheckins`` column;
    ``badges`` sums the events' ``new_badge_count``; ``leaders`` are the
    greedy city-cluster leaders (the discipline of
    :func:`repro.analysis.patterns.cluster_cities`, applied online).
    """

    __slots__ = ("total", "valid", "recent", "badges", "leaders")

    def __init__(
        self,
        total: int = 0,
        valid: int = 0,
        recent: int = 0,
        badges: int = 0,
        leaders: Optional[List[GeoPoint]] = None,
    ) -> None:
        self.total = total
        self.valid = valid
        self.recent = recent
        self.badges = badges
        self.leaders = [] if leaders is None else leaders


class FactorTable:
    """The three Chapter-4 factors for every resident user.

    A check-in touches its user's record once.  An accepted one bumps the
    totals and badges, moves the user to the head of the venue's
    recent-visitor copy (from which the Fig 4.1 recent/total ratio falls
    out), and either joins one of the user's city clusters (one haversine
    per leader, at most :data:`MAX_CITY_LEADERS`) or founds a new one —
    the greedy-leader rule the offline Fig 4.3/4.4 analysis applies to the
    crawled check-in map.  A flagged one only counts toward the total.
    """

    def __init__(self) -> None:
        self.users: LruStateMap[int, _UserFactors] = LruStateMap(MAX_USERS)
        # Venue copy eviction must release its members' memberships.
        self.venues: LruStateMap[int, List[int]] = LruStateMap(
            MAX_VENUES, on_evict=self._venue_evicted
        )

    def _venue_evicted(self, venue_id: int, visitors: List[int]) -> None:
        for user_id in visitors:
            state = self.users.get(user_id)
            if state is not None and state.recent > 0:
                state.recent -= 1

    def on_event(self, event: StreamEvent) -> None:
        """Consume one bus event (non-check-in events are ignored)."""
        if isinstance(event, CheckInAccepted):
            user_id = event.user_id
            state = self.users.touch(user_id, _UserFactors)
            state.total += 1
            state.valid += 1
            state.badges += event.new_badge_count

            visitors = self.venues.touch(event.venue_id, list)
            if user_id in visitors:
                visitors.remove(user_id)
            else:
                state.recent += 1
            visitors.insert(0, user_id)
            if len(visitors) > Venue.RECENT_VISITOR_LIMIT:
                displaced = self.users.get(visitors.pop())
                if displaced is not None and displaced.recent > 0:
                    displaced.recent -= 1

            point = event.venue_location
            leaders = state.leaders
            for leader in leaders:
                if haversine_m(leader, point) <= CITY_CLUSTER_RADIUS_M:
                    break
            else:
                if len(leaders) < MAX_CITY_LEADERS:
                    leaders.append(point)
        elif isinstance(event, CheckInFlagged):
            self.users.touch(event.user_id, _UserFactors).total += 1

    # Read side ---------------------------------------------------------

    def totals(self, user_id: int) -> Tuple[int, int]:
        """(recent, total) — Fig 4.1's two axes."""
        state = self.users.get(user_id)
        if state is None:
            return (0, 0)
        return (state.recent, state.total)

    def city_count(self, user_id: int) -> int:
        """Distinct city clusters seen for this user."""
        state = self.users.get(user_id)
        return 0 if state is None else len(state.leaders)

    def activity_score(self, user_id: int, saturating_ratio: float) -> float:
        """The offline activity factor, from streaming state."""
        recent, total = self.totals(user_id)
        if total <= 0:
            return 0.0
        return min(1.0, (recent / total) / saturating_ratio)

    def reward_score(
        self,
        user_id: int,
        expected_badges_per_100: float,
        badge_ceiling: float,
    ) -> float:
        """The offline reward factor, from streaming state."""
        state = self.users.get(user_id)
        if state is None or state.total <= 0:
            return 0.0
        expected = max(
            1.0,
            min(badge_ceiling, state.total * expected_badges_per_100 / 100.0),
        )
        return max(0.0, 1.0 - state.badges / expected)

    def pattern_score(self, user_id: int, saturating_city_count: int) -> float:
        """The offline pattern factor, from streaming state."""
        state = self.users.get(user_id)
        if state is None or state.valid < MIN_PATTERN_POINTS:
            return 0.0
        return min(1.0, len(state.leaders) / saturating_city_count)

    # Snapshot hooks ----------------------------------------------------

    @staticmethod
    def _encode_user(state: _UserFactors) -> list:
        return [
            state.total,
            state.valid,
            state.recent,
            state.badges,
            [[p.latitude, p.longitude] for p in state.leaders],
        ]

    @staticmethod
    def _decode_user(doc: list) -> _UserFactors:
        total, valid, recent, badges, leaders = doc
        return _UserFactors(
            total,
            valid,
            recent,
            badges,
            [GeoPoint(lat, lon) for lat, lon in leaders],
        )

    def state_dict(self) -> dict:
        """JSON-able snapshot of both maps."""
        return {
            "users": self.users.state_dict(self._encode_user),
            "venues": self.venues.state_dict(list),
        }

    def load_state_dict(self, doc: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (replaces contents)."""
        self.users.load_state_dict(doc["users"], self._decode_user)
        self.venues.load_state_dict(doc["venues"], list)
