"""Data model of the simulated location-based social network.

These records mirror the entities the thesis observes on Foursquare: users
with points/badges/mayorships, venues with specials and recent-visitor lists,
and check-ins that may be flagged by the cheater code.  A flagged check-in
*still counts toward the user's total* but yields no rewards — §4.3: "all
detected cheating check-ins still count in the total number of check-ins,
but do not receive any rewards".

``User``, ``Venue`` and ``CheckIn`` are slotted, and a fresh user or venue
holds no container of its own: each per-row collection starts as one
shared, immutable empty value and becomes a real container on its first
write, which goes through a writer method (``User.add_badge``,
``User.add_friend``, ``User.record_valid_visit``,
``Venue.record_recent_visitor``, ``Venue.add_tip``,
``Venue.count_valid_visit``).  A row that is never written to therefore
costs no container, and a write that bypasses those methods raises instead
of writing into every row's shared default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import AbstractSet, Hashable, List, Mapping, Optional, Sequence, Set

from repro.geo.coordinates import GeoPoint

#: The shared empty ``Venue.visitor_valid_counts``.  ``dataclass`` only
#: takes hashable defaults, so rows get it from a factory.
_NO_VISITS: Mapping[int, int] = MappingProxyType({})


def _with(items: AbstractSet[Hashable], item: Hashable) -> Set[Hashable]:
    """``items`` plus ``item``; a row's first write replaces its shared
    empty ``frozenset`` with a set of its own."""
    if items:
        items.add(item)
        return items
    return {item}


class VenueCategory(Enum):
    """Coarse venue taxonomy used by the workload generator and analysis."""

    COFFEE = "coffee"
    RESTAURANT = "restaurant"
    BAR = "bar"
    SHOP = "shop"
    GROCERY = "grocery"
    HOTEL = "hotel"
    AIRPORT = "airport"
    LANDMARK = "landmark"
    OFFICE = "office"
    GYM = "gym"
    OTHER = "other"


@dataclass(frozen=True)
class Special:
    """A real-world reward a partner venue offers (§2.1).

    The thesis found "more than 90% of the rewards were only for mayors";
    the remainder unlock at a check-in count threshold.
    """

    description: str
    mayor_only: bool = True
    #: For non-mayor specials: total check-ins at this venue that unlock it.
    unlock_checkins: int = 1


@dataclass(slots=True)
class User:
    """A registered account.

    Only ~26.1% of crawled users had a username-based profile URL (§3.2),
    hence ``username`` is optional while ``user_id`` is always present.
    """

    user_id: int
    display_name: str
    username: Optional[str] = None
    home_city: str = ""
    created_at: float = 0.0
    #: Total check-ins INCLUDING flagged ones (Foursquare's observed policy).
    total_checkins: int = 0
    #: Check-ins that passed all verification and earned rewards.
    valid_checkins: int = 0
    points: int = 0
    badges: AbstractSet[str] = frozenset()
    friends: AbstractSet[int] = frozenset()
    #: Distinct venues this user has validly checked into.
    venues_visited: AbstractSet[int] = frozenset()
    #: Distinct calendar days with at least one valid check-in.
    active_days: AbstractSet[int] = frozenset()
    #: Venues this user is *currently* mayor of (maintained by the service).
    mayorship_count: int = 0

    @property
    def flagged_checkins(self) -> int:
        """Recorded check-ins the cheater code stripped of rewards."""
        return self.total_checkins - self.valid_checkins

    @property
    def badge_count(self) -> int:
        """Number of distinct badges earned."""
        return len(self.badges)

    def profile_url(self) -> str:
        """The ID-based public profile path the crawler enumerates."""
        return f"/user/{self.user_id}"

    def add_badge(self, name: str) -> None:
        """Record an earned badge."""
        self.badges = _with(self.badges, name)

    def add_friend(self, user_id: int) -> None:
        """Record one side of a friend link."""
        self.friends = _with(self.friends, user_id)

    def record_valid_visit(self, venue_id: int, day: int) -> None:
        """Count ``venue_id`` and calendar ``day`` as validly visited."""
        self.venues_visited = _with(self.venues_visited, venue_id)
        self.active_days = _with(self.active_days, day)


@dataclass(frozen=True)
class Tip:
    """A public comment left on a venue page.

    §2.2's abuse case: "A business owner may use location cheating to
    check into a competing business, and badmouth that business by leaving
    negative comments."
    """

    author_id: int
    text: str
    created_at: float


@dataclass(slots=True)
class Venue:
    """A check-in target: coffee shop, restaurant, landmark, ..."""

    venue_id: int
    name: str
    location: GeoPoint
    address: str = ""
    city: str = ""
    category: VenueCategory = VenueCategory.OTHER
    created_at: float = 0.0
    special: Optional[Special] = None
    mayor_id: Optional[int] = None
    #: Total number of valid check-ins here.
    checkin_count: int = 0
    #: The public "Who's been here" list: most recent distinct visitor
    #: user-ids, newest first, truncated to RECENT_VISITOR_LIMIT.
    recent_visitors: Sequence[int] = ()
    tips: Sequence[Tip] = ()
    #: Valid check-ins here per user, maintained incrementally by the
    #: service so special-unlock checks avoid rescanning venue history.
    #: Its keys are the distinct users who have validly checked in here.
    visitor_valid_counts: Mapping[int, int] = field(
        default_factory=lambda: _NO_VISITS
    )

    #: How many entries the venue page shows in "Who's been here".
    RECENT_VISITOR_LIMIT = 10

    @property
    def unique_visitor_count(self) -> int:
        """Distinct valid visitors ever."""
        return len(self.visitor_valid_counts)

    @property
    def has_special(self) -> bool:
        """Whether the venue offers any real-world reward."""
        return self.special is not None

    def profile_url(self) -> str:
        """The ID-based public venue page path."""
        return f"/venue/{self.venue_id}"

    def record_recent_visitor(self, user_id: int) -> None:
        """Move ``user_id`` to the head of the recent-visitor list."""
        visitors = self.recent_visitors
        if not visitors:
            self.recent_visitors = [user_id]
            return
        if user_id in visitors:
            visitors.remove(user_id)
        visitors.insert(0, user_id)
        del visitors[self.RECENT_VISITOR_LIMIT :]

    def add_tip(self, tip: Tip) -> None:
        """Append a public comment to the venue page."""
        if self.tips:
            self.tips.append(tip)
        else:
            self.tips = [tip]

    def count_valid_visit(self, user_id: int) -> int:
        """Count one more valid check-in by ``user_id``; returns its total."""
        counts = self.visitor_valid_counts
        if not counts:
            counts = self.visitor_valid_counts = {}
        valid_here = counts.get(user_id, 0) + 1
        counts[user_id] = valid_here
        return valid_here


class CheckInStatus(Enum):
    """Terminal state of a check-in attempt."""

    #: Passed GPS verification and the cheater code; rewards credited.
    VALID = "valid"
    #: Recorded, counts toward totals, but flagged by the cheater code —
    #: no points, no badge progress, no mayorship credit.
    FLAGGED = "flagged"
    #: Refused outright (e.g. same venue within one hour); not recorded
    #: as activity at all.
    REJECTED = "rejected"


@dataclass(slots=True)
class CheckIn:
    """One check-in attempt and its outcome."""

    checkin_id: int
    user_id: int
    venue_id: int
    timestamp: float
    #: Where the device claimed to be (the GPS reading the server saw).
    reported_location: GeoPoint
    status: CheckInStatus = CheckInStatus.VALID
    #: Name of the cheater-code rule that flagged/rejected this check-in.
    flagged_rule: Optional[str] = None
    points_awarded: int = 0

    @property
    def is_valid(self) -> bool:
        """Did this check-in earn rewards?"""
        return self.status is CheckInStatus.VALID


@dataclass
class CheckInResult:
    """What the server tells the client after a check-in attempt."""

    checkin: CheckIn
    points: int = 0
    new_badges: List[str] = field(default_factory=list)
    became_mayor: bool = False
    lost_mayor_user_id: Optional[int] = None
    special_unlocked: Optional[Special] = None
    warnings: List[str] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        """True when the check-in was recorded (valid or merely flagged)."""
        return self.checkin.status is not CheckInStatus.REJECTED

    @property
    def rewarded(self) -> bool:
        """True when the check-in earned points/badges/mayor credit."""
        return self.checkin.status is CheckInStatus.VALID
