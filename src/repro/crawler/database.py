"""The crawl database of Fig 3.3: UserInfo, VenueInfo, RecentCheckin.

An in-memory, thread-safe stand-in for the thesis's MySQL server with the
same three tables and the same derived columns: ``RecentCheckins`` on
UserInfo is computed by counting a user's rows in RecentCheckin, and
``TotalMayors`` "by analyzing the MayorID of each venue".  A SQL-``LIKE``
helper reproduces the Fig 3.4 query
``SELECT Longitude, Latitude FROM VenueInfo WHERE Name LIKE "%Starbucks%"``.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.crawler.parser import ParsedUser, ParsedVenue


@dataclass(slots=True)
class UserInfoRow:
    """One row of the UserInfo table."""

    user_id: int
    user_name: Optional[str]
    display_name: str
    home_city: str
    total_checkins: int
    total_badges: int
    points: int
    #: Derived: number of venues whose recent-visitor list contains the user.
    recent_checkins: int = 0
    #: Derived: number of venues whose MayorID is this user.
    total_mayors: int = 0
    #: Friend links scraped off the profile page.
    friend_ids: Sequence[int] = ()


@dataclass(slots=True)
class VenueInfoRow:
    """One row of the VenueInfo table."""

    venue_id: int
    name: str
    address: str
    city: str
    latitude: float
    longitude: float
    mayor_id: Optional[int]
    checkins_here: int
    unique_visitors: int
    special: Optional[str]
    special_mayor_only: bool


@dataclass(frozen=True, slots=True)
class RecentCheckinRow:
    """One (user, venue) pair from a venue's "Who's been here" list."""

    user_id: int
    venue_id: int


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a SQL LIKE pattern (``%``/``_`` wildcards) to a regex."""
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE)


class CrawlDatabase:
    """The three-table crawl store with simple query helpers."""

    def __init__(self) -> None:
        self._users: Dict[int, UserInfoRow] = {}
        self._venues: Dict[int, VenueInfoRow] = {}
        #: RecentCheckin as ``(user_id, venue_id)`` pairs; the public
        #: :class:`RecentCheckinRow` is built on read.
        self._recent: Set[Tuple[int, int]] = set()
        #: Ordered "Who's been here" lists, newest visitor first, exactly
        #: as rendered on the venue page at the last upsert.  The snapshot
        #: differ uses the ordering to detect revisits.
        self._recent_lists: Dict[int, Tuple[int, ...]] = {}
        self._lock = threading.RLock()

    # Inserts ------------------------------------------------------------

    def upsert_user(self, parsed: ParsedUser) -> UserInfoRow:
        """Insert or refresh a UserInfo row from a parsed page."""
        # Every crawl thread takes the lock once per page, so whatever
        # calls out (building rows, tuples and pair sets) runs before it:
        # a thread switched out inside a call while holding it makes the
        # others queue, and from then on they trade it on every page.
        user_id = parsed.user_id
        row = UserInfoRow(
            user_id=user_id,
            user_name=parsed.username,
            display_name=parsed.display_name,
            home_city=parsed.home_city,
            total_checkins=parsed.total_checkins,
            total_badges=parsed.total_badges,
            points=parsed.points,
            friend_ids=tuple(parsed.friend_ids),
        )
        with self._lock:
            if user_id in self._users:
                existing = self._users[user_id]
                row.recent_checkins = existing.recent_checkins
                row.total_mayors = existing.total_mayors
            self._users[user_id] = row
        return row

    def upsert_venue(self, parsed: ParsedVenue) -> VenueInfoRow:
        """Insert or refresh a VenueInfo row and its RecentCheckin rows."""
        venue_id = parsed.venue_id
        row = VenueInfoRow(
            venue_id=venue_id,
            name=parsed.name,
            address=parsed.address,
            city=parsed.city,
            latitude=parsed.latitude,
            longitude=parsed.longitude,
            mayor_id=parsed.mayor_id,
            checkins_here=parsed.checkins_here,
            unique_visitors=parsed.unique_visitors,
            special=parsed.special,
            special_mayor_only=parsed.special_mayor_only,
        )
        visitors = tuple(parsed.recent_visitor_ids)
        pairs = set(zip(visitors, repeat(venue_id)))
        with self._lock:
            self._venues[venue_id] = row
            self._recent |= pairs
            self._recent_lists[venue_id] = visitors
        return row

    # Derived columns -------------------------------------------------------

    def recompute_derived(self) -> None:
        """Fill ``RecentCheckins`` and ``TotalMayors`` on UserInfo.

        Mirrors the thesis: "by counting the number of records for a user,
        we recorded the number of recent check-ins ... by analyzing the
        MayorID of each venue, we calculated how many mayorships each user
        had."
        """
        with self._lock:
            recent_counts: Dict[int, int] = {}
            for user_id, _ in self._recent:
                recent_counts[user_id] = recent_counts.get(user_id, 0) + 1
            mayor_counts: Dict[int, int] = {}
            for venue in self._venues.values():
                if venue.mayor_id is not None:
                    mayor_counts[venue.mayor_id] = (
                        mayor_counts.get(venue.mayor_id, 0) + 1
                    )
            for user in self._users.values():
                user.recent_checkins = recent_counts.get(user.user_id, 0)
                user.total_mayors = mayor_counts.get(user.user_id, 0)

    # Queries --------------------------------------------------------------

    def user(self, user_id: int) -> Optional[UserInfoRow]:
        """UserInfo row by ID."""
        with self._lock:
            return self._users.get(user_id)

    def venue(self, venue_id: int) -> Optional[VenueInfoRow]:
        """VenueInfo row by ID."""
        with self._lock:
            return self._venues.get(venue_id)

    def users(self) -> List[UserInfoRow]:
        """Snapshot of all UserInfo rows."""
        with self._lock:
            return list(self._users.values())

    def venues(self) -> List[VenueInfoRow]:
        """Snapshot of all VenueInfo rows."""
        with self._lock:
            return list(self._venues.values())

    def recent_checkins(self) -> List[RecentCheckinRow]:
        """Snapshot of all RecentCheckin rows."""
        with self._lock:
            return [
                RecentCheckinRow(user_id=user_id, venue_id=venue_id)
                for user_id, venue_id in self._recent
            ]

    def recent_visitor_lists(self) -> Dict[int, List[int]]:
        """Snapshot of all ordered recent-visitor lists."""
        with self._lock:
            return {
                venue_id: list(visitors)
                for venue_id, visitors in self._recent_lists.items()
            }

    def recent_venues_of_user(self, user_id: int) -> List[int]:
        """Venue IDs whose recent-visitor list contains ``user_id``."""
        with self._lock:
            return sorted(
                venue_id for visitor_id, venue_id in self._recent
                if visitor_id == user_id
            )

    def user_count(self) -> int:
        """Rows in UserInfo."""
        with self._lock:
            return len(self._users)

    def venue_count(self) -> int:
        """Rows in VenueInfo."""
        with self._lock:
            return len(self._venues)

    def venues_like(self, pattern: str) -> List[VenueInfoRow]:
        """``SELECT * FROM VenueInfo WHERE Name LIKE <pattern>``."""
        regex = like_to_regex(pattern)
        with self._lock:
            return [
                venue
                for venue in self._venues.values()
                if regex.match(venue.name)
            ]

    def venue_coordinates_like(
        self, pattern: str
    ) -> List[Tuple[float, float]]:
        """The Fig 3.4 query: (longitude, latitude) of name-matched venues."""
        return [
            (venue.longitude, venue.latitude)
            for venue in self.venues_like(pattern)
        ]

    def select_users(
        self, predicate: Callable[[UserInfoRow], bool]
    ) -> List[UserInfoRow]:
        """Filter UserInfo with an arbitrary predicate."""
        with self._lock:
            return [row for row in self._users.values() if predicate(row)]

    def select_venues(
        self, predicate: Callable[[VenueInfoRow], bool]
    ) -> List[VenueInfoRow]:
        """Filter VenueInfo with an arbitrary predicate."""
        with self._lock:
            return [row for row in self._venues.values() if predicate(row)]
