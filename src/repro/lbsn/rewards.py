"""Points and badge engine — the "progressive reward mechanism" of §2.1.

The thesis lists four reward tiers from easiest to hardest: points (every
valid check-in), badges (specific achievements such as "30 check-ins in a
month" or "checked into 10 different venues"), mayorships (competitive), and
real-world rewards (specials).  Points and badges live here; mayorship logic
is in :mod:`repro.lbsn.mayorship`, specials in :mod:`repro.lbsn.specials`.

Only VALID check-ins make badge/point progress: flagged check-ins count
toward the raw total but earn nothing, which is exactly the signature the
Fig 4.2 analysis exploits to spot caught cheaters.

Badge predicates are written to scan history *backwards from the newest
check-in and stop at their time window*, so evaluating a badge is O(window
activity) rather than O(lifetime activity) — the workload generator replays
hundreds of thousands of check-ins through this engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

from repro.lbsn.models import CheckIn, CheckInStatus, User
from repro.simnet.clock import SECONDS_PER_DAY, day_index


@dataclass
class PointsPolicy:
    """How many points each kind of valid check-in earns."""

    base: int = 1
    first_visit_bonus: int = 2
    first_of_day_bonus: int = 3
    became_mayor_bonus: int = 5

    def score(
        self,
        first_visit: bool,
        first_of_day: bool,
        became_mayor: bool,
    ) -> int:
        """Points for one valid check-in with the given attributes."""
        points = self.base
        if first_visit:
            points += self.first_visit_bonus
        if first_of_day:
            points += self.first_of_day_bonus
        if became_mayor:
            points += self.became_mayor_bonus
        return points


def _recent_valid(
    history: Sequence[CheckIn], window_start: float
) -> Iterator[CheckIn]:
    """Valid check-ins at or after ``window_start``, newest first.

    Relies on ``history`` being time-ordered (the store appends in order),
    so the scan stops at the first record older than the window.
    """
    for checkin in reversed(history):
        if checkin.timestamp < window_start:
            return
        if checkin.status is CheckInStatus.VALID:
            yield checkin


@dataclass(frozen=True)
class BadgeDefinition:
    """One badge: a name, the unlock text, and an unlock predicate.

    The predicate sees the user (whose counters are already updated for the
    triggering check-in) and their full recorded history with the new
    check-in as its last element; it returns True when the badge unlocks.
    """

    name: str
    description: str
    predicate: Callable[[User, Sequence[CheckIn]], bool]


def _distinct_venue_badge(
    threshold: int,
) -> Callable[[User, Sequence[CheckIn]], bool]:
    def unlocked(user: User, history: Sequence[CheckIn]) -> bool:
        # The service maintains venues_visited incrementally; O(1).
        return len(user.venues_visited) >= threshold

    return unlocked


def _newbie(user: User, history: Sequence[CheckIn]) -> bool:
    return user.valid_checkins >= 1


def _super_user(user: User, history: Sequence[CheckIn]) -> bool:
    """30 valid check-ins within a rolling 30-day window."""
    if not history or user.valid_checkins < 30:
        return False
    window_start = history[-1].timestamp - 30.0 * SECONDS_PER_DAY
    count = 0
    for _ in _recent_valid(history, window_start):
        count += 1
        if count >= 30:
            return True
    return False


def _bender(user: User, history: Sequence[CheckIn]) -> bool:
    """Valid check-ins on 4 consecutive calendar days ending today.

    Scans backwards over distinct days and stops at the first gap, so the
    cost is bounded by the length of the current streak.
    """
    if not history:
        return False
    today = day_index(history[-1].timestamp)
    expected = today
    streak = 0
    for checkin in reversed(history):
        if checkin.status is not CheckInStatus.VALID:
            continue
        day = day_index(checkin.timestamp)
        if day == expected:
            streak += 1
            if streak >= 4:
                return True
            expected -= 1
        elif day < expected:
            return False
        # day == expected + 1 means another check-in on an already-counted
        # day; skip it.
    return False


def _local(user: User, history: Sequence[CheckIn]) -> bool:
    """3 valid check-ins at the same venue within one week."""
    if not history:
        return False
    latest = history[-1]
    window_start = latest.timestamp - 7.0 * SECONDS_PER_DAY
    count = 0
    for checkin in _recent_valid(history, window_start):
        if checkin.venue_id == latest.venue_id:
            count += 1
            if count >= 3:
                return True
    return False


def _overshare(user: User, history: Sequence[CheckIn]) -> bool:
    """10 valid check-ins within 12 hours."""
    if not history or user.valid_checkins < 10:
        return False
    window_start = history[-1].timestamp - 12.0 * 3_600.0
    count = 0
    for _ in _recent_valid(history, window_start):
        count += 1
        if count >= 10:
            return True
    return False


def _crunked(user: User, history: Sequence[CheckIn]) -> bool:
    """4+ distinct valid stops within a 4-hour night out."""
    if not history or user.valid_checkins < 4:
        return False
    window_start = history[-1].timestamp - 4.0 * 3_600.0
    venues = set()
    for checkin in _recent_valid(history, window_start):
        venues.add(checkin.venue_id)
        if len(venues) >= 4:
            return True
    return False


#: Valid-check-in count milestones (the largest badge family).
CHECKIN_MILESTONES = (
    5, 15, 25, 35, 50, 75, 100, 150, 200, 250, 300, 400, 500, 600, 700,
    800, 900, 1_000, 1_250, 1_500, 2_000, 2_500, 3_000, 4_000, 5_000,
)

#: Distinct-venue milestones beyond the four named badges.
VENUE_MILESTONES = (
    3, 5, 15, 20, 30, 40, 60, 70, 80, 90, 125, 150, 200, 250, 300, 400, 500,
)

#: Distinct active-day milestones.
DAY_MILESTONES = (2, 5, 10, 20, 30, 50, 75, 100, 150, 200, 250, 300, 365)

#: Concurrent-mayorship milestones.
MAYOR_MILESTONES = (1, 3, 5, 10, 20, 30, 50, 75, 100, 150, 200, 300, 500)


def _checkin_milestone(threshold: int):
    def unlocked(user: User, history: Sequence[CheckIn]) -> bool:
        return user.valid_checkins >= threshold

    return unlocked


def _day_milestone(threshold: int):
    def unlocked(user: User, history: Sequence[CheckIn]) -> bool:
        return len(user.active_days) >= threshold

    return unlocked


def _mayor_milestone(threshold: int):
    def unlocked(user: User, history: Sequence[CheckIn]) -> bool:
        return user.mayorship_count >= threshold

    return unlocked


def milestone_badges() -> List[BadgeDefinition]:
    """The four parametric badge ladders.

    Real Foursquare's catalogue was large enough that heavy legitimate
    users held on the order of 80-90 badges (the Fig 4.2 y-axis); these
    ladders give the simulated catalogue the same dynamic range while
    every unlock stays O(1) against the user's maintained counters.
    """
    badges: List[BadgeDefinition] = []
    for threshold in CHECKIN_MILESTONES:
        badges.append(
            BadgeDefinition(
                f"Check-ins x{threshold}",
                f"{threshold} lifetime check-ins!",
                _checkin_milestone(threshold),
            )
        )
    for threshold in VENUE_MILESTONES:
        badges.append(
            BadgeDefinition(
                f"Venues x{threshold}",
                f"Checked into {threshold} different venues!",
                _distinct_venue_badge(threshold),
            )
        )
    for threshold in DAY_MILESTONES:
        badges.append(
            BadgeDefinition(
                f"Days x{threshold}",
                f"Checked in on {threshold} different days!",
                _day_milestone(threshold),
            )
        )
    for threshold in MAYOR_MILESTONES:
        badges.append(
            BadgeDefinition(
                f"Mayor x{threshold}",
                f"Mayor of {threshold} venues at once!",
                _mayor_milestone(threshold),
            )
        )
    return badges


def default_badges() -> List[BadgeDefinition]:
    """The badge catalogue, anchored on the two the thesis names.

    "Adventurer: You've checked into 10 different venues!" is quoted
    directly in §3.1; "30 check-ins in a month" is §2.1's example.  The
    named badges are period-faithful Foursquare badges; the milestone
    ladders give the Fig 4.2 badges-vs-check-ins curve its dynamic range
    (legitimate heavy users reach ~90 badges, caught cheaters stall under
    10).
    """
    return milestone_badges() + [
        BadgeDefinition("Newbie", "Your first check-in!", _newbie),
        BadgeDefinition(
            "Adventurer",
            "You've checked into 10 different venues!",
            _distinct_venue_badge(10),
        ),
        BadgeDefinition(
            "Explorer",
            "You've checked into 25 different venues!",
            _distinct_venue_badge(25),
        ),
        BadgeDefinition(
            "Superstar",
            "You've checked into 50 different venues!",
            _distinct_venue_badge(50),
        ),
        BadgeDefinition(
            "Wanderlust",
            "You've checked into 100 different venues!",
            _distinct_venue_badge(100),
        ),
        BadgeDefinition("Super User", "30 check-ins in a month!", _super_user),
        BadgeDefinition("Bender", "Checked in 4 days in a row!", _bender),
        BadgeDefinition(
            "Local",
            "3 check-ins at the same venue in one week!",
            _local,
        ),
        BadgeDefinition("Overshare", "10 check-ins in 12 hours!", _overshare),
        BadgeDefinition("Crunked", "4+ stops in one night!", _crunked),
    ]


class BadgeEngine:
    """Awards badges after each valid check-in."""

    def __init__(
        self, definitions: Optional[List[BadgeDefinition]] = None
    ) -> None:
        self._definitions = definitions or default_badges()

    @property
    def catalogue(self) -> List[BadgeDefinition]:
        """All badge definitions in evaluation order."""
        return list(self._definitions)

    def evaluate(self, user: User, history: Sequence[CheckIn]) -> List[str]:
        """Return names of newly unlocked badges and add them to ``user``.

        ``history`` must already include the triggering check-in as its
        last element.
        """
        if len(user.badges) >= len(self._definitions):
            return []
        earned: List[str] = []
        for definition in self._definitions:
            if definition.name in user.badges:
                continue
            if definition.predicate(user, history):
                user.add_badge(definition.name)
                earned.append(definition.name)
        return earned
