"""Repeated crawling and snapshot diffing (§3.2).

"The venue's recent visitor list does not have a time stamp to indicate
when a user visited this venue; but if we crawl the venues daily, then we
will be able to determine how frequently a user checks into a venue."

A :class:`SnapshotStore` runs the full crawler on a cadence; diffing two
snapshots turns unstamped recent-visitor lists into *time-bounded check-in
observations* — the raw material of the §6.2.1 privacy-leakage analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.crawler.crawler import crawl_full_site
from repro.crawler.database import CrawlDatabase
from repro.errors import CrawlError
from repro.simnet.http import HttpTransport
from repro.simnet.network import Egress


@dataclass
class CrawlSnapshot:
    """One full crawl plus the simulated time it represents."""

    taken_at: float
    database: CrawlDatabase

    def visitor_lists(self) -> Dict[int, List[int]]:
        """venue_id -> ordered recent-visitor list, newest first."""
        return self.database.recent_visitor_lists()

    def totals(self) -> Dict[int, int]:
        """user_id -> profile total check-ins at snapshot time."""
        return {
            user.user_id: user.total_checkins
            for user in self.database.users()
        }


@dataclass(frozen=True)
class ObservedCheckIn:
    """A check-in whose time is bounded by two crawl timestamps.

    ``user_id`` appeared on ``venue_id``'s recent-visitor list in the
    newer snapshot but not the older one, so the visit happened in
    ``(window_start, window_end]``.
    """

    user_id: int
    venue_id: int
    window_start: float
    window_end: float

    @property
    def window_s(self) -> float:
        """Width of the time bound — one crawl period."""
        return self.window_end - self.window_start


@dataclass
class SnapshotDiff:
    """Everything two consecutive crawls reveal."""

    window_start: float
    window_end: float
    observed_checkins: List[ObservedCheckIn] = field(default_factory=list)
    #: user_id -> increase in profile total over the window (includes
    #: activity at venues whose lists rotated the user out again).
    total_deltas: Dict[int, int] = field(default_factory=dict)

    @property
    def active_users(self) -> Set[int]:
        """Users with any observed activity in the window."""
        active = {obs.user_id for obs in self.observed_checkins}
        active.update(
            user_id for user_id, delta in self.total_deltas.items() if delta > 0
        )
        return active


def _observed_users(old_list: List[int], new_list: List[int]) -> Set[int]:
    """Users who demonstrably checked in between two orderings of a list.

    A user is observed when they (a) newly appear on the list, or (b) were
    on it before but have *overtaken* someone who used to be ahead of them
    — the lists are newest-first, so moving up past a previously-ahead
    visitor requires a fresh check-in.  Revisits by a user who stays at
    the head (nobody else checked in either) remain invisible — the same
    limitation the thesis notes for the live site.
    """
    old_rank = {user_id: rank for rank, user_id in enumerate(old_list)}
    observed: Set[int] = set(new_list) - set(old_list)
    for index, user_id in enumerate(new_list):
        if user_id not in old_rank:
            continue
        for behind in new_list[index + 1 :]:
            if behind in old_rank and old_rank[behind] < old_rank[user_id]:
                observed.add(user_id)
                break
    return observed


def diff_snapshots(older: CrawlSnapshot, newer: CrawlSnapshot) -> SnapshotDiff:
    """Extract time-bounded observations from two crawls."""
    if newer.taken_at < older.taken_at:
        raise CrawlError("snapshots supplied in the wrong order")
    diff = SnapshotDiff(
        window_start=older.taken_at, window_end=newer.taken_at
    )
    old_lists = older.visitor_lists()
    for venue_id, new_list in newer.visitor_lists().items():
        observed = _observed_users(old_lists.get(venue_id, []), new_list)
        for user_id in observed:
            diff.observed_checkins.append(
                ObservedCheckIn(
                    user_id=user_id,
                    venue_id=venue_id,
                    window_start=older.taken_at,
                    window_end=newer.taken_at,
                )
            )
    old_totals = older.totals()
    for user_id, new_total in newer.totals().items():
        delta = new_total - old_totals.get(user_id, 0)
        if delta != 0:
            diff.total_deltas[user_id] = delta
    return diff


class SnapshotStore:
    """Runs crawls on a cadence and accumulates snapshots + diffs."""

    def __init__(
        self,
        transport: HttpTransport,
        machine_egresses: Sequence[Egress],
        clock,
    ) -> None:
        if not machine_egresses:
            raise CrawlError("need at least one crawl machine")
        self.transport = transport
        self.machine_egresses = list(machine_egresses)
        self.clock = clock
        self.snapshots: List[CrawlSnapshot] = []

    def take_snapshot(self) -> CrawlSnapshot:
        """Run a full crawl now and store it."""
        database, _, _ = crawl_full_site(
            self.transport, self.machine_egresses
        )
        snapshot = CrawlSnapshot(
            taken_at=self.clock.now(), database=database
        )
        self.snapshots.append(snapshot)
        return snapshot

    def diffs(self) -> List[SnapshotDiff]:
        """Diffs between each consecutive snapshot pair."""
        return [
            diff_snapshots(older, newer)
            for older, newer in zip(self.snapshots, self.snapshots[1:])
        ]

    def latest(self) -> Optional[CrawlSnapshot]:
        """The most recent snapshot, if any."""
        return self.snapshots[-1] if self.snapshots else None
