"""Consistent-hash partitioning of the event stream by user key.

N detector workers each own a disjoint slice of the user population;
every check-in event is routed to exactly one worker, so each worker's
WAL + ledger shard is an independent unit of failure and recovery.  The
router is a classic consistent-hash ring (sha256 points, virtual nodes)
rather than ``user_id % N`` so that growing N later moves only ~1/N of
the keys — the property that makes repartitioning a migration instead of
a full rebuild.

Determinism contract: the ring is a pure function of the partition count
(each partition owns :data:`VIRTUAL_NODES` ring points).  Two processes
building a router with the same count route every key identically —
which is what lets a cold replay (``repro wal-replay``) regroup a WAL
directory tree without any routing metadata beyond the partition count.

Events that carry no user key (venue creation, mayor changes) are
*broadcast* to every partition: they are rare, partition-local detector
state ignores or needs them identically, and broadcasting keeps each
shard's event stream self-contained for replay.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Optional

from repro.errors import ReproError
from repro.stream.events import (
    CheckInAccepted,
    CheckInFlagged,
    CheckInRejected,
    MayorChanged,
    StreamEvent,
    UserRegistered,
)


#: Ring points per partition.
VIRTUAL_NODES = 64


class PartitionError(ReproError):
    """Invalid partitioning arguments."""


def _ring_point(token: str) -> int:
    """A stable 64-bit ring position for ``token``."""
    digest = hashlib.sha256(token.encode()).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRouter:
    """Maps user keys onto ``partitions`` workers via a hash ring."""

    def __init__(self, partitions: int) -> None:
        if partitions < 1:
            raise PartitionError(f"partitions must be >= 1: {partitions}")
        self.partitions = partitions
        points = []
        for partition in range(partitions):
            for replica in range(VIRTUAL_NODES):
                points.append(
                    (_ring_point(f"p{partition}:v{replica}"), partition)
                )
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def route_key(self, user_id: int) -> int:
        """The partition owning ``user_id``."""
        position = _ring_point(f"u{user_id}")
        index = bisect.bisect_right(self._points, position)
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def route_event(self, event: StreamEvent) -> Optional[int]:
        """The partition an event belongs to, or ``None`` = broadcast."""
        user_id = user_key(event)
        if user_id is None:
            return None
        return self.route_key(user_id)


def user_key(event: StreamEvent) -> Optional[int]:
    """The user id an event should be partitioned by, if it has one."""
    if isinstance(
        event,
        (CheckInAccepted, CheckInFlagged, CheckInRejected, UserRegistered),
    ):
        return event.user_id
    if isinstance(event, MayorChanged):
        # Mayor flips concern the *venue*; no single user owns them.
        return None
    return None


__all__ = [
    "VIRTUAL_NODES",
    "ConsistentHashRouter",
    "PartitionError",
    "user_key",
]
