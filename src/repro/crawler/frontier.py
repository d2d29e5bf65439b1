"""URL frontier: enumerating the incrementing-ID space (§3.2).

"We discovered that Foursquare uses incrementing numerical IDs to identify
their users and venues. By changing the ID in the URL, we can crawl almost
all of the user and venue profiles."  The frontier hands out IDs to crawl
threads and decides when the dense ID space has been exhausted (a run of
consecutive not-found pages past the highest known ID).
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Optional, Set


class CrawlMode(Enum):
    """What kind of profile a crawl targets (the thesis ran one of each)."""

    USER = "user"
    VENUE = "venue"

    @property
    def path_prefix(self) -> str:
        """URL prefix for this profile kind."""
        return f"/{self.value}"


class IdFrontier:
    """Thread-safe dispenser of profile IDs with end-of-space detection.

    IDs are handed out sequentially from ``start``.  Workers report each
    outcome; once ``miss_threshold`` consecutive IDs past the last hit have
    404'd, the frontier declares the space exhausted and stops dispensing.
    An explicit ``stop_at`` cap supports range-partitioned crawls (the
    thesis split the space across three machines).
    """

    def __init__(
        self,
        mode: CrawlMode,
        start: int = 1,
        stop_at: Optional[int] = None,
        miss_threshold: int = 200,
    ) -> None:
        self.mode = mode
        self._path_prefix = mode.path_prefix
        self._next = start
        self._stop_at = stop_at
        self._miss_threshold = miss_threshold
        self._highest_hit = start - 1
        #: IDs past ``_highest_hit`` that 404'd.  Kept as IDs, not a
        #: count, so that a late hit from a slower thread drops only the
        #: misses below it; empty until the dense ID space runs out.
        self._misses_past_hit: Set[int] = set()
        self._exhausted = False
        self._lock = threading.Lock()

    def next_id(self) -> Optional[int]:
        """The next ID to crawl, or None when the frontier is done."""
        with self._lock:
            if self._exhausted:
                return None
            if self._stop_at is not None and self._next > self._stop_at:
                self._exhausted = True
                return None
            value = self._next
            self._next += 1
            return value

    def url_for(self, profile_id: int) -> str:
        """The profile URL for an ID."""
        return f"{self._path_prefix}/{profile_id}"

    def report_hit(self, profile_id: int) -> None:
        """Record that ``profile_id`` resolved to a real profile."""
        with self._lock:
            if profile_id > self._highest_hit:
                self._highest_hit = profile_id
                if self._misses_past_hit:
                    self._misses_past_hit = {
                        missed
                        for missed in self._misses_past_hit
                        if missed > profile_id
                    }

    def report_miss(self, profile_id: int) -> None:
        """Record a 404; a long run past the last hit ends the crawl."""
        with self._lock:
            if profile_id > self._highest_hit:
                self._misses_past_hit.add(profile_id)
                if len(self._misses_past_hit) >= self._miss_threshold:
                    self._exhausted = True

    @property
    def exhausted(self) -> bool:
        """Whether the frontier has stopped dispensing."""
        with self._lock:
            return self._exhausted

    @property
    def highest_hit(self) -> int:
        """Largest ID that resolved to a profile so far."""
        with self._lock:
            return self._highest_hit
