"""Thread-safe in-memory datastore backing the LBSN service.

One coarse reentrant lock guards all tables and the stream-event seq
counter.  The crawler hammers the web server from many threads while the
attack campaign checks in concurrently, so every writer and every scan
takes the lock; the point reads (:meth:`DataStore.get_user`,
:meth:`~DataStore.get_venue`, :meth:`~DataStore.get_user_by_username`)
are one dict lookup each and take none.  Multi-step work is composed one
level up: the service runs its whole check-in pipeline under
``LbsnService._lock`` and commits each check-in with one
:meth:`DataStore.add_checkin_committed` call.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.faults.injector import FaultInjector
from repro.faults.points import POINT_STORE_COMMIT
from repro.geo.coordinates import GeoPoint
from repro.geo.grid import SpatialGrid
from repro.lbsn.models import CheckIn, User, Venue
from repro.obs.log import DEBUG, LogHub
from repro.obs.metrics import MetricsRegistry
from repro.simnet.ids import SequentialIdAllocator


class DataStore:
    """Users, venues, check-ins, and the spatial index over venues.

    Pass a :class:`~repro.obs.MetricsRegistry` to export entity counts as
    gauges (``repro_store_users`` / ``_venues`` / ``_checkins``) and lock
    hold times (``repro_store_lock_hold_seconds``) for
    :meth:`add_checkin_committed`, the one place the lock is held across
    multi-step work.  Fine-grained getters are deliberately not timed:
    each is one dict lookup, and per-call timers there would cost more
    than the work they measure.

    Stream-event sequence numbers come from one counter read and written
    only under the store lock, so event sequence == commit sequence and
    the numbers handed out are exactly ``range(event_seq_watermark())``:
    a commit that raises (a fired fault, a duplicate id) burns no slot.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        log: Optional[LogHub] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self._lock = threading.RLock()
        #: Optional fault injector checked at ``store.commit`` *before*
        #: any table row mutates, so a fired commit fault aborts cleanly
        #: (typically as :class:`~repro.errors.CommitContentionError`).
        self.faults = faults
        #: DEBUG-level commit records ("store.commit"), carrying the
        #: check-in's trace so a grep over the structured log shows the
        #: commit between the service's verify and publish records.
        self._logger = log.logger("lbsn.store") if log is not None else None
        if metrics is not None:
            # Bind the anonymous children directly: these record on every
            # row insert, so each saved indirection matters (E20 bench).
            self._gauge_users = metrics.gauge(
                "repro_store_users", "Users resident in the datastore."
            ).child()
            self._gauge_venues = metrics.gauge(
                "repro_store_venues", "Venues resident in the datastore."
            ).child()
            self._gauge_checkins = metrics.gauge(
                "repro_store_checkins",
                "Check-in rows resident in the datastore.",
            ).child()
            self._lock_hold = metrics.histogram(
                "repro_store_lock_hold_seconds",
                "Store-lock hold time per committed check-in.",
            ).child()
        else:
            self._gauge_users = None
            self._gauge_venues = None
            self._gauge_checkins = None
            self._lock_hold = None
        self._users: Dict[int, User] = {}
        self._venues: Dict[int, Venue] = {}
        self._checkins: Dict[int, CheckIn] = {}
        self._checkins_by_user: Dict[int, List[CheckIn]] = {}
        self._checkins_by_venue: Dict[int, List[CheckIn]] = {}
        self._usernames: Dict[str, int] = {}
        self._venue_grid: SpatialGrid[int] = SpatialGrid(cell_size_deg=0.01)
        self.user_ids = SequentialIdAllocator()
        self.venue_ids = SequentialIdAllocator()
        self.checkin_ids = SequentialIdAllocator()
        #: The next stream-event sequence number; guarded by ``_lock``.
        self._next_seq = 0

    # Users ------------------------------------------------------------

    def add_user(self, user: User) -> User:
        """Insert a user; the ID must already be allocated and unused."""
        with self._lock:
            if user.user_id in self._users:
                raise ServiceError(f"duplicate user id {user.user_id}")
            if user.username is not None and user.username in self._usernames:
                raise ServiceError(f"duplicate username {user.username!r}")
            # The row goes in before the username index: the point reads
            # below take no lock, and a name must never resolve to an id
            # whose row is not there yet.
            self._users[user.user_id] = user
            if user.username is not None:
                self._usernames[user.username] = user.user_id
            if self._gauge_users is not None:
                self._gauge_users.inc()
            return user

    def get_user(self, user_id: int) -> Optional[User]:
        """User by numeric ID, or None.  Lock-free: one dict lookup."""
        return self._users.get(user_id)

    def get_user_by_username(self, username: str) -> Optional[User]:
        """User by username (the second URL form in §3.2), or None."""
        user_id = self._usernames.get(username)
        return None if user_id is None else self._users.get(user_id)

    def require_user(self, user_id: int) -> User:
        """User by ID, raising :class:`ServiceError` when missing."""
        user = self.get_user(user_id)
        if user is None:
            raise ServiceError(f"no such user: {user_id}")
        return user

    def user_count(self) -> int:
        """Total registered users."""
        with self._lock:
            return len(self._users)

    def iter_users(self) -> List[User]:
        """Snapshot list of all users."""
        with self._lock:
            return list(self._users.values())

    # Venues -----------------------------------------------------------

    def add_venue(self, venue: Venue) -> Venue:
        """Insert a venue and index its location."""
        with self._lock:
            if venue.venue_id in self._venues:
                raise ServiceError(f"duplicate venue id {venue.venue_id}")
            self._venues[venue.venue_id] = venue
            self._venue_grid.insert(venue.venue_id, venue.location)
            if self._gauge_venues is not None:
                self._gauge_venues.inc()
            return venue

    def get_venue(self, venue_id: int) -> Optional[Venue]:
        """Venue by numeric ID, or None.  Lock-free: one dict lookup."""
        return self._venues.get(venue_id)

    def require_venue(self, venue_id: int) -> Venue:
        """Venue by ID, raising :class:`ServiceError` when missing."""
        venue = self.get_venue(venue_id)
        if venue is None:
            raise ServiceError(f"no such venue: {venue_id}")
        return venue

    def venue_count(self) -> int:
        """Total registered venues."""
        with self._lock:
            return len(self._venues)

    def iter_venues(self) -> List[Venue]:
        """Snapshot list of all venues."""
        with self._lock:
            return list(self._venues.values())

    def venues_near(
        self, point: GeoPoint, radius_m: float
    ) -> List[Venue]:
        """Venues within ``radius_m`` of ``point``, nearest first.

        This backs both the client app's "nearby venues" suggestion list
        and the rapid-fire rule's area query.
        """
        with self._lock:
            hits = self._venue_grid.query_radius(point, radius_m)
            return [self._venues[venue_id] for venue_id, _, _ in hits]

    def nearest_venue(
        self, point: GeoPoint, max_radius_m: float = 50_000.0
    ) -> Optional[Venue]:
        """The closest venue to ``point`` within ``max_radius_m``."""
        with self._lock:
            hit = self._venue_grid.nearest(point, max_radius_m=max_radius_m)
            return None if hit is None else self._venues[hit[0]]

    # Check-ins ----------------------------------------------------------

    def _insert_checkin_row_locked(self, checkin: CheckIn) -> None:
        """Row table plus user and venue indexes.  Caller holds the lock.

        An id's index list is created by its first row, not by
        ``add_user``/``add_venue``: most rows of a paper-scale corpus
        never check in.
        """
        if checkin.checkin_id in self._checkins:
            raise ServiceError(f"duplicate checkin id {checkin.checkin_id}")
        self._checkins[checkin.checkin_id] = checkin
        self._checkins_by_user.setdefault(checkin.user_id, []).append(
            checkin
        )
        self._checkins_by_venue.setdefault(checkin.venue_id, []).append(
            checkin
        )
        if self._gauge_checkins is not None:
            self._gauge_checkins.inc()

    def add_checkin(self, checkin: CheckIn) -> CheckIn:
        """Record a check-in attempt (any status) without a seq number."""
        with self._lock:
            self._insert_checkin_row_locked(checkin)
            return checkin

    def allocate_event_seq(self) -> int:
        """Allocate one stream-event sequence number under the store lock.

        Used for transitions that change no table rows (rejections, new
        users/venues) but still need a slot in the global commit order.
        """
        with self._lock:
            seq = self._next_seq
            self._next_seq = seq + 1
            return seq

    def add_checkin_committed(
        self, checkin: CheckIn, trace_id: Optional[str] = None
    ) -> Tuple[CheckIn, int]:
        """Append a check-in AND allocate its event sequence atomically.

        This is the event-ordering fix: ``add_checkin`` followed by a
        separate sequence allocation lets two racing threads commit in one
        order and sequence in the other, producing a stream that
        contradicts the store.  Doing both under one hold of the store
        lock guarantees that for every user (and venue), event sequence
        numbers are strictly increasing in exactly list-append order.

        When a :class:`~repro.obs.log.LogHub` was injected, each commit
        emits a DEBUG ``store.commit`` record carrying ``trace_id`` — the
        link between the service's ``checkin`` record and the bus events
        that follow.  The record is emitted *outside* the lock.

        With a fault injector attached, the ``store.commit`` failure
        point is checked *before* the lock is taken or any row mutates:
        a fired fault (typically
        :class:`~repro.errors.CommitContentionError`) therefore never
        leaves partial state — the commit is all-or-nothing, which is
        the invariant the chaos suite's ledger-parity check leans on.
        """
        if self.faults is not None:
            self.faults.check(POINT_STORE_COMMIT, trace_id=trace_id)
        # Bind the instrument once: attaching/detaching it mid-commit must
        # not pair a ``started = 0.0`` with a live ``observe`` (which
        # would record ~machine-uptime garbage into the histogram).
        lock_hold = self._lock_hold
        with self._lock:
            started = time.perf_counter() if lock_hold is not None else 0.0
            self._insert_checkin_row_locked(checkin)
            seq = self._next_seq
            self._next_seq = seq + 1
            if lock_hold is not None:
                lock_hold.observe(time.perf_counter() - started)
        logger = self._logger
        if logger is not None and logger.enabled_for(DEBUG):
            logger.debug(
                "store.commit",
                trace_id=trace_id,
                checkin_id=checkin.checkin_id,
                user_id=checkin.user_id,
                venue_id=checkin.venue_id,
                seq=seq,
            )
        return checkin, seq

    def event_seq_watermark(self) -> int:
        """The next sequence number that will be allocated."""
        with self._lock:
            return self._next_seq

    def checkins_of_user(self, user_id: int) -> Sequence[CheckIn]:
        """All recorded check-ins by a user, oldest first.

        Returns the **live internal list** to keep history scans O(1) per
        access (heavy cheater accounts accumulate 10k+ records, and the
        check-in pipeline reads history on every attempt).  Callers must
        treat it as read-only; mutation goes through :meth:`add_checkin`.
        An id with no row yet gets a shared empty tuple, which a later
        commit does not update: ask again after committing.  A read never
        inserts.
        """
        with self._lock:
            return self._checkins_by_user.get(user_id, ())

    def checkins_at_venue(self, venue_id: int) -> Sequence[CheckIn]:
        """All recorded check-ins at a venue, oldest first.

        Same live-reference contract as :meth:`checkins_of_user`.
        """
        with self._lock:
            return self._checkins_by_venue.get(venue_id, ())

    def checkin_count(self) -> int:
        """Total recorded check-ins (valid + flagged)."""
        with self._lock:
            return len(self._checkins)
