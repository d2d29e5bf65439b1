"""The LBSN service itself: registration, venues, and the check-in pipeline.

This is the simulated stand-in for Foursquare's servers.  A check-in attempt
flows through the same stages the thesis describes:

1. **GPS verification** — the claimed venue must lie near the location the
   device reported; "if a user claims that he/she is currently in a location
   far away from the location reported by the GPS of his/her phone, this
   check-in will be considered invalid" (§2.3).
2. **Cheater code** — the three server-side rules of
   :mod:`repro.lbsn.cheater_code`.
3. **Rewards** — points, badges, mayorship recomputation, and specials, for
   valid check-ins only.

The service never sees real GPS hardware; it trusts whatever coordinates the
client reports — which is precisely the root vulnerability the paper
identifies.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.errors import ServiceError
from repro.geo.coordinates import GeoPoint
from repro.geo.distance import haversine_m
from repro.lbsn.cheater_code import CheaterCode, RuleAction
from repro.lbsn.mayorship import decide_mayor
from repro.lbsn.models import (
    CheckIn,
    CheckInResult,
    CheckInStatus,
    Special,
    User,
    Venue,
    VenueCategory,
)
from repro.lbsn.rewards import BadgeEngine, PointsPolicy
from repro.lbsn.specials import special_unlocked_by
from repro.lbsn.store import DataStore
from repro.obs.context import TraceContext, current_trace
from repro.obs.log import LogHub, StructuredLogger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.simnet.clock import SimClock, day_index

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (stream ← lbsn)
    from repro.stream.bus import EventBus

#: Reason string recorded when GPS verification rejects an attempt.
RULE_GPS_VERIFICATION = "gps-verification"

#: Hoisted off the hot path: ``Enum.value`` goes through a descriptor on
#: every access, which the per-check-in log record would otherwise pay.
_VALID_STATUS = CheckInStatus.VALID.value

_STREAM_EVENTS = None


def _stream_events():
    """Lazy import of :mod:`repro.stream.events` (layer above ``lbsn``).

    Publishing is optional; services without a bus never import the
    stream layer at all.
    """
    global _STREAM_EVENTS
    if _STREAM_EVENTS is None:
        from repro.stream import events

        _STREAM_EVENTS = events
    return _STREAM_EVENTS


@dataclass
class ServiceConfig:
    """Service-level tunables."""

    #: How close (meters) the reported GPS fix must be to the venue.  The
    #: client's "nearby venues" list uses the same radius, so a venue the
    #: client can see is always one the server will accept.
    gps_verification_radius_m: float = 1_000.0
    #: Radius of the client's nearby-venue suggestion list.
    nearby_radius_m: float = 1_000.0
    #: Maximum venues returned by a nearby query.
    nearby_limit: int = 30


@dataclass
class ServiceCounters:
    """Aggregate outcome counters, read by tests and benches."""

    valid: int = 0
    flagged: int = 0
    rejected: int = 0
    flagged_by_rule: Dict[str, int] = field(default_factory=dict)
    #: Exported metric families, attached by :meth:`bind_metrics`.
    _status_children: Optional[Dict[CheckInStatus, object]] = field(
        default=None, repr=False, compare=False
    )
    _denials_metric: Optional[object] = field(
        default=None, repr=False, compare=False
    )

    def bind_metrics(self, metrics: MetricsRegistry) -> "ServiceCounters":
        """Mirror every recorded outcome into exported counters.

        ``repro_lbsn_checkins_total{status}`` counts outcomes;
        ``repro_lbsn_checkin_denials_total{rule}`` counts the cheater-code
        rule (or GPS verification) behind every flag/reject.  The three
        status children are pre-bound here so the per-check-in hot path
        is a dict lookup plus one counter increment, not a ``labels()``
        resolution (the E20 overhead bench keeps this path honest).
        """
        checkins_metric = metrics.counter(
            "repro_lbsn_checkins_total",
            "Check-in attempts processed, by pipeline outcome.",
            ("status",),
        )
        self._status_children = {
            status: checkins_metric.labels(status.value)
            for status in CheckInStatus
        }
        self._denials_metric = metrics.counter(
            "repro_lbsn_checkin_denials_total",
            "Flagged or rejected check-ins, by denying rule.",
            ("rule",),
        )
        return self

    def record(self, status: CheckInStatus, rule: Optional[str]) -> None:
        """Tally one check-in outcome."""
        if status is CheckInStatus.VALID:
            self.valid += 1
        elif status is CheckInStatus.FLAGGED:
            self.flagged += 1
        else:
            self.rejected += 1
        if rule:
            self.flagged_by_rule[rule] = self.flagged_by_rule.get(rule, 0) + 1
        if self._status_children is not None:
            self._status_children[status].inc()
            if rule:
                self._denials_metric.labels(rule).inc()


class LbsnService:
    """The simulated location-based social network server."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        cheater_code: Optional[CheaterCode] = None,
        badge_engine: Optional[BadgeEngine] = None,
        points_policy: Optional[PointsPolicy] = None,
        config: Optional[ServiceConfig] = None,
        event_bus: Optional["EventBus"] = None,
        metrics: Optional[MetricsRegistry] = None,
        log: Optional[LogHub] = None,
        faults=None,
    ) -> None:
        self.clock = clock or SimClock()
        #: Optional :class:`~repro.faults.FaultInjector`.  The service
        #: itself only forwards it to the store (``store.commit`` fires
        #: before any row mutates, so aborted commits are atomic).
        self.faults = faults
        self.store = DataStore(metrics=metrics, log=log, faults=faults)
        self.cheater_code = cheater_code or CheaterCode()
        self.badges = badge_engine or BadgeEngine()
        self.points = points_policy or PointsPolicy()
        self.config = config or ServiceConfig()
        self.counters = ServiceCounters()
        #: Optional live event stream (see :mod:`repro.stream`).  When
        #: set, the service publishes one event per state transition at
        #: the end of the pipeline, sequenced in commit order.
        self.event_bus = event_bus
        #: Optional observability registry (see :mod:`repro.obs`).  When
        #: set, the pipeline exports outcome/denial counters, the store
        #: exports entity gauges and lock timings, and :attr:`tracer`
        #: times every commit under the ``checkin.commit`` span.
        self.metrics = metrics
        #: Optional structured log (see :mod:`repro.obs.log`).  When set,
        #: every check-in emits one ``checkin`` record carrying the
        #: request's ``trace_id``, so the whole pipeline story — this
        #: record, the commit (``store.commit``), the bus events, any
        #: detector flag — links up under one grep key.
        self.log = log
        self._logger: Optional[StructuredLogger] = (
            log.logger("lbsn.service") if log is not None else None
        )
        self.tracer: Optional[Tracer] = None
        if metrics is not None:
            self.counters.bind_metrics(metrics)
            self.tracer = Tracer(metrics)
            self._users_registered = metrics.counter(
                "repro_lbsn_users_registered_total",
                "Accounts created through the service.",
            )
            self._venues_created = metrics.counter(
                "repro_lbsn_venues_created_total",
                "Venues created through the service.",
            )
        else:
            self._users_registered = None
            self._venues_created = None
        #: venue-ids currently mayored, per user.
        self._mayor_venues: Dict[int, Set[int]] = {}
        self._lock = threading.RLock()

    # Registration -------------------------------------------------------

    def register_user(
        self,
        display_name: str,
        username: Optional[str] = None,
        home_city: str = "",
    ) -> User:
        """Create an account with the next sequential user ID."""
        if not display_name:
            raise ServiceError("display_name must be non-empty")
        with self._lock:
            user = User(
                user_id=self.store.user_ids.allocate(),
                display_name=display_name,
                username=username,
                home_city=home_city,
                created_at=self.clock.now(),
            )
            self.store.add_user(user)
            if self._users_registered is not None:
                self._users_registered.inc()
            if self.event_bus is not None:
                ambient = current_trace()
                self.event_bus.publish(
                    _stream_events().UserRegistered(
                        seq=self.store.allocate_event_seq(),
                        timestamp=user.created_at,
                        user_id=user.user_id,
                        username=user.username,
                        trace_id=(
                            ambient.trace_id if ambient is not None else None
                        ),
                    )
                )
            return user

    def create_venue(
        self,
        name: str,
        location: GeoPoint,
        address: str = "",
        city: str = "",
        category: VenueCategory = VenueCategory.OTHER,
        special: Optional[Special] = None,
    ) -> Venue:
        """Register a venue with the next sequential venue ID."""
        if not name:
            raise ServiceError("venue name must be non-empty")
        with self._lock:
            venue = Venue(
                venue_id=self.store.venue_ids.allocate(),
                name=name,
                location=location,
                address=address,
                city=city,
                category=category,
                created_at=self.clock.now(),
                special=special,
            )
            self.store.add_venue(venue)
            if self._venues_created is not None:
                self._venues_created.inc()
            if self.event_bus is not None:
                ambient = current_trace()
                self.event_bus.publish(
                    _stream_events().VenueCreated(
                        seq=self.store.allocate_event_seq(),
                        timestamp=venue.created_at,
                        venue_id=venue.venue_id,
                        location=venue.location,
                        trace_id=(
                            ambient.trace_id if ambient is not None else None
                        ),
                    )
                )
            return venue

    # Queries --------------------------------------------------------------

    def nearby_venues(self, location: GeoPoint) -> List[Venue]:
        """The suggestion list the client app shows around ``location``."""
        venues = self.store.venues_near(location, self.config.nearby_radius_m)
        return venues[: self.config.nearby_limit]

    def mayorships_of(self, user_id: int) -> List[Venue]:
        """Venues the user is currently mayor of."""
        with self._lock:
            venue_ids = sorted(self._mayor_venues.get(user_id, set()))
        return [self.store.require_venue(venue_id) for venue_id in venue_ids]

    def mayorship_count(self, user_id: int) -> int:
        """How many venues the user is currently mayor of."""
        with self._lock:
            return len(self._mayor_venues.get(user_id, set()))

    def event_watermark(self) -> int:
        """The next event ``seq`` the store will allocate.

        This is the seq handoff the durability layer keys on: every
        event published so far has ``seq < event_watermark()``, so a
        WAL whose replay reaches ``watermark - 1`` has seen everything
        the service committed (the ``repro wal-replay`` manifest records
        it for exactly that check).
        """
        return self.store.event_seq_watermark()

    # The check-in pipeline ------------------------------------------------

    def check_in(
        self,
        user_id: int,
        venue_id: int,
        reported_location: GeoPoint,
        timestamp: Optional[float] = None,
        trace: Optional[TraceContext] = None,
    ) -> CheckInResult:
        """Process one check-in attempt end to end.

        ``reported_location`` is whatever the client sent — the server has
        no way to tell a genuine GPS fix from a spoofed one.  With a
        metrics registry attached, the whole pipeline runs under the
        ``checkin.commit`` tracing span.

        ``trace`` is the request's :class:`~repro.obs.context.
        TraceContext`.  When omitted and the service is instrumented, the
        ambient context (web-server request entry, defense wrapper) is
        adopted, or a fresh one is minted — this is the root of the
        end-to-end ``trace_id`` chain.  Uninstrumented services never
        mint.
        """
        if trace is None and (
            self._logger is not None or self.tracer is not None
        ):
            trace = current_trace() or TraceContext.mint()
        tracer = self.tracer
        if tracer is None:
            return self._check_in(
                user_id, venue_id, reported_location, timestamp, trace
            )
        # Hand-timed with two perf_counter() calls: this is the hottest
        # traced region, and a per-call context-manager object would
        # cost more (see the E20 overhead bench).
        start = time.perf_counter()
        try:
            return self._check_in(
                user_id, venue_id, reported_location, timestamp, trace
            )
        finally:
            tracer.record(
                "checkin.commit",
                time.perf_counter() - start,
                trace.trace_id if trace is not None else None,
            )

    def _check_in(
        self,
        user_id: int,
        venue_id: int,
        reported_location: GeoPoint,
        timestamp: Optional[float] = None,
        trace: Optional[TraceContext] = None,
    ) -> CheckInResult:
        now = self.clock.now() if timestamp is None else timestamp
        with self._lock:
            user = self.store.require_user(user_id)
            venue = self.store.require_venue(venue_id)

            # Stage 1: GPS verification.
            distance = haversine_m(reported_location, venue.location)
            if distance > self.config.gps_verification_radius_m:
                checkin = self._record(
                    user,
                    venue,
                    now,
                    reported_location,
                    CheckInStatus.REJECTED,
                    RULE_GPS_VERIFICATION,
                    trace,
                )
                return CheckInResult(
                    checkin=checkin,
                    warnings=[
                        f"you appear to be {distance / 1000.0:.1f} km from "
                        f"{venue.name}"
                    ],
                )

            # Stage 2: the cheater code.
            history = self.store.checkins_of_user(user_id)
            verdict = self.cheater_code.evaluate(
                venue_id=venue_id,
                venue_location=venue.location,
                timestamp=now,
                history=history,
                location_of_venue=self._venue_location,
                prior_flagged_count=user.flagged_checkins,
            )
            if verdict.action is RuleAction.REJECT:
                checkin = self._record(
                    user,
                    venue,
                    now,
                    reported_location,
                    CheckInStatus.REJECTED,
                    verdict.rule,
                    trace,
                )
                return CheckInResult(
                    checkin=checkin, warnings=[verdict.message]
                )
            if verdict.action is RuleAction.FLAG:
                checkin = self._record(
                    user,
                    venue,
                    now,
                    reported_location,
                    CheckInStatus.FLAGGED,
                    verdict.rule,
                    trace,
                )
                return CheckInResult(
                    checkin=checkin, warnings=list(verdict.warnings)
                )

            # Stage 3: a valid check-in earns rewards.
            return self._reward(
                user, venue, now, reported_location, verdict, trace
            )

    def _venue_location(self, venue_id: int) -> Optional[GeoPoint]:
        venue = self.store.get_venue(venue_id)
        return None if venue is None else venue.location

    def _first_valid_of_day(self, user_id: int, now: float) -> bool:
        """Is this the user's first valid check-in of the calendar day?

        Scans backwards and stops at the first record from an earlier day,
        so the cost is bounded by one day's activity, not lifetime history.
        """
        today = day_index(now)
        for checkin in reversed(self.store.checkins_of_user(user_id)):
            day = day_index(checkin.timestamp)
            if day < today:
                break
            if day == today and checkin.status is CheckInStatus.VALID:
                return False
        return True

    def _record(
        self,
        user: User,
        venue: Venue,
        now: float,
        reported_location: GeoPoint,
        status: CheckInStatus,
        rule: Optional[str],
        trace: Optional[TraceContext] = None,
    ) -> CheckIn:
        """Persist a non-valid attempt, applying Foursquare's count policy.

        Rejected attempts never become activity.  Flagged attempts are
        recorded and increment the user's raw total (but nothing else) —
        the policy §4.3 documents.
        """
        trace_id = trace.trace_id if trace is not None else None
        checkin = CheckIn(
            checkin_id=self.store.checkin_ids.allocate(),
            user_id=user.user_id,
            venue_id=venue.venue_id,
            timestamp=now,
            reported_location=reported_location,
            status=status,
            flagged_rule=rule,
        )
        seq = -1
        if status is not CheckInStatus.REJECTED:
            if self.event_bus is not None:
                _, seq = self.store.add_checkin_committed(
                    checkin, trace_id=trace_id
                )
            else:
                self.store.add_checkin(checkin)
            user.total_checkins += 1
        elif self.event_bus is not None:
            seq = self.store.allocate_event_seq()
        self.counters.record(status, rule)
        if self._logger is not None:
            self._logger.info(
                "checkin",
                trace_id=trace_id,
                user_id=user.user_id,
                venue_id=venue.venue_id,
                checkin_id=checkin.checkin_id,
                status=status.value,
                rule=rule,
                seq=seq,
            )
        if self.event_bus is not None:
            events = _stream_events()
            event_type = (
                events.CheckInFlagged
                if status is CheckInStatus.FLAGGED
                else events.CheckInRejected
            )
            self.event_bus.publish(
                event_type(
                    seq=seq,
                    timestamp=now,
                    user_id=user.user_id,
                    venue_id=venue.venue_id,
                    venue_location=venue.location,
                    reported_location=reported_location,
                    checkin_id=checkin.checkin_id,
                    rule=rule,
                    trace_id=trace_id,
                )
            )
        return checkin

    def _reward(
        self,
        user: User,
        venue: Venue,
        now: float,
        reported_location: GeoPoint,
        verdict,
        trace: Optional[TraceContext] = None,
    ) -> CheckInResult:
        """Apply the full reward pipeline for a valid check-in."""
        trace_id = trace.trace_id if trace is not None else None
        first_visit = venue.venue_id not in user.venues_visited
        first_of_day = self._first_valid_of_day(user.user_id, now)

        checkin = CheckIn(
            checkin_id=self.store.checkin_ids.allocate(),
            user_id=user.user_id,
            venue_id=venue.venue_id,
            timestamp=now,
            reported_location=reported_location,
            status=CheckInStatus.VALID,
        )
        if self.event_bus is not None:
            _, event_seq = self.store.add_checkin_committed(
                checkin, trace_id=trace_id
            )
        else:
            self.store.add_checkin(checkin)
            event_seq = -1

        # User/venue counters.
        user.total_checkins += 1
        user.valid_checkins += 1
        user.record_valid_visit(venue.venue_id, day_index(now))
        venue.checkin_count += 1
        venue.record_recent_visitor(user.user_id)

        # Mayorship recomputation over the 60-day window.
        decision = decide_mayor(
            self.store.checkins_at_venue(venue.venue_id),
            now,
            venue.mayor_id,
        )
        became_mayor = False
        lost_mayor: Optional[int] = None
        if decision.changed:
            lost_mayor = decision.previous_mayor_id
            self._transfer_mayorship(venue, decision.mayor_id)
            became_mayor = decision.mayor_id == user.user_id

        # Points.
        awarded = self.points.score(first_visit, first_of_day, became_mayor)
        user.points += awarded
        checkin.points_awarded = awarded

        # Badges, judged over history including this check-in.
        new_badges = self.badges.evaluate(
            user, self.store.checkins_of_user(user.user_id)
        )

        # Specials (per-user valid counts are maintained incrementally).
        valid_here = venue.count_valid_visit(user.user_id)
        is_mayor_after = venue.mayor_id == user.user_id
        special = special_unlocked_by(venue, user, valid_here, is_mayor_after)

        self.counters.record(CheckInStatus.VALID, None)
        if self._logger is not None:
            # The hottest log call in the codebase (one per valid
            # check-in): the status string is a hoisted constant and the
            # field set is trimmed to what the trace chain needs —
            # ``rule`` is omitted (it only means something on the flagged
            # path, where :meth:`_record` logs it).
            self._logger.info(
                "checkin",
                trace_id=trace_id,
                user_id=user.user_id,
                venue_id=venue.venue_id,
                checkin_id=checkin.checkin_id,
                status=_VALID_STATUS,
                seq=event_seq,
                points=awarded,
                became_mayor=became_mayor,
            )
        if self.event_bus is not None:
            events = _stream_events()
            self.event_bus.publish(
                events.CheckInAccepted(
                    seq=event_seq,
                    timestamp=now,
                    user_id=user.user_id,
                    venue_id=venue.venue_id,
                    venue_location=venue.location,
                    reported_location=reported_location,
                    checkin_id=checkin.checkin_id,
                    points=awarded,
                    new_badge_count=len(new_badges),
                    became_mayor=became_mayor,
                    first_visit=first_visit,
                    trace_id=trace_id,
                )
            )
            if decision.changed:
                self.event_bus.publish(
                    events.MayorChanged(
                        seq=self.store.allocate_event_seq(),
                        timestamp=now,
                        venue_id=venue.venue_id,
                        new_mayor_id=venue.mayor_id,
                        previous_mayor_id=lost_mayor,
                        trace_id=trace_id,
                    )
                )
        return CheckInResult(
            checkin=checkin,
            points=awarded,
            new_badges=new_badges,
            became_mayor=became_mayor,
            lost_mayor_user_id=lost_mayor,
            special_unlocked=special,
        )

    def _transfer_mayorship(
        self, venue: Venue, new_mayor_id: Optional[int]
    ) -> None:
        old = venue.mayor_id
        if old is not None:
            self._mayor_venues.get(old, set()).discard(venue.venue_id)
            old_user = self.store.get_user(old)
            if old_user is not None:
                old_user.mayorship_count = max(0, old_user.mayorship_count - 1)
        venue.mayor_id = new_mayor_id
        if new_mayor_id is not None:
            self._mayor_venues.setdefault(new_mayor_id, set()).add(
                venue.venue_id
            )
            new_user = self.store.get_user(new_mayor_id)
            if new_user is not None:
                new_user.mayorship_count += 1

    # Tips -------------------------------------------------------------------

    def post_tip(
        self,
        user_id: int,
        venue_id: int,
        text: str,
        timestamp: Optional[float] = None,
    ):
        """Leave a public comment on a venue page.

        Requires at least one *valid* check-in at the venue — which is no
        protection at all against a location cheater, who can manufacture
        that check-in from anywhere (the §2.2 badmouthing scenario).
        """
        if not text:
            raise ServiceError("tip text must be non-empty")
        with self._lock:
            self.store.require_user(user_id)
            venue = self.store.require_venue(venue_id)
            if venue.visitor_valid_counts.get(user_id, 0) < 1:
                raise ServiceError(
                    "check in to this venue before leaving a tip"
                )
            from repro.lbsn.models import Tip

            tip = Tip(
                author_id=user_id,
                text=text,
                created_at=self.clock.now() if timestamp is None else timestamp,
            )
            venue.add_tip(tip)
            return tip

    # Maintenance ------------------------------------------------------------

    def refresh_mayorship(self, venue_id: int) -> Optional[int]:
        """Recompute one venue's mayor at the current clock time.

        Check-ins age out of the 60-day window even with no new activity;
        analyses that read mayor state after long simulated gaps call this
        (or :meth:`refresh_all_mayorships`) first.
        """
        with self._lock:
            venue = self.store.require_venue(venue_id)
            decision = decide_mayor(
                self.store.checkins_at_venue(venue_id),
                self.clock.now(),
                venue.mayor_id,
            )
            if decision.changed:
                self._transfer_mayorship(venue, decision.mayor_id)
            return venue.mayor_id

    def refresh_all_mayorships(self) -> int:
        """Recompute every venue's mayor; returns how many changed."""
        changed = 0
        for venue in self.store.iter_venues():
            before = venue.mayor_id
            if self.refresh_mayorship(venue.venue_id) != before:
                changed += 1
        return changed
