"""Honeypot-venue defense: fake venues only a spoofer would ever visit.

Pelechrinis et al. ("Gaming the Game") observe that a crawler-scheduled
spoofing campaign has one structural weakness the three per-user rules
cannot see: it selects targets from *exhaustive venue enumeration*, not
from lived experience.  Seed the venue grid with fake venues that no
honest itinerary will ever contain — no foot traffic, no social pull,
nothing but an attractive-looking mayor-only special — and any account
that checks into one has proved, by that single act, that its target list
came from a crawl.

The :class:`HoneypotRegistry` implements both halves:

* **Seeding** — :meth:`seed` creates fake venues through the normal
  ``service.create_venue`` path, so they land in the
  :class:`~repro.lbsn.store.DataStore`, the venue grid, the web pages,
  and therefore every crawl snapshot — indistinguishable from real
  venues to an attacker.  They are deliberately **not** added to the
  :class:`~repro.workload.venues.GeneratedVenues` lists that honest
  personas' itinerary logic draws from; that omission is the *visibility
  law* (see ``docs/ADVERSARY.md``) and the reason the false-positive
  rate on honest personas is structurally zero.
* **Flagging** — :meth:`on_event` watches the live event stream; any
  check-in event (accepted, flagged, *or* rejected — attempting is
  proof enough) at a honeypot venue flags the account, emits one
  trace-stamped ``honeypot.flag`` record, and pins the account onto the
  :class:`~repro.stream.ledger.SuspicionLedger` via
  :meth:`~repro.stream.ledger.SuspicionLedger.pin`, which promotes the
  flag into :class:`~repro.defense.integration.DefendedLbsnService`'s
  inline refusal path.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.errors import ReproError
from repro.geo.coordinates import GeoPoint
from repro.lbsn.models import Special, VenueCategory
from repro.lbsn.service import LbsnService
from repro.obs.log import LogHub
from repro.obs.metrics import MetricsRegistry
from repro.stream.bus import EventBus
from repro.stream.events import CheckInEvent, StreamEvent

#: Reason recorded on ledger pins and flag records for honeypot hits.
RULE_HONEYPOT = "honeypot-venue"

#: Offer text on every seeded venue: a mayor-only special with no mayor —
#: exactly the §3.4 "prime target" profile the attack targeting queries
#: select for, so exhaustive-enumeration attackers cannot resist them.
HONEYPOT_SPECIAL_TEXT = "Free lunch for the mayor, every day!"

_NAMES = (
    "Corner Coffee Collective",
    "The Tin Rooster Diner",
    "Bluebird Vinyl Lounge",
    "Prairie Gate Taproom",
    "Juniper & Thyme Kitchen",
    "Half Moon Arcade",
    "The Velvet Antler",
    "Sundial Tea House",
)


@dataclass(frozen=True)
class HoneypotFlag:
    """One account caught: the first honeypot check-in that proved it."""

    user_id: int
    venue_id: int
    timestamp: float
    seq: int
    #: Trace of the check-in request that tripped the honeypot — the
    #: same id :meth:`SuspicionLedger.flag_trace_id` then serves.
    trace_id: Optional[str]


class HoneypotRegistry:
    """Seeds honeypot venues and flags every account that visits one.

    Parameters
    ----------
    service:
        The service whose venue grid receives the seeded venues.
    ledger:
        Optional live :class:`~repro.stream.ledger.SuspicionLedger`.
        When set, every flag is pinned onto it (``rule=RULE_HONEYPOT``),
        which makes :class:`~repro.defense.integration.
        DefendedLbsnService` refuse the account inline from then on.
    metrics:
        Optional registry.  Exports ``repro_honeypot_venues`` (seeded
        venue count), ``repro_honeypot_checkins_total`` (check-in events
        observed at honeypot venues), ``repro_honeypot_flags_total``
        (accounts newly flagged), and ``repro_honeypot_flagged_accounts``
        (current flagged-account count).
    log:
        Optional :class:`~repro.obs.log.LogHub`; each new flag emits one
        ``honeypot.flag`` record carrying the triggering event's
        ``trace_id``.
    """

    def __init__(
        self,
        service: LbsnService,
        ledger=None,
        metrics: Optional[MetricsRegistry] = None,
        log: Optional[LogHub] = None,
    ) -> None:
        self.service = service
        self.ledger = ledger
        self._logger = (
            log.logger("defense.honeypot") if log is not None else None
        )
        self._venue_ids: Set[int] = set()
        self._flags: Dict[int, HoneypotFlag] = {}
        self._lock = threading.Lock()
        self.checkins_observed = 0
        if metrics is not None:
            self._venues_metric = metrics.gauge(
                "repro_honeypot_venues",
                "Honeypot venues currently seeded into the store.",
            )
            self._checkins_metric = metrics.counter(
                "repro_honeypot_checkins_total",
                "Check-in events observed at honeypot venues "
                "(every attempt counts, whatever its outcome).",
            )
            self._flags_metric = metrics.counter(
                "repro_honeypot_flags_total",
                "Accounts newly flagged for checking into a honeypot.",
            )
            self._flagged_metric = metrics.gauge(
                "repro_honeypot_flagged_accounts",
                "Accounts currently carrying a honeypot flag.",
            )
        else:
            self._venues_metric = None
            self._checkins_metric = None
            self._flags_metric = None
            self._flagged_metric = None

    # Seeding ------------------------------------------------------------

    def seed(
        self,
        density: float = 0.01,
        seed: int = 0,
        count: Optional[int] = None,
    ) -> List[int]:
        """Seed honeypots at ``density`` × the current venue count.

        Placement is seeded and deterministic: each honeypot lands a few
        hundred metres from a randomly sampled *existing* venue, so the
        fakes sit inside real neighbourhoods rather than in empty
        wilderness a crawler might discount.  Every honeypot carries a
        mayor-only special and no mayor — the §3.4 easy-target profile.

        Returns the new venue ids (also remembered for :meth:`on_event`).
        """
        if count is None:
            if density <= 0:
                return []
            count = max(1, round(density * self.service.store.venue_count()))
        if count <= 0:
            return []
        anchors = [
            venue.location for venue in self.service.store.iter_venues()
        ]
        if not anchors:
            raise ReproError("cannot seed honeypots into an empty world")
        rng = random.Random(seed)
        created: List[int] = []
        for index in range(count):
            anchor = anchors[rng.randrange(len(anchors))]
            location = GeoPoint(
                latitude=anchor.latitude + rng.uniform(-0.004, 0.004),
                longitude=anchor.longitude + rng.uniform(-0.004, 0.004),
            )
            venue = self.service.create_venue(
                name=f"{_NAMES[index % len(_NAMES)]} #{index + 1}",
                location=location,
                category=VenueCategory.RESTAURANT,
                special=Special(
                    description=HONEYPOT_SPECIAL_TEXT, mayor_only=True
                ),
            )
            created.append(venue.venue_id)
        with self._lock:
            self._venue_ids.update(created)
            if self._venues_metric is not None:
                self._venues_metric.set(len(self._venue_ids))
        return created

    def is_honeypot(self, venue_id: int) -> bool:
        """Is this venue one of ours?"""
        with self._lock:
            return venue_id in self._venue_ids

    def honeypot_ids(self) -> List[int]:
        """All seeded honeypot venue ids, ascending."""
        with self._lock:
            return sorted(self._venue_ids)

    # Flagging -----------------------------------------------------------

    def on_event(self, event: StreamEvent) -> None:
        """Bus subscriber: flag any account seen at a honeypot venue."""
        if not isinstance(event, CheckInEvent):
            return
        with self._lock:
            if event.venue_id not in self._venue_ids:
                return
            self.checkins_observed += 1
            if self._checkins_metric is not None:
                self._checkins_metric.inc()
            if event.user_id in self._flags:
                return
            flag = HoneypotFlag(
                user_id=event.user_id,
                venue_id=event.venue_id,
                timestamp=event.timestamp,
                seq=event.seq,
                trace_id=event.trace_id,
            )
            self._flags[event.user_id] = flag
            if self._flags_metric is not None:
                self._flags_metric.inc()
            if self._flagged_metric is not None:
                self._flagged_metric.set(len(self._flags))
        if self._logger is not None:
            self._logger.warning(
                "honeypot.flag",
                trace_id=flag.trace_id,
                user_id=flag.user_id,
                venue_id=flag.venue_id,
                rule=RULE_HONEYPOT,
            )
        if self.ledger is not None:
            self.ledger.pin(
                flag.user_id, rule=RULE_HONEYPOT, trace_id=flag.trace_id
            )

    def attach(
        self, bus: EventBus, name: str = "honeypot-registry"
    ) -> "HoneypotRegistry":
        """Subscribe this registry to a bus; returns self for chaining."""
        bus.subscribe(name, self.on_event)
        return self

    # Read side ----------------------------------------------------------

    def flagged_accounts(self) -> List[int]:
        """User ids carrying a honeypot flag, ascending."""
        with self._lock:
            return sorted(self._flags)

    def flags(self) -> List[HoneypotFlag]:
        """All flag records, in user-id order."""
        with self._lock:
            return [self._flags[user_id] for user_id in sorted(self._flags)]

    def flag_of(self, user_id: int) -> Optional[HoneypotFlag]:
        """The flag record for one account, if it has been caught."""
        with self._lock:
            return self._flags.get(user_id)

    def __len__(self) -> int:
        return len(self._flags)


__all__ = [
    "HONEYPOT_SPECIAL_TEXT",
    "RULE_HONEYPOT",
    "HoneypotFlag",
    "HoneypotRegistry",
]
