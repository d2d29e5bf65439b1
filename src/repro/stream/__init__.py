"""Online event-bus + streaming cheater-detection layer.

The stream layer sits between the service and the analysis stack: the
:class:`~repro.lbsn.service.LbsnService` publishes typed events at the end
of its check-in pipeline, the :class:`EventBus` runs every subscriber
inline on them, and the :class:`FactorTable` keeps the Chapter-4
suspicion factors current per event — giving the live verdicts the
offline crawl-then-analyze loop cannot (§4.3's closing complaint).
"""

from repro.stream.bus import BusError, EventBus, SubscriberStats
from repro.stream.detectors import FactorTable, LruStateMap
from repro.stream.events import (
    CHECKIN_EVENT_TYPES,
    UNSEQUENCED,
    CheckInAccepted,
    CheckInEvent,
    CheckInFlagged,
    CheckInRejected,
    MayorChanged,
    StreamEvent,
    UserRegistered,
    VenueCreated,
)
from repro.stream.ledger import SuspicionLedger

__all__ = [
    "BusError",
    "EventBus",
    "SubscriberStats",
    "FactorTable",
    "LruStateMap",
    "CHECKIN_EVENT_TYPES",
    "UNSEQUENCED",
    "CheckInAccepted",
    "CheckInEvent",
    "CheckInFlagged",
    "CheckInRejected",
    "MayorChanged",
    "StreamEvent",
    "UserRegistered",
    "VenueCreated",
    "SuspicionLedger",
]
