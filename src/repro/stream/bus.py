"""A thread-safe in-process pub/sub event bus.

The bus sits between the :class:`~repro.lbsn.service.LbsnService` check-in
pipeline (the producer) and the online detectors (the consumers).  Every
callback runs inline, on the publishing thread: a detector's verdict
lands before ``publish`` returns, so the inline defense sees it on the
account's very next check-in, and a slow subscriber slows the check-in
that published the event.  Design constraints:

1. **Durable taps lead.**  Write-ahead taps (see :mod:`repro.durable`)
   are delivered before every plain subscriber, so the persisted log
   always leads any derived in-memory state.
2. **Isolated subscribers.**  A raising callback is counted and logged,
   never propagated to the publisher or to the other subscribers.
3. **Deterministic ordering.**  Fan-out preserves publish order per
   subscriber; the publish path stamps a bus-wide monotonic sequence on
   events the producer did not already sequence.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.points import POINT_STREAM_SUBSCRIBER
from repro.obs.log import LogHub, StructuredLogger
from repro.obs.metrics import MetricsRegistry
from repro.stream.events import StreamEvent

EventCallback = Callable[[StreamEvent], None]


class BusError(ReproError):
    """Misuse of the event bus (duplicate names, publish after close...)."""


@dataclass
class SubscriberStats:
    """Per-subscriber delivery accounting."""

    #: Events whose callback ran to completion (or raised — see errors).
    delivered: int = 0
    #: Callback invocations that raised (the bus swallows and counts).
    errors: int = 0


class _SubscriberMetrics:
    """Per-subscriber exported counters (mirrors :class:`SubscriberStats`)."""

    __slots__ = ("delivered", "errors")

    def __init__(self, metrics: MetricsRegistry, name: str) -> None:
        self.delivered = metrics.counter(
            "repro_bus_delivered_total",
            "Events whose subscriber callback completed, by subscriber.",
            ("subscriber",),
        ).labels(name)
        self.errors = metrics.counter(
            "repro_bus_subscriber_errors_total",
            "Subscriber callback invocations that raised, by subscriber.",
            ("subscriber",),
        ).labels(name)


class _Subscription:
    """One subscriber: its callback plus delivery accounting."""

    def __init__(
        self,
        name: str,
        callback: EventCallback,
        metrics: Optional[MetricsRegistry] = None,
        logger: Optional[StructuredLogger] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.name = name
        self.callback = callback
        self.faults = faults
        self.stats = SubscriberStats()
        self.metrics = (
            _SubscriberMetrics(metrics, name) if metrics is not None else None
        )
        self.logger = logger

    def offer(self, event: StreamEvent) -> None:
        """Run the callback on one event, isolating its errors."""
        try:
            if self.faults is not None:
                # Injected subscriber faults (label = subscriber name, so
                # plans can target one victim) take the same isolation
                # path as genuine callback bugs: counted, logged, never
                # propagated to the publisher.
                self.faults.check(
                    POINT_STREAM_SUBSCRIBER,
                    label=self.name,
                    trace_id=getattr(event, "trace_id", None),
                )
            self.callback(event)
        except Exception as exc:  # noqa: BLE001 - subscriber faults must
            self.stats.errors += 1  # not poison the check-in pipeline.
            if self.metrics is not None:
                self.metrics.errors.inc()
            if self.logger is not None:
                self.logger.error(
                    "bus.subscriber_error",
                    subscriber=self.name,
                    error=f"{type(exc).__name__}: {exc}",
                    trace_id=getattr(event, "trace_id", None),
                    seq=event.seq,
                )
        self.stats.delivered += 1
        if self.metrics is not None:
            self.metrics.delivered.inc()


class EventBus:
    """Fan-out pub/sub hub for :class:`StreamEvent` records.

    ``publish`` is wait-free with respect to subscription management: the
    subscriber list is an immutable tuple swapped under a lock, so the hot
    path reads one attribute and loops — no lock acquisition per event
    beyond the (cheap) sequence stamp.

    Pass a :class:`~repro.obs.MetricsRegistry` to export the publish
    counter plus per-subscriber delivery and error counters (labeled
    ``subscriber=<name>``), mirroring the in-process
    :class:`SubscriberStats` for scraping.

    Pass a :class:`~repro.obs.log.LogHub` to record an ERROR
    ``bus.subscriber_error`` on the ``stream.bus`` logger per raising
    callback.  The happy path logs nothing — at firehose rates a
    per-delivery record would dwarf the work being delivered.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        log: Optional[LogHub] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self._subs: Tuple[_Subscription, ...] = ()
        #: Durable taps (WAL writers): delivered before every plain
        #: subscriber so the log always leads derived state.
        self._durable_subs: Tuple[_Subscription, ...] = ()
        self._by_name: Dict[str, _Subscription] = {}
        self._admin = threading.Lock()
        self._seq_lock = threading.Lock()
        self._next_seq = 0
        self._published = 0
        self._closed = False
        self._metrics = metrics
        #: Optional fault injector checked once per delivery at
        #: ``stream.subscriber`` (label = subscriber name).
        self.faults = faults
        self._logger = log.logger("stream.bus") if log is not None else None
        if metrics is not None:
            self._published_metric = metrics.counter(
                "repro_bus_published_total",
                "Events published onto the bus.",
            )
        else:
            self._published_metric = None

    # Subscription management -------------------------------------------

    def subscribe(
        self,
        name: str,
        callback: EventCallback,
        *,
        durable: bool = False,
    ) -> SubscriberStats:
        """Register a named subscriber; returns its live stats object.

        ``durable=True`` marks a write-ahead tap (see
        :mod:`repro.durable`): it is delivered *before* every plain
        subscriber on each publish, so the persisted log always leads
        any derived in-memory state.
        """
        with self._admin:
            if self._closed:
                raise BusError("bus is closed")
            if name in self._by_name:
                raise BusError(f"duplicate subscriber name: {name!r}")
            sub = _Subscription(
                name,
                callback,
                metrics=self._metrics,
                logger=self._logger,
                faults=self.faults,
            )
            self._by_name[name] = sub
            if durable:
                self._durable_subs = self._durable_subs + (sub,)
            else:
                self._subs = self._subs + (sub,)
            return sub.stats

    def unsubscribe(self, name: str) -> None:
        """Remove a subscriber; publishes that start afterwards skip it."""
        with self._admin:
            sub = self._by_name.pop(name, None)
            if sub is None:
                raise BusError(f"no such subscriber: {name!r}")
            self._subs = tuple(s for s in self._subs if s is not sub)
            self._durable_subs = tuple(
                s for s in self._durable_subs if s is not sub
            )

    def subscriber_names(self) -> List[str]:
        """Current subscriber names, durable taps first then plain subs."""
        return [sub.name for sub in self._durable_subs + self._subs]

    def stats_of(self, name: str) -> SubscriberStats:
        """Live stats for one subscriber."""
        with self._admin:
            sub = self._by_name.get(name)
        if sub is None:
            raise BusError(f"no such subscriber: {name!r}")
        return sub.stats

    # Publishing ---------------------------------------------------------

    def publish(self, event: StreamEvent) -> StreamEvent:
        """Fan one event out to every subscriber, stamping ``seq`` if unset.

        Returns the (possibly stamped) event for producer convenience.
        """
        if self._closed:
            raise BusError("publish on a closed bus")
        with self._seq_lock:
            if event.seq < 0:
                event.seq = self._next_seq
                self._next_seq += 1
            elif event.seq >= self._next_seq:
                self._next_seq = event.seq + 1
            self._published += 1
        if self._published_metric is not None:
            self._published_metric.inc()
        for sub in self._durable_subs:
            sub.offer(event)
        for sub in self._subs:
            sub.offer(event)
        return event

    @property
    def published(self) -> int:
        """Total events published since construction."""
        return self._published

    # Lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Shut the bus down; further publishes raise :class:`BusError`."""
        with self._admin:
            self._closed = True
            self._subs = ()
            self._durable_subs = ()
            self._by_name.clear()

    def __enter__(self) -> "EventBus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
