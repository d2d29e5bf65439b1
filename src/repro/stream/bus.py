"""A thread-safe in-process pub/sub event bus with bounded backpressure.

The bus sits between the :class:`~repro.lbsn.service.LbsnService` check-in
pipeline (the producer) and the online detectors (the consumers).  Design
constraints, in order:

1. **The producer is the hot path.**  A check-in must never slow down
   because a detector is slow — unless the operator explicitly chose the
   ``BLOCK`` policy, in which case backpressure is the point.
2. **Bounded memory.**  Every background subscriber owns a bounded queue;
   a stalled consumer costs at most ``queue_size`` events, accounted for
   by per-subscriber drop counters rather than silent loss.
3. **Deterministic ordering.**  Fan-out preserves publish order per
   subscriber; the publish path stamps a bus-wide monotonic sequence on
   events the producer did not already sequence.

Two dispatch modes, selectable per subscription:

* **synchronous** (default) — ``publish`` invokes the callback inline.
  Cheapest (no queue, no thread), and what the throughput bench exercises;
  the callback runs on the producer thread, so it must be O(1)-ish.
* **background** — ``publish`` enqueues into the subscriber's bounded
  queue and a dedicated daemon thread drains it.  The queue full-policy is
  the subscriber's :class:`BackpressurePolicy`.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from enum import Enum
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


class BackpressurePolicy(Enum):
    """What a background subscription does when its queue is full."""

    #: Producer waits for space — zero loss, shared fate with the consumer.
    BLOCK = "block"
    #: Evict the oldest queued event to admit the new one (lossy, fresh).
    DROP_OLDEST = "drop_oldest"
    #: Refuse the new event (lossy, stale-preserving).
    REJECT = "reject"


@dataclass
class SubscriberStats:
    """Per-subscriber delivery accounting."""

    #: Events whose callback ran to completion (or raised — see errors).
    delivered: int = 0
    #: Events lost to DROP_OLDEST eviction or REJECT refusal.
    dropped: int = 0
    #: Callback invocations that raised (the bus swallows and counts).
    errors: int = 0
    #: High-water mark of the background queue.
    max_queued: int = 0

    @property
    def seen(self) -> int:
        """Everything that reached this subscription, lost or not."""
        return self.delivered + self.dropped


class _SubscriberMetrics:
    """Per-subscriber exported counters (mirrors :class:`SubscriberStats`)."""

    __slots__ = ("delivered", "dropped", "errors", "queue_depth")

    def __init__(self, metrics: MetricsRegistry, name: str) -> None:
        self.delivered = metrics.counter(
            "repro_bus_delivered_total",
            "Events whose subscriber callback completed, by subscriber.",
            ("subscriber",),
        ).labels(name)
        self.dropped = metrics.counter(
            "repro_bus_dropped_total",
            "Events lost to DROP_OLDEST eviction or REJECT refusal, "
            "by subscriber.",
            ("subscriber",),
        ).labels(name)
        self.errors = metrics.counter(
            "repro_bus_subscriber_errors_total",
            "Subscriber callback invocations that raised, by subscriber.",
            ("subscriber",),
        ).labels(name)
        self.queue_depth = metrics.gauge(
            "repro_bus_queue_depth",
            "Events currently queued for a background subscriber.",
            ("subscriber",),
        ).labels(name)


class _Subscription:
    """One subscriber: callback + (for background mode) queue and worker."""

    def __init__(
        self,
        name: str,
        callback: EventCallback,
        background: bool,
        queue_size: int,
        policy: BackpressurePolicy,
        metrics: Optional[MetricsRegistry] = None,
        logger: Optional[StructuredLogger] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.name = name
        self.callback = callback
        self.faults = faults
        self.background = background
        self.queue_size = queue_size
        self.policy = policy
        self.stats = SubscriberStats()
        self.metrics = (
            _SubscriberMetrics(metrics, name) if metrics is not None else None
        )
        self.logger = logger
        self.closed = False
        if background:
            self._queue: deque = deque()
            self._cond = threading.Condition()
            self._worker = threading.Thread(
                target=self._drain_loop,
                name=f"bus-sub-{name}",
                daemon=True,
            )
            self._worker.start()

    # Producer side ----------------------------------------------------

    def offer(self, event: StreamEvent) -> None:
        """Hand one event to this subscription (any mode)."""
        if not self.background:
            self._invoke(event)
            return
        with self._cond:
            if self.policy is BackpressurePolicy.BLOCK:
                while len(self._queue) >= self.queue_size and not self.closed:
                    self._cond.wait()
                if self.closed:
                    self._count_dropped(1, event)
                    return
            elif len(self._queue) >= self.queue_size:
                if self.policy is BackpressurePolicy.DROP_OLDEST:
                    evicted = self._queue.popleft()
                    self._count_dropped(1, evicted)
                else:  # REJECT
                    self._count_dropped(1, event)
                    return
            self._queue.append(event)
            if len(self._queue) > self.stats.max_queued:
                self.stats.max_queued = len(self._queue)
            if self.metrics is not None:
                self.metrics.queue_depth.set(len(self._queue))
            self._cond.notify_all()

    def _count_dropped(
        self, count: int, event: Optional[StreamEvent] = None
    ) -> None:
        self.stats.dropped += count
        if self.metrics is not None:
            self.metrics.dropped.inc(count)
        if self.logger is not None:
            self.logger.warning(
                "bus.drop",
                subscriber=self.name,
                policy=self.policy.value,
                count=count,
                trace_id=getattr(event, "trace_id", None),
                seq=event.seq if event is not None else None,
            )

    # Consumer side ----------------------------------------------------

    def _drain_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self.closed:
                    self._cond.wait()
                if not self._queue and self.closed:
                    self._cond.notify_all()
                    return
                event = self._queue.popleft()
                if self.metrics is not None:
                    self.metrics.queue_depth.set(len(self._queue))
                self._cond.notify_all()
            self._invoke(event)

    def _invoke(self, event: StreamEvent) -> None:
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

    # Lifecycle --------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until the background queue is empty.  True on success."""
        if not self.background:
            return True
        with self._cond:
            return self._cond.wait_for(lambda: not self._queue, timeout)

    def close(self, drain: bool = True) -> None:
        """Stop the worker, optionally delivering everything queued first."""
        if not self.background:
            self.closed = True
            return
        if drain:
            self.drain()
        with self._cond:
            self.closed = True
            if not drain:
                self._count_dropped(len(self._queue))
                self._queue.clear()
                if self.metrics is not None:
                    self.metrics.queue_depth.set(0)
            self._cond.notify_all()
        self._worker.join(timeout=5.0)


class EventBus:
    """Fan-out pub/sub hub for :class:`StreamEvent` records.

    ``publish`` is wait-free with respect to subscription management: the
    subscriber list is an immutable tuple swapped under a lock, so the hot
    path reads one attribute and loops — no lock acquisition per event
    beyond the (cheap) sequence stamp.

    Pass a :class:`~repro.obs.MetricsRegistry` to export the publish
    counter plus per-subscriber delivery/drop/error counters and a
    queue-depth gauge (labeled ``subscriber=<name>``), mirroring the
    in-process :class:`SubscriberStats` for scraping.

    Pass a :class:`~repro.obs.log.LogHub` to record delivery *anomalies*
    as structured records on the ``stream.bus`` logger: WARNING
    ``bus.drop`` per lost event (with the dropped event's ``trace_id``
    when it carried one) and ERROR ``bus.subscriber_error`` per raising
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
        background: bool = False,
        queue_size: int = 1024,
        policy: BackpressurePolicy = BackpressurePolicy.BLOCK,
        durable: bool = False,
    ) -> SubscriberStats:
        """Register a named subscriber; returns its live stats object.

        ``durable=True`` marks a write-ahead tap (see
        :mod:`repro.durable`): it is delivered *before* every plain
        subscriber on each publish, so the persisted log always leads
        any derived in-memory state.  Durable taps must be synchronous —
        a queue between the bus and the WAL would reorder the
        durability guarantee away.
        """
        if queue_size < 1:
            raise BusError(f"queue_size must be >= 1: {queue_size}")
        if durable and background:
            raise BusError(
                f"durable subscriber {name!r} must be synchronous "
                "(background=False)"
            )
        with self._admin:
            if self._closed:
                raise BusError("bus is closed")
            if name in self._by_name:
                raise BusError(f"duplicate subscriber name: {name!r}")
            sub = _Subscription(
                name,
                callback,
                background,
                queue_size,
                policy,
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

    def unsubscribe(self, name: str, drain: bool = True) -> None:
        """Remove a subscriber, draining its queue by default."""
        with self._admin:
            sub = self._by_name.pop(name, None)
            if sub is None:
                raise BusError(f"no such subscriber: {name!r}")
            self._subs = tuple(s for s in self._subs if s is not sub)
            self._durable_subs = tuple(
                s for s in self._durable_subs if s is not sub
            )
        sub.close(drain=drain)

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

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every background queue is empty."""
        ok = True
        for sub in self._subs:
            ok = sub.drain(timeout) and ok
        return ok

    def close(self, drain: bool = True) -> None:
        """Shut the bus down; further publishes raise :class:`BusError`."""
        with self._admin:
            if self._closed:
                return
            self._closed = True
            subs, self._subs = self._durable_subs + self._subs, ()
            self._durable_subs = ()
            self._by_name.clear()
        for sub in subs:
            sub.close(drain=drain)

    def __enter__(self) -> "EventBus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
