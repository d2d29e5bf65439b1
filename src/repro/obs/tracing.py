"""Lightweight span tracing: durations into histograms, slow spans kept.

A *span* is one timed region of code with a dotted name
(``"checkin.commit"``, ``"crawler.fetch"``, ``"store.lock"``).  The tracer
records every span's duration into one shared histogram family —
``repro_span_seconds{span="..."}`` — so latency distributions for every
instrumented hot path land in the same registry the counters live in, and
keeps an in-memory ring of the most recent *slow* spans (duration over a
configurable threshold) for post-hoc "what was the service doing when it
stalled" inspection without any log pipeline.

Usage — the caller times the region itself and records it, in a
``finally`` so a region that raised is recorded too::

    registry = MetricsRegistry()
    trace = Tracer(registry)
    started = time.perf_counter()
    try:
        ...  # the timed region
    finally:
        trace.record("checkin.commit", time.perf_counter() - started)

Span naming convention (documented in ``docs/OBSERVABILITY.md``):
``<layer>.<operation>``, lowercase, dot-separated, no per-entity values in
the name (those belong in metric labels, and span names feed a label).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from collections import deque

from repro.obs.metrics import MetricsRegistry

__all__ = ["SPAN_HISTOGRAM_NAME", "SpanRecord", "Tracer"]

#: The one histogram family every tracer records into.
SPAN_HISTOGRAM_NAME = "repro_span_seconds"

#: Spans at or above this duration enter the slow ring by default (50 ms —
#: two orders of magnitude above a healthy check-in commit).
DEFAULT_SLOW_THRESHOLD_S = 0.05

#: How many slow spans the ring retains.
DEFAULT_RING_SIZE = 128


@dataclass(frozen=True)
class SpanRecord:
    """One completed slow span."""

    #: Dotted span name (``checkin.commit``).
    name: str
    #: Measured duration, seconds.
    duration_s: float
    #: Wall-clock completion time (``time.time()``), for correlation.
    ended_at: float
    #: Trace this span belonged to (see :mod:`repro.obs.context`), when
    #: the instrumented layer propagated one — lets ``/debug/traces``
    #: link a stall back to the exact request that suffered it.
    trace_id: Optional[str] = None

    def to_dict(self) -> dict:
        """JSON-ready shape for the ``/debug/traces`` route."""
        return {
            "span": self.name,
            "duration_s": self.duration_s,
            "ended_at": self.ended_at,
            "trace_id": self.trace_id,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}: {self.duration_s * 1000.0:.1f} ms"


class Tracer:
    """Records span durations into a registry and retains slow outliers."""

    def __init__(
        self,
        registry: MetricsRegistry,
        slow_threshold_s: float = DEFAULT_SLOW_THRESHOLD_S,
        ring_size: int = DEFAULT_RING_SIZE,
    ) -> None:
        self.registry = registry
        self.slow_threshold_s = slow_threshold_s
        self._histogram = registry.histogram(
            SPAN_HISTOGRAM_NAME,
            "Duration of traced spans, by span name.",
            ("span",),
        )
        #: Per-name child cache.  Plain-dict reads are GIL-atomic, so the
        #: hot path skips the family lock ``labels()`` would take; misses
        #: fall through to ``labels()`` and publish the child back.
        self._children: Dict[str, object] = {}
        self._ring: Deque[SpanRecord] = deque(maxlen=ring_size)
        self._lock = threading.Lock()

    def record(
        self, name: str, duration: float, trace_id: Optional[str] = None
    ) -> None:
        """Record one already-measured span duration.

        Hot paths time themselves with two ``perf_counter()`` calls in a
        ``try/finally`` (the check-in commit) and hand the duration here.
        ``trace_id`` (optional, and only *read* on the slow path)
        correlates a retained slow span with the request's structured-log
        story.
        """
        child = self._children.get(name)
        if child is None:
            child = self._histogram.labels(name)
            self._children[name] = child
        child.observe(duration)
        if duration >= self.slow_threshold_s:
            self._note_slow(name, duration, trace_id)

    def _note_slow(
        self, name: str, duration: float, trace_id: Optional[str] = None
    ) -> None:
        """Retain one slow span; only the slow path ever takes this lock."""
        record = SpanRecord(
            name=name,
            duration_s=duration,
            ended_at=time.time(),
            trace_id=trace_id,
        )
        with self._lock:
            self._ring.append(record)

    # Read side ----------------------------------------------------------

    @property
    def span_count(self) -> int:
        """Total spans recorded into this tracer's registry.

        Derived from the span histogram's children (each ``observe`` is
        already counted under the child's lock), so the fast path carries
        no extra tracer-level lock.  Tracers sharing one registry share
        the histogram — and therefore this total.
        """
        return sum(
            child.count for _, child in self._histogram.children()
        )

    def recent_slow(self, limit: Optional[int] = None) -> List[SpanRecord]:
        """The most recent slow spans, oldest first.

        ``limit`` keeps the newest ``limit`` of them (``0`` keeps none; a
        negative count raises :class:`ValueError`).
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0: {limit}")
        with self._lock:
            records = list(self._ring)
        if limit is None:
            return records
        return records[max(0, len(records) - limit):]
