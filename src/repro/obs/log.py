"""Dependency-free, thread-safe structured JSONL logging.

Metrics (PR 2) answer "how many / how fast"; the log answers "what
happened to *this* request".  Every instrumented layer emits structured
records — an event name plus typed fields, one JSON object per line —
into a shared :class:`LogHub` that keeps a bounded in-memory ring.
Because every record carries the request's ``trace_id`` (see
:mod:`repro.obs.context`), one grep of the exported JSONL reconstructs a
check-in's whole life: verify → commit → publish → detect → flag.

Design constraints, matching the rest of :mod:`repro.obs`:

1. **Zero cost when absent.**  Components take ``log: Optional[LogHub]``
   and skip everything when ``None``.
2. **Cheap when present.**  The hot path builds one small dict and
   packs one tuple into a preallocated ring slot — :class:`LogRecord`
   construction and JSON serialisation are both *lazy* (materialised at
   read time, not at record time), which is what keeps the E21 bench
   under its 5% bar.  A record below its logger's level costs one
   integer compare.
3. **Thread-safe.**  The ring append runs under one hub lock.
4. **No dependencies.**  ``json`` + ``threading`` + ``time`` only.

Levels are integers mirroring :mod:`logging` (DEBUG=10 … ERROR=40).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import ReproError

__all__ = [
    "DEBUG",
    "INFO",
    "WARNING",
    "ERROR",
    "LEVEL_NAMES",
    "LogError",
    "LogRecord",
    "LogHub",
    "StructuredLogger",
    "level_name",
]


class LogError(ReproError):
    """Misuse of the logging API (bad levels, bad ring sizes, bad limits)."""


DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40

LEVEL_NAMES: Dict[int, str] = {
    DEBUG: "debug",
    INFO: "info",
    WARNING: "warning",
    ERROR: "error",
}

_NAME_TO_LEVEL = {name: lvl for lvl, name in LEVEL_NAMES.items()}


def level_name(level: int) -> str:
    """Canonical lowercase name for a level (``"info"``), or the number."""
    return LEVEL_NAMES.get(level, str(level))


def _coerce_level(level) -> int:
    if isinstance(level, str):
        try:
            return _NAME_TO_LEVEL[level.lower()]
        except KeyError:
            raise LogError(f"unknown log level: {level!r}") from None
    return int(level)


def _jsonable(value: Any) -> Any:
    """Fallback serializer: never let one odd field kill an export line."""
    return repr(value)


class LogRecord:
    """One structured log record.

    Serialisation is deferred: the record holds its parts, and
    :meth:`to_json` renders the line on demand.  Key order in the output
    is fixed (``ts``, ``level``, ``logger``, ``event``, then fields in
    insertion order) so lines diff and grep predictably.
    """

    __slots__ = ("ts", "level", "logger", "event", "fields")

    def __init__(
        self,
        ts: float,
        level: int,
        logger: str,
        event: str,
        fields: Dict[str, Any],
    ) -> None:
        self.ts = ts
        self.level = level
        self.logger = logger
        self.event = event
        self.fields = fields

    @property
    def trace_id(self) -> Optional[str]:
        """The record's trace correlation key, if any."""
        return self.fields.get("trace_id")

    def to_dict(self) -> Dict[str, Any]:
        """The record as one flat JSON-ready mapping."""
        out: Dict[str, Any] = {
            "ts": self.ts,
            "level": level_name(self.level),
            "logger": self.logger,
            "event": self.event,
        }
        out.update(self.fields)
        return out

    def to_json(self) -> str:
        """The record as one JSONL line (no trailing newline)."""
        return json.dumps(
            self.to_dict(), separators=(",", ":"), default=_jsonable
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LogRecord({level_name(self.level)} {self.logger} "
            f"{self.event} {self.fields!r})"
        )


class StructuredLogger:
    """A named logger bound to a hub, with its own level.

    Obtained via :meth:`LogHub.logger`; loggers are cached per name so
    every component naming ``"lbsn.service"`` shares one instance (and
    one level).
    """

    __slots__ = ("name", "hub", "level")

    def __init__(self, name: str, hub: "LogHub") -> None:
        self.name = name
        self.hub = hub
        self.level: Optional[int] = None  # None → inherit the hub level.

    # Configuration -----------------------------------------------------

    def set_level(self, level) -> "StructuredLogger":
        """Override this logger's threshold (None reverts to the hub's)."""
        self.level = None if level is None else _coerce_level(level)
        return self

    # Emission ----------------------------------------------------------

    def enabled_for(self, level: int) -> bool:
        """Would a record at ``level`` pass this logger's threshold?"""
        threshold = self.level if self.level is not None else self.hub.level
        return level >= threshold

    def _log(self, level: int, event: str, fields: Dict[str, Any]) -> bool:
        """Emit one record; returns True when it was kept.

        The fast-rejection path (level below threshold) is one attribute
        read and one compare — cheap enough to leave DEBUG calls on hot
        paths unconditionally.  Takes ownership of ``fields`` (a fresh
        kwargs dict at every call site) — avoiding a second ``**``-repack
        is a measurable slice of the E21 budget.
        """
        hub = self.hub
        threshold = self.level if self.level is not None else hub.level
        if level < threshold:
            return False
        hub._emit(time.time(), level, self.name, event, fields)
        return True

    def debug(self, event: str, **fields: Any) -> bool:
        """Emit at DEBUG."""
        return self._log(DEBUG, event, fields)

    def info(self, event: str, **fields: Any) -> bool:
        """Emit at INFO."""
        return self._log(INFO, event, fields)

    def warning(self, event: str, **fields: Any) -> bool:
        """Emit at WARNING."""
        return self._log(WARNING, event, fields)

    def error(self, event: str, **fields: Any) -> bool:
        """Emit at ERROR."""
        return self._log(ERROR, event, fields)


class LogHub:
    """Bounded record ring shared by every logger in a process.

    Parameters
    ----------
    ring_size:
        How many most-recent records the in-memory ring retains.  The
        ring is the ``/debug/logs`` data source and the integration
        test's flight recorder; older records fall off silently (the
        ``dropped`` counter says how many).
    level:
        Default threshold for loggers without their own override.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when set,
        kept records are counted in
        ``repro_log_records_total{logger,level}``.
    """

    def __init__(
        self,
        ring_size: int = 4096,
        level: int = INFO,
        metrics=None,
    ) -> None:
        if ring_size < 1:
            raise LogError(f"ring_size must be >= 1: {ring_size}")
        self.ring_size = ring_size
        self.level = _coerce_level(level)
        self._lock = threading.Lock()
        #: Ring of (ts, level, logger, event, fields) tuples; LogRecord
        #: objects are materialised on read (see :meth:`_emit`).
        self._ring: List[Optional[tuple]] = [None] * ring_size
        self._next = 0  # total records ever kept (ring head = _next - 1)
        self._loggers: Dict[str, StructuredLogger] = {}
        self._records_metric = None
        #: Pre-bound counter children keyed by (logger, level): the
        #: ``labels()`` resolution costs a tuple build plus a family-lock
        #: acquisition, which is too much to pay on every kept record.
        self._metric_children: Dict[tuple, Any] = {}
        if metrics is not None:
            self._records_metric = metrics.counter(
                "repro_log_records_total",
                "Structured log records kept, by logger and level.",
                ("logger", "level"),
            )

    # Logger management -------------------------------------------------

    def logger(self, name: str, level=None) -> StructuredLogger:
        """The (cached) logger registered under ``name``.

        ``level`` applies on first creation *or* re-configures an
        existing logger when passed explicitly — so tests can turn one
        subsystem to DEBUG without touching the rest.
        """
        with self._lock:
            logger = self._loggers.get(name)
            if logger is None:
                logger = StructuredLogger(name, self)
                self._loggers[name] = logger
        if level is not None:
            logger.set_level(level)
        return logger

    def set_level(self, level) -> None:
        """Change the hub-wide default threshold."""
        self.level = _coerce_level(level)

    def logger_names(self) -> List[str]:
        """Names of every logger created so far, sorted."""
        with self._lock:
            return sorted(self._loggers)

    # Emission ------------------------------------------------------------

    def _emit(
        self,
        ts: float,
        level: int,
        logger: str,
        event: str,
        fields: Dict[str, Any],
    ) -> None:
        # The ring stores bare 5-tuples, not LogRecord objects: record
        # construction is deferred to the (cold) read side, so the hot
        # path pays one tuple pack.
        with self._lock:
            self._ring[self._next % self.ring_size] = (
                ts, level, logger, event, fields,
            )
            self._next += 1
        if self._records_metric is not None:
            # Dict get on a tuple key is GIL-atomic; a racy first miss
            # just resolves the same child twice (labels() caches).
            key = (logger, level)
            child = self._metric_children.get(key)
            if child is None:
                child = self._records_metric.labels(
                    logger, level_name(level)
                )
                self._metric_children[key] = child
            child.inc()

    # Read side -----------------------------------------------------------

    @property
    def emitted(self) -> int:
        """Total records kept since construction (ring + fallen-off)."""
        with self._lock:
            return self._next

    @property
    def dropped(self) -> int:
        """Kept records that have since fallen off the ring."""
        with self._lock:
            return max(0, self._next - self.ring_size)

    def __len__(self) -> int:
        with self._lock:
            return min(self._next, self.ring_size)

    def records(
        self,
        trace_id: Optional[str] = None,
        logger: Optional[str] = None,
        event: Optional[str] = None,
        min_level: int = 0,
        limit: Optional[int] = None,
    ) -> List[LogRecord]:
        """Ring contents, oldest first, optionally filtered.

        ``limit`` keeps the *newest* matches (``0`` keeps none; a
        negative count raises :class:`LogError`).  This is the query
        behind ``GET /debug/logs?trace_id=`` — the one-grep trace
        reconstruction the module docstring promises.
        """
        if limit is not None and limit < 0:
            raise LogError(f"limit must be >= 0: {limit}")
        with self._lock:
            if self._next <= self.ring_size:
                snapshot = [
                    r for r in self._ring[: self._next] if r is not None
                ]
            else:
                head = self._next % self.ring_size
                snapshot = [
                    r
                    for r in self._ring[head:] + self._ring[:head]
                    if r is not None
                ]
        out = [
            record
            for record in (LogRecord(*entry) for entry in snapshot)
            if (trace_id is None or record.trace_id == trace_id)
            and (logger is None or record.logger == logger)
            and (event is None or record.event == event)
            and record.level >= min_level
        ]
        if limit is not None:
            out = out[max(0, len(out) - limit):]
        return out

    def export_jsonl(self, records: Optional[Iterable[LogRecord]] = None) -> str:
        """Render records (default: the whole ring) as JSONL text."""
        if records is None:
            records = self.records()
        return "".join(record.to_json() + "\n" for record in records)
