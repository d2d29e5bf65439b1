"""The write-ahead event log: crash-durable storage for the event stream.

The in-process :class:`~repro.stream.bus.EventBus` is fast and ephemeral:
a detector worker that dies takes its :class:`~repro.stream.ledger.
SuspicionLedger` with it, and the paper's defense silently un-flags every
cheater it had caught.  The WAL closes that gap — every event a durable
subscriber sees is appended here *before* any detector state mutates, so
recovery is a pure function of bytes on disk:

    recovered state = latest snapshot + replay of records with
    ``seq > snapshot.seq``

Record format (little-endian), one record per event::

    +----------+----------+------------------+
    | length u32 | crc32 u32 | payload bytes  |
    +----------+----------+------------------+

``payload`` is the canonical JSON encoding of one
:class:`~repro.stream.events.StreamEvent` (sorted keys, compact
separators — byte-stable across runs); ``crc32`` is computed over the
payload, so a flipped bit anywhere in the record is rejected.  Segments
open with an 8-byte magic (:data:`SEGMENT_MAGIC`) and rotate at
:data:`SEGMENT_MAX_BYTES`; a writer never appends to a pre-existing
segment (its tail may be torn), it always opens a fresh one.

The reader is torn-tail tolerant by design: a crash mid-``write`` leaves
a truncated header, a short payload, or a corrupt checksum at the very
end of the *final* segment, and :meth:`WalReader.scan` stops cleanly
there (``torn_tail`` reports what it saw).  The same damage in a
non-final segment is a mid-log gap no replay can paper over, so it
always raises :class:`WalCorruptionError` — silently skipping interior
records would desynchronise every seq-ordered consumer downstream.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import time
import zlib
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.geo.coordinates import GeoPoint
from repro.obs.metrics import MetricsRegistry
from repro.stream.events import (
    CheckInAccepted,
    CheckInFlagged,
    CheckInRejected,
    MayorChanged,
    StreamEvent,
    UserRegistered,
    VenueCreated,
)

#: First 8 bytes of every segment file; the trailing digit is the format
#: version (docs/DURABILITY.md documents the layout; a parity test keeps
#: the doc and this constant identical).
SEGMENT_MAGIC = b"RWALSEG1"

#: ``<length u32><crc32 u32>`` record header.
_RECORD_HEADER = struct.Struct("<II")

#: Hard ceiling on a single record's payload, far above any real event;
#: the writer refuses a bigger one, and the reader treats a length field
#: past it as corruption, not a huge record.
MAX_RECORD_BYTES = 1 << 20

#: A writer rotates to a new segment once the current one would pass this.
SEGMENT_MAX_BYTES = 1 << 20

#: A writer fsyncs every this many appends, and on rotation and close.
FSYNC_EVERY = 64


class WalError(ReproError):
    """Misuse of the WAL API (unknown event type, closed writer...)."""


class WalCorruptionError(WalError):
    """A record failed its checksum or framing *inside* the log."""


# ---------------------------------------------------------------------------
# Record codec
# ---------------------------------------------------------------------------

#: Wire tag ↔ event type.  Tags are part of the on-disk format: never
#: renumber, only append.
_TAG_TO_TYPE = {
    "user": UserRegistered,
    "venue": VenueCreated,
    "accept": CheckInAccepted,
    "flag": CheckInFlagged,
    "reject": CheckInRejected,
    "mayor": MayorChanged,
}
_TYPE_TO_TAG = {cls: tag for tag, cls in _TAG_TO_TYPE.items()}

#: Event fields holding a :class:`GeoPoint` (encoded as [lat, lon]).
_GEO_FIELDS = frozenset({"venue_location", "reported_location", "location"})


def encode_event(event: StreamEvent) -> bytes:
    """Serialize one event to its canonical payload bytes.

    The encoding is byte-stable (sorted keys, compact separators) so the
    same event always produces the same record — which is what lets the
    chaos-style digest comparisons treat WAL bytes as a witness.
    """
    tag = _TYPE_TO_TAG.get(type(event))
    if tag is None:
        raise WalError(f"unknown event type: {type(event).__name__}")
    doc = {"t": tag}
    for field in dataclasses.fields(event):
        value = getattr(event, field.name)
        if field.name in _GEO_FIELDS and value is not None:
            value = [value.latitude, value.longitude]
        doc[field.name] = value
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def decode_event(payload: bytes) -> StreamEvent:
    """Rebuild the event a payload encodes (inverse of :func:`encode_event`)."""
    try:
        doc = json.loads(payload)
        tag = doc.pop("t")
        cls = _TAG_TO_TYPE[tag]
        for name in _GEO_FIELDS & doc.keys():
            if doc[name] is not None:
                doc[name] = GeoPoint(doc[name][0], doc[name][1])
        return cls(**doc)
    except WalError:
        raise
    except Exception as exc:
        raise WalCorruptionError(
            f"undecodable WAL payload ({type(exc).__name__}: {exc})"
        ) from exc


def encode_record(event: StreamEvent) -> bytes:
    """One full framed record: header + payload."""
    payload = encode_event(event)
    return _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class _WalMetrics:
    """Exported WAL telemetry (shared by writer and reader)."""

    __slots__ = ("appends", "bytes_written", "fsyncs", "fsync_seconds",
                 "segments", "replayed", "torn_tails")

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.appends = metrics.counter(
            "repro_wal_appends_total",
            "Events appended to write-ahead log segments.",
        ).child()
        self.bytes_written = metrics.counter(
            "repro_wal_bytes_written_total",
            "Bytes written to write-ahead log segments.",
        ).child()
        self.fsyncs = metrics.counter(
            "repro_wal_fsyncs_total",
            "fsync(2) calls issued by WAL writers (batching knob).",
        ).child()
        self.fsync_seconds = metrics.histogram(
            "repro_wal_fsync_seconds",
            "Wall time per WAL fsync batch (flush + fsync).",
        ).child()
        self.segments = metrics.counter(
            "repro_wal_segments_opened_total",
            "WAL segment files opened for writing.",
        ).child()
        self.replayed = metrics.counter(
            "repro_wal_replayed_events_total",
            "Events decoded and yielded by WAL replay scans.",
        ).child()
        self.torn_tails = metrics.counter(
            "repro_wal_torn_tails_total",
            "Replay scans that stopped at a torn or truncated tail.",
        ).child()


class WalWriter:
    """Append-only, segment-rotating event log writer.

    Parameters
    ----------
    directory:
        Segment directory (created if missing).  An existing log is
        *continued*: the writer opens a fresh segment after the highest
        existing index rather than appending to a possibly-torn tail.

    Segments rotate at :data:`SEGMENT_MAX_BYTES`, and the writer fsyncs
    every :data:`FSYNC_EVERY` appends, on rotation and on :meth:`close`.
    """

    def __init__(
        self,
        directory: os.PathLike,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._metrics = _WalMetrics(metrics) if metrics is not None else None
        self.appended = 0
        self.bytes_written = 0
        self.fsyncs = 0
        self._since_sync = 0
        self._segment_bytes = 0
        self._file = None
        self.segments_opened = 0
        existing = _segment_indices(self.directory)
        self._next_index = (existing[-1] + 1) if existing else 0
        self._closed = False

    # Segment management ----------------------------------------------

    def _open_segment(self) -> None:
        path = self.directory / _segment_name(self._next_index)
        self._next_index += 1
        self._file = open(path, "xb")
        self._file.write(SEGMENT_MAGIC)
        self._segment_bytes = len(SEGMENT_MAGIC)
        self.bytes_written += len(SEGMENT_MAGIC)
        self.segments_opened += 1
        if self._metrics is not None:
            self._metrics.segments.inc()
            self._metrics.bytes_written.inc(len(SEGMENT_MAGIC))

    # Appending --------------------------------------------------------

    def append(self, event: StreamEvent) -> int:
        """Frame, checksum, and append one event; returns bytes written.

        The append is buffered; durability comes from the batched fsync
        every :data:`FSYNC_EVERY` appends and from :meth:`sync`.  A
        payload over :data:`MAX_RECORD_BYTES` raises :class:`WalError`
        and writes nothing: the reader could never read it back.
        """
        if self._closed:
            raise WalError("append on a closed WalWriter")
        record = encode_record(event)
        payload_bytes = len(record) - _RECORD_HEADER.size
        if payload_bytes > MAX_RECORD_BYTES:
            raise WalError(
                f"{type(event).__name__} payload of {payload_bytes} bytes "
                f"exceeds MAX_RECORD_BYTES ({MAX_RECORD_BYTES})"
            )
        if (
            self._file is None
            or self._segment_bytes + len(record) > SEGMENT_MAX_BYTES
        ):
            self._rotate()
        self._file.write(record)
        self._file.flush()
        self._segment_bytes += len(record)
        self.bytes_written += len(record)
        self.appended += 1
        if self._metrics is not None:
            self._metrics.appends.inc()
            self._metrics.bytes_written.inc(len(record))
        self._since_sync += 1
        if self._since_sync >= FSYNC_EVERY:
            self.sync()
        return len(record)

    def _rotate(self) -> None:
        if self._file is not None:
            self.sync()
            self._file.close()
        self._open_segment()

    def sync(self) -> None:
        """Force the current segment to stable storage now."""
        if self._file is not None and self._since_sync > 0:
            started = time.perf_counter()
            self._file.flush()
            os.fsync(self._file.fileno())
            self.fsyncs += 1
            self._since_sync = 0
            if self._metrics is not None:
                self._metrics.fsyncs.inc()
                self._metrics.fsync_seconds.observe(
                    time.perf_counter() - started
                )

    def close(self) -> None:
        """Sync and close; further appends raise."""
        if self._closed:
            return
        self.sync()
        if self._file is not None:
            self._file.close()
            self._file = None
        self._closed = True

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


def _segment_name(index: int) -> str:
    return f"{index:08d}.wal"


def _segment_indices(directory: Path) -> List[int]:
    if not directory.is_dir():
        return []
    indices = []
    for path in directory.iterdir():
        stem, dot, ext = path.name.partition(".")
        if ext == "wal" and stem.isdigit():
            indices.append(int(stem))
    return sorted(indices)


class WalReader:
    """Sequential scan over every segment of one WAL directory.

    After a :meth:`scan` is exhausted, :attr:`torn_tail` reports whether
    the log ended in a torn/truncated record (and :attr:`tail_error`
    says what exactly was wrong with it).  Interior damage — a bad
    record with more log after it — raises :class:`WalCorruptionError`.
    """

    def __init__(
        self,
        directory: os.PathLike,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.directory = Path(directory)
        self._metrics = _WalMetrics(metrics) if metrics is not None else None
        self.torn_tail = False
        self.tail_error: Optional[str] = None

    def scan(self, after_seq: int = -1) -> Iterator[StreamEvent]:
        """Yield events in log order, skipping ``seq <= after_seq``.

        ``after_seq`` is the snapshot handoff: recovery passes
        ``snapshot.seq`` and receives exactly the suffix it must replay.
        """
        self.torn_tail = False
        self.tail_error = None
        indices = _segment_indices(self.directory)
        for position, index in enumerate(indices):
            final_segment = position == len(indices) - 1
            path = self.directory / _segment_name(index)
            for event, problem in self._scan_segment(path):
                if problem is not None:
                    if not final_segment:
                        raise WalCorruptionError(
                            f"{path.name}: {problem} (mid-log)"
                        )
                    self.torn_tail = True
                    self.tail_error = f"{path.name}: {problem}"
                    if self._metrics is not None:
                        self._metrics.torn_tails.inc()
                    return
                if self._metrics is not None:
                    self._metrics.replayed.inc()
                if event.seq > after_seq:
                    yield event

    def _scan_segment(
        self, path: Path
    ) -> Iterator[Tuple[Optional[StreamEvent], Optional[str]]]:
        """Yield ``(event, None)`` per good record, ``(None, problem)`` once
        at the first bad one (then stop)."""
        with open(path, "rb") as handle:
            magic = handle.read(len(SEGMENT_MAGIC))
            if len(magic) < len(SEGMENT_MAGIC):
                # A zero-byte or header-short segment: the writer died
                # between creating the file and writing its magic.
                if magic:
                    yield None, "short segment header"
                return
            if magic != SEGMENT_MAGIC:
                raise WalCorruptionError(
                    f"{path.name}: bad segment magic {magic!r}"
                )
            while True:
                header = handle.read(_RECORD_HEADER.size)
                if not header:
                    return
                if len(header) < _RECORD_HEADER.size:
                    yield None, "torn record header"
                    return
                length, crc = _RECORD_HEADER.unpack(header)
                if length > MAX_RECORD_BYTES:
                    yield None, f"implausible record length {length}"
                    return
                payload = handle.read(length)
                if len(payload) < length:
                    yield None, "torn record payload"
                    return
                if zlib.crc32(payload) != crc:
                    yield None, "checksum mismatch"
                    return
                yield decode_event(payload), None

    def read_all(self, after_seq: int = -1) -> List[StreamEvent]:
        """Materialised :meth:`scan` for tests and small logs."""
        return list(self.scan(after_seq=after_seq))

    def segment_count(self) -> int:
        """How many segment files the directory currently holds."""
        return len(_segment_indices(self.directory))


__all__ = [
    "FSYNC_EVERY",
    "MAX_RECORD_BYTES",
    "SEGMENT_MAGIC",
    "SEGMENT_MAX_BYTES",
    "WalCorruptionError",
    "WalError",
    "WalReader",
    "WalWriter",
    "decode_event",
    "encode_event",
    "encode_record",
]
