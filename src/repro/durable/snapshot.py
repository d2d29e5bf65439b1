"""Versioned, checksummed snapshots of :class:`SuspicionLedger` state.

A snapshot bounds recovery time: instead of replaying the WAL from seq 0,
a restarted worker loads the newest snapshot and replays only records
with ``seq > snapshot.seq``.  The E23 bench measures exactly that trade
(recovery time vs. replayed WAL length vs. snapshot cadence).

File format — two JSON documents, header line then body::

    {"format": "repro-snapshot", "version": 2,
     "checksum": "<sha256 of body bytes>", "length": <len(body)>}\\n
    <body bytes>

The body carries the snapshot version again (belt and braces: the header
can be regenerated, the body is what the checksum guards), the ``seq``
watermark, the owning partition, the ledger's
:class:`~repro.analysis.detection.DetectorConfig` (so a restore scores
with the thresholds the state was built under), and the full ledger state
dict.  Writes are atomic — temp file + fsync + ``os.replace`` — so a
crash mid-snapshot leaves the previous snapshot intact and at worst a
stray ``.tmp`` file.

Snapshots are named ``snapshot-<seq:012d>.json`` so the newest one is
simply the lexicographically greatest file; superseded snapshots are left
in place (they are small, and keeping them makes the recovery-time curve
in E23 reproducible from any cadence point).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import List, Optional

from repro.analysis.detection import DetectorConfig
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.stream.ledger import SuspicionLedger

#: Bumped whenever the body layout changes incompatibly.
SNAPSHOT_VERSION = 2

_FORMAT = "repro-snapshot"


class SnapshotError(ReproError):
    """A snapshot could not be written, located, or validated."""


@dataclasses.dataclass
class Snapshot:
    """One decoded snapshot: the ledger state as of ``seq``."""

    version: int
    seq: int
    partition: int
    detector_config: dict
    ledger_state: dict

    def make_ledger(
        self,
        metrics: Optional[MetricsRegistry] = None,
        log=None,
    ) -> SuspicionLedger:
        """A fresh ledger carrying this snapshot's config and state."""
        ledger = SuspicionLedger(
            config=DetectorConfig(**self.detector_config),
            metrics=metrics,
            log=log,
        )
        ledger.load_state_dict(self.ledger_state)
        return ledger


class _SnapshotMetrics:
    __slots__ = ("writes", "loads", "bytes_written")

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.writes = metrics.counter(
            "repro_snapshot_writes_total",
            "Ledger snapshots written to disk.",
        ).child()
        self.loads = metrics.counter(
            "repro_snapshot_loads_total",
            "Ledger snapshots loaded and checksum-verified.",
        ).child()
        self.bytes_written = metrics.counter(
            "repro_snapshot_bytes_written_total",
            "Bytes written to snapshot files (body + header).",
        ).child()


class SnapshotStore:
    """Reads and writes snapshots in one directory (one per partition)."""

    def __init__(
        self,
        directory: os.PathLike,
        partition: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.partition = partition
        self._metrics = (
            _SnapshotMetrics(metrics) if metrics is not None else None
        )
        self.writes = 0
        self.loads = 0

    # Writing -----------------------------------------------------------

    def write(self, ledger: SuspicionLedger, seq: int) -> Path:
        """Persist ``ledger`` as the state up to and including ``seq``."""
        if seq < 0:
            raise SnapshotError(f"snapshot seq must be >= 0: {seq}")
        body = json.dumps(
            {
                "version": SNAPSHOT_VERSION,
                "seq": seq,
                "partition": self.partition,
                "detector_config": dataclasses.asdict(ledger.config),
                "ledger_state": ledger.state_dict(),
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
        header = json.dumps(
            {
                "format": _FORMAT,
                "version": SNAPSHOT_VERSION,
                "checksum": hashlib.sha256(body).hexdigest(),
                "length": len(body),
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
        path = self.directory / f"snapshot-{seq:012d}.json"
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "wb") as handle:
            handle.write(header + b"\n" + body)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self.writes += 1
        if self._metrics is not None:
            self._metrics.writes.inc()
            self._metrics.bytes_written.inc(len(header) + 1 + len(body))
        return path

    # Reading -----------------------------------------------------------

    def list_seqs(self) -> List[int]:
        """Watermarks of every snapshot present, oldest first."""
        seqs = []
        for path in self.directory.iterdir():
            name = path.name
            if (
                name.startswith("snapshot-")
                and name.endswith(".json")
                and name[9:-5].isdigit()
            ):
                seqs.append(int(name[9:-5]))
        return sorted(seqs)

    def load(self, seq: int) -> Snapshot:
        """Load and checksum-verify the snapshot taken at ``seq``."""
        path = self.directory / f"snapshot-{seq:012d}.json"
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
        newline = raw.find(b"\n")
        if newline < 0:
            raise SnapshotError(f"{path.name}: missing header line")
        try:
            header = json.loads(raw[:newline])
        except ValueError as exc:
            raise SnapshotError(f"{path.name}: bad header: {exc}") from exc
        if header.get("format") != _FORMAT:
            raise SnapshotError(
                f"{path.name}: not a snapshot file "
                f"(format={header.get('format')!r})"
            )
        if header.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"{path.name}: unsupported snapshot version "
                f"{header.get('version')!r} (want {SNAPSHOT_VERSION})"
            )
        body = raw[newline + 1:]
        if len(body) != header.get("length"):
            raise SnapshotError(
                f"{path.name}: truncated body "
                f"({len(body)} bytes, header says {header.get('length')})"
            )
        digest = hashlib.sha256(body).hexdigest()
        if digest != header.get("checksum"):
            raise SnapshotError(f"{path.name}: body checksum mismatch")
        doc = json.loads(body)
        self.loads += 1
        if self._metrics is not None:
            self._metrics.loads.inc()
        return Snapshot(
            version=doc["version"],
            seq=doc["seq"],
            partition=doc["partition"],
            detector_config=doc["detector_config"],
            ledger_state=doc["ledger_state"],
        )

    def latest(self) -> Optional[Snapshot]:
        """The newest valid-named snapshot, or ``None`` if none exist."""
        seqs = self.list_seqs()
        if not seqs:
            return None
        return self.load(seqs[-1])


__all__ = [
    "SNAPSHOT_VERSION",
    "Snapshot",
    "SnapshotError",
    "SnapshotStore",
]
