"""repro.durable: crash durability for the streaming detector pipeline.

Three layers, bottom up:

* :mod:`repro.durable.wal` — an append-only, length-prefixed +
  CRC-checksummed write-ahead log of :class:`~repro.stream.events.
  StreamEvent` records, with segment rotation, fsync batching, and a
  torn-tail-tolerant reader.
* :mod:`repro.durable.snapshot` — versioned, checksummed checkpoints of
  :class:`~repro.stream.ledger.SuspicionLedger` state, bounding how much
  WAL a recovery replays.
* :mod:`repro.durable.worker` / :mod:`repro.durable.partition` — N
  consistent-hash-partitioned detector workers behind one durable bus
  tap, each an independent unit of failure, which
  :meth:`PartitionedDetectorPipeline.recover_crashed` replays back to the
  exact state of an uncrashed run.

The invariant everything above rests on: the store's commit-ordered
``seq`` is the single total order of the event stream, so online
scoring, offline scoring, and WAL replay all agree — docs/DURABILITY.md
walks the full recovery protocol.
"""

from repro.durable.partition import (
    ConsistentHashRouter,
    PartitionError,
    user_key,
)
from repro.durable.snapshot import (
    SNAPSHOT_VERSION,
    Snapshot,
    SnapshotError,
    SnapshotStore,
)
from repro.durable.wal import (
    SEGMENT_MAGIC,
    WalCorruptionError,
    WalError,
    WalReader,
    WalWriter,
    decode_event,
    encode_event,
    encode_record,
)
from repro.durable.worker import (
    DetectorWorker,
    DurableWorkerError,
    PartitionedDetectorPipeline,
    cold_replay_digests,
)

__all__ = [
    "SEGMENT_MAGIC",
    "SNAPSHOT_VERSION",
    "ConsistentHashRouter",
    "DetectorWorker",
    "DurableWorkerError",
    "PartitionError",
    "PartitionedDetectorPipeline",
    "Snapshot",
    "SnapshotError",
    "SnapshotStore",
    "WalCorruptionError",
    "WalError",
    "WalReader",
    "WalWriter",
    "cold_replay_digests",
    "decode_event",
    "encode_event",
    "encode_record",
    "user_key",
]
