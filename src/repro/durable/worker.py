"""Partitioned, crash-replayable detector workers over the event bus.

One :class:`DetectorWorker` per partition, each owning three things:

* a :class:`~repro.durable.wal.WalWriter` — its shard of the durable
  event log (appended *before* any detector state mutates);
* a :class:`~repro.stream.ledger.SuspicionLedger` — the in-memory shard
  of scoring state, rebuilt from disk after a crash;
* a :class:`~repro.durable.snapshot.SnapshotStore` — periodic checkpoints
  bounding how much WAL a recovery must replay.

Crash semantics (the contract the parity tests prove): a worker killed
via :data:`~repro.faults.points.POINT_DURABLE_WORKER` loses its ledger
*instantly* — the event that fired, and every later event routed to the
partition, reaches the WAL but not the dead ledger.  Because the WAL
append happens first and the store's commit-ordered ``seq`` is the
single total order across partitions, recovery (latest snapshot + replay
of ``seq > snapshot.seq``) deterministically catches back up: the
recovered shard's digest equals an uncrashed run's, byte for byte.

The :class:`PartitionedDetectorPipeline` is the bus-facing assembly — a
consistent-hash router in front of N workers behind one durable bus tap —
and the :class:`RecoveryCoordinator` is the supervisor that notices dead
workers and brings them back.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from pathlib import Path
from typing import List, Optional

from repro.analysis.detection import DetectorConfig
from repro.durable.partition import ConsistentHashRouter
from repro.durable.snapshot import SnapshotStore
from repro.durable.wal import WalReader, WalWriter
from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.points import POINT_DURABLE_WORKER
from repro.obs.log import LogHub
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import ProfiledSection, SamplingProfiler
from repro.obs.tracing import Tracer
from repro.stream.bus import EventBus
from repro.stream.events import StreamEvent
from repro.stream.ledger import SuspicionLedger


class DurableWorkerError(ReproError):
    """Misuse of the worker layer (reading a crashed shard, bad args)."""


class _WorkerMetrics:
    """Per-partition labeled counters for the worker life cycle."""

    __slots__ = ("crashes", "recoveries", "applied", "replay_lag")

    def __init__(self, metrics: MetricsRegistry, label: str) -> None:
        self.crashes = metrics.counter(
            "repro_durable_worker_crashes_total",
            "Detector worker crashes (injected or genuine), by partition.",
            ("partition",),
        ).labels(label)
        self.recoveries = metrics.counter(
            "repro_durable_recoveries_total",
            "Detector worker snapshot+replay recoveries, by partition.",
            ("partition",),
        ).labels(label)
        self.applied = metrics.counter(
            "repro_durable_events_applied_total",
            "Events applied to a live detector shard, by partition.",
            ("partition",),
        ).labels(label)
        self.replay_lag = metrics.gauge(
            "repro_durable_replay_lag_events",
            "Events WAL-appended but not yet applied to the live shard "
            "(grows while a worker is down, drops to 0 on recovery).",
            ("partition",),
        ).labels(label)


class DetectorWorker:
    """One partition's WAL + ledger shard + snapshot checkpoints.

    Parameters
    ----------
    partition:
        This worker's index; names the WAL/snapshot subtree and the
        fault label (``partition-NN``).
    base_dir:
        Root directory; the worker owns ``<base_dir>/partition-NN/``.
    snapshot_every:
        Write a checkpoint every N applied events (0 = only on demand) —
        the cadence knob the E23 sweep turns.
    faults:
        Optional injector consulted at ``durable.worker`` per applied
        event, *after* the WAL append: a fired fault crashes this worker.
    """

    def __init__(
        self,
        partition: int,
        base_dir,
        config: Optional[DetectorConfig] = None,
        snapshot_every: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        log: Optional[LogHub] = None,
        faults: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if snapshot_every < 0:
            raise DurableWorkerError(
                f"snapshot_every must be >= 0: {snapshot_every}"
            )
        self.partition = partition
        self.label = f"partition-{partition:02d}"
        self.config = config or DetectorConfig()
        self.snapshot_every = snapshot_every
        root = Path(base_dir) / self.label
        self.wal_dir = root / "wal"
        self.wal = WalWriter(self.wal_dir, metrics=metrics)
        self.snapshots = SnapshotStore(
            root / "snapshots", partition=partition, metrics=metrics
        )
        self._registry = metrics
        self._log = log
        self._logger = (
            log.logger("durable.worker") if log is not None else None
        )
        self.faults = faults
        self.tracer = tracer
        self.ledger: Optional[SuspicionLedger] = self._fresh_ledger()
        self.crashed = False
        self.last_applied_seq = -1
        self.events_applied = 0
        self.recoveries = 0
        self.replayed_events = 0
        self.replay_lag = 0
        self._since_snapshot = 0
        self._metrics = (
            _WorkerMetrics(metrics, self.label)
            if metrics is not None
            else None
        )

    def _fresh_ledger(self) -> SuspicionLedger:
        # Shard ledgers never take the registry: the ledger's label-less
        # suspects gauge would be stomped by whichever shard wrote last,
        # and the plain-workload metric catalogue must not grow N copies.
        return SuspicionLedger(config=self.config, log=self._log)

    # Intake ------------------------------------------------------------

    def on_event(self, event: StreamEvent) -> None:
        """Durably log one event, then (if alive) apply it to the shard.

        The append *always* happens — it models the durable intake path
        that outlives the worker process — so a crashed worker keeps
        accumulating replayable history while its ledger is gone.
        """
        self.wal.append(event)
        if self.crashed:
            self.replay_lag += 1
            if self._metrics is not None:
                self._metrics.replay_lag.set(self.replay_lag)
            return
        try:
            if self.faults is not None:
                self.faults.check(
                    POINT_DURABLE_WORKER,
                    label=self.label,
                    trace_id=getattr(event, "trace_id", None),
                )
            self.ledger.on_event(event)
        except Exception as exc:  # noqa: BLE001 - any apply failure is a
            self._crash(event, exc)  # worker death, not a skipped event.
            return
        self.last_applied_seq = event.seq
        self.events_applied += 1
        if self._metrics is not None:
            self._metrics.applied.inc()
        if self.snapshot_every:
            self._since_snapshot += 1
            if self._since_snapshot >= self.snapshot_every:
                self.snapshot()

    def _crash(self, event: StreamEvent, exc: Exception) -> None:
        self.crashed = True
        self.ledger = None  # the in-memory shard dies with the worker
        self.replay_lag += 1  # the fatal event reached the WAL, not the shard
        if self._metrics is not None:
            self._metrics.crashes.inc()
            self._metrics.replay_lag.set(self.replay_lag)
        if self._logger is not None:
            self._logger.error(
                "durable.worker_crash",
                partition=self.label,
                seq=event.seq,
                error=f"{type(exc).__name__}: {exc}",
                trace_id=getattr(event, "trace_id", None),
            )

    # Checkpoints -------------------------------------------------------

    def snapshot(self):
        """Checkpoint the live shard at its current watermark."""
        if self.crashed or self.ledger is None:
            raise DurableWorkerError(
                f"{self.label}: cannot snapshot a crashed worker"
            )
        if self.last_applied_seq < 0:
            return None  # nothing applied yet; nothing worth persisting
        path = self.snapshots.write(self.ledger, self.last_applied_seq)
        self._since_snapshot = 0
        if self._logger is not None:
            self._logger.info(
                "durable.snapshot",
                partition=self.label,
                seq=self.last_applied_seq,
                path=str(path),
            )
        return path

    # Recovery ----------------------------------------------------------

    def recover(self) -> int:
        """Rebuild the shard from disk; returns events replayed.

        Load the newest snapshot (if any), then replay every WAL record
        with ``seq > snapshot.seq`` — the recovery protocol
        docs/DURABILITY.md specifies.  Safe to call on a live worker too
        (it proves the cold-start path equals the warm state).
        """
        span = (
            self.tracer.span("durable.replay")
            if self.tracer is not None
            else contextlib.nullcontext()
        )
        with span:
            snapshot = self.snapshots.latest()
            if snapshot is not None:
                ledger = snapshot.make_ledger(log=self._log)
                after_seq = snapshot.seq
            else:
                ledger = self._fresh_ledger()
                after_seq = -1
            self.wal.sync()
            reader = WalReader(self.wal_dir, metrics=self._registry)
            replayed = 0
            for event in reader.scan(after_seq=after_seq):
                ledger.on_event(event)
                if event.seq > after_seq:
                    after_seq = event.seq
                replayed += 1
        self.ledger = ledger
        self.crashed = False
        self.last_applied_seq = max(after_seq, snapshot.seq if snapshot else -1)
        self.events_applied += replayed
        self.recoveries += 1
        self.replayed_events += replayed
        self.replay_lag = 0
        self._since_snapshot = 0
        if self._metrics is not None:
            self._metrics.recoveries.inc()
            self._metrics.replay_lag.set(0)
        if self._logger is not None:
            self._logger.info(
                "durable.recovered",
                partition=self.label,
                replayed=replayed,
                from_snapshot=snapshot.seq if snapshot is not None else None,
                watermark=self.last_applied_seq,
            )
        return replayed

    def digest(self) -> str:
        """The live shard's trace-scrubbed state digest."""
        if self.ledger is None:
            raise DurableWorkerError(
                f"{self.label}: crashed shard has no digest; recover first"
            )
        return self.ledger.digest()

    def close(self) -> None:
        """Flush and close the WAL segment."""
        self.wal.close()


class PartitionedDetectorPipeline:
    """N detector workers behind one consistent-hash router + bus tap.

    Routing: events carrying a user key go to exactly one worker;
    keyless events (venue creation, mayor flips) are broadcast.  With
    ``partitions=1`` the pipeline is semantically identical to a single
    :class:`SuspicionLedger` on the bus — a parity test pins that.
    """

    SUBSCRIBER_NAME = "durable-pipeline"

    def __init__(
        self,
        partitions: int,
        base_dir,
        config: Optional[DetectorConfig] = None,
        snapshot_every: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        log: Optional[LogHub] = None,
        faults: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.router = ConsistentHashRouter(partitions)
        self.base_dir = Path(base_dir)
        self.workers = [
            DetectorWorker(
                partition,
                self.base_dir,
                config=config,
                snapshot_every=snapshot_every,
                metrics=metrics,
                log=log,
                faults=faults,
                tracer=tracer,
            )
            for partition in range(partitions)
        ]
        self.events_routed = 0

    @property
    def partitions(self) -> int:
        return len(self.workers)

    # Bus side ----------------------------------------------------------

    def on_event(self, event: StreamEvent) -> None:
        """Route one event to its owner (or broadcast keyless events)."""
        self.events_routed += 1
        owner = self.router.route_event(event)
        if owner is None:
            for worker in self.workers:
                worker.on_event(event)
        else:
            self.workers[owner].on_event(event)

    def attach(
        self, bus: EventBus, name: str = SUBSCRIBER_NAME
    ) -> "PartitionedDetectorPipeline":
        """Subscribe as the bus's durable tap; returns self."""
        bus.subscribe(name, self.on_event, durable=True)
        return self

    # Shard management --------------------------------------------------

    def crashed_partitions(self) -> List[int]:
        """Indices of workers currently dead."""
        return [w.partition for w in self.workers if w.crashed]

    def snapshot_all(self) -> int:
        """Checkpoint every live shard; returns snapshots written."""
        written = 0
        for worker in self.workers:
            if not worker.crashed and worker.snapshot() is not None:
                written += 1
        return written

    def digests(self) -> List[str]:
        """Per-partition shard digests, in partition order."""
        return [worker.digest() for worker in self.workers]

    @staticmethod
    def combine(digests: List[str]) -> str:
        """Fold per-shard digests into one pipeline digest."""
        payload = json.dumps(list(digests), separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def combined_digest(self) -> str:
        """One digest over all shards — the pipeline's parity witness."""
        return self.combine(self.digests())

    def suspect_ids(self) -> List[int]:
        """Union of every shard's current suspects (sorted)."""
        ids: List[int] = []
        for worker in self.workers:
            if worker.ledger is not None:
                ids.extend(worker.ledger.suspect_ids())
        return sorted(ids)

    def close(self) -> None:
        """Flush and close every shard's WAL."""
        for worker in self.workers:
            worker.close()

    def __enter__(self) -> "PartitionedDetectorPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RecoveryCoordinator:
    """Supervises a pipeline: finds dead workers, replays them back.

    Deliberately dumb — detection is a property read, recovery is the
    worker's own snapshot+replay — so the correctness story stays in one
    place and the coordinator is pure orchestration + telemetry.
    """

    def __init__(
        self,
        pipeline: PartitionedDetectorPipeline,
        log: Optional[LogHub] = None,
        profiler: Optional[SamplingProfiler] = None,
    ) -> None:
        self.pipeline = pipeline
        self._logger = (
            log.logger("durable.coordinator") if log is not None else None
        )
        self._profiler = profiler
        self.recoveries = 0

    def recover_crashed(self) -> List[int]:
        """Recover every crashed worker; returns the partitions revived.

        With a profiler attached, the replay work is attributed to a
        ``durable.recover`` section so recovery storms show up as their
        own band in the collapsed-stack export.
        """
        revived = []
        for partition in self.pipeline.crashed_partitions():
            worker = self.pipeline.workers[partition]
            if self._profiler is not None:
                with ProfiledSection(self._profiler, "durable.recover"):
                    replayed = worker.recover()
            else:
                replayed = worker.recover()
            revived.append(partition)
            self.recoveries += 1
            if self._logger is not None:
                self._logger.info(
                    "durable.coordinator_recovery",
                    partition=worker.label,
                    replayed=replayed,
                )
        return revived


def cold_replay_digests(
    base_dir,
    partitions: int,
    config: Optional[DetectorConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> List[str]:
    """Rebuild every shard of a WAL tree from disk alone; per-shard digests.

    This is ``repro wal-replay``'s engine: construct workers over an
    existing ``<base_dir>/partition-NN/`` tree, run the recovery protocol
    on each, and report the digests — no bus, no service, no snapshots
    taken.  A snapshot's recorded detector config takes precedence over
    the passed default (exactly as live recovery behaves).
    """
    digests = []
    for partition in range(partitions):
        worker = DetectorWorker(
            partition,
            base_dir,
            config=config,
            metrics=metrics,
            tracer=tracer,
        )
        worker.recover()
        digest = worker.digest()
        worker.close()
        digests.append(digest)
    return digests


__all__ = [
    "DetectorWorker",
    "DurableWorkerError",
    "PartitionedDetectorPipeline",
    "RecoveryCoordinator",
    "cold_replay_digests",
]
