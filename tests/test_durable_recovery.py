"""Crash/replay recovery: worker death, replay, and three-way parity.

The headline claims of repro.durable, as tests:

* A killed worker loses its in-memory shard but never its WAL; replay
  rebuilds byte-identical scoring state (trace-scrubbed digest).
* The full storm — control pipeline vs. crashed-and-recovered victim
  vs. a cold replay of the victim's on-disk tree — agrees three ways,
  at N=1 and at N=4 partitions (the ISSUE acceptance bar).
* ``write_durable_tree``/``replay_durable_tree`` round-trip through the
  manifest, and damage makes the verify bit go false, not silently pass.
"""

import json
import shutil

import pytest

from repro.analysis.detection import DetectorConfig
from repro.durable.worker import (
    DetectorWorker,
    DurableWorkerError,
    PartitionedDetectorPipeline,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.points import POINT_DURABLE_WORKER
from repro.geo.coordinates import GeoPoint
from repro.stream import detectors
from repro.stream.events import CheckInAccepted, CheckInFlagged
from repro.stream.ledger import SuspicionLedger
from repro.workload import durable as durable_workload
from repro.workload.durable import (
    MANIFEST_NAME,
    DurableConfig,
    replay_durable_tree,
    run_durable_storm,
    write_durable_tree,
)

CONFIG = DetectorConfig(min_total_checkins=10)


@pytest.fixture
def small_bounds(monkeypatch):
    """Factor-table LRU bounds of 128 users and 128 venues."""
    monkeypatch.setattr(detectors, "MAX_USERS", 128)
    monkeypatch.setattr(detectors, "MAX_VENUES", 128)


def checkin(seq, user_id, venue_id=0, flagged=False):
    cls = CheckInFlagged if flagged else CheckInAccepted
    kwargs = dict(
        user_id=user_id,
        venue_id=venue_id,
        venue_location=GeoPoint(40.0, -74.0),
        reported_location=GeoPoint(40.0, -74.0),
        checkin_id=seq,
    )
    if not flagged:
        kwargs["points"] = 3
    return cls(seq, float(seq) * 60.0, **kwargs)


def storm_events(count=50):
    return [
        checkin(seq, user_id=seq % 4, venue_id=seq % 3,
                flagged=(seq % 6 == 0))
        for seq in range(count)
    ]


def instant_killer():
    """An injector that kills partition-00 on its first applied event."""
    plan = FaultPlan(seed=7).add(
        FaultSpec(
            point=POINT_DURABLE_WORKER,
            probability=1.0,
            max_fires=1,
            only_labels=("partition-00",),
        )
    )
    return FaultInjector(plan)


def make_worker(tmp_path, **kwargs):
    kwargs.setdefault("config", CONFIG)
    return DetectorWorker(0, tmp_path, **kwargs)


@pytest.mark.usefixtures("small_bounds")
class TestWorkerCrashSemantics:
    def test_crash_kills_ledger_but_never_the_wal(self, tmp_path):
        worker = make_worker(tmp_path, faults=instant_killer())
        for event in storm_events(50):
            worker.on_event(event)
        # First applied event crashed the worker...
        assert worker.crashed
        assert worker.ledger is None
        assert worker.events_applied == 0
        # ...yet the durable intake kept logging all 50.
        assert worker.wal.appended == 50
        with pytest.raises(DurableWorkerError, match="no digest"):
            worker.digest()
        with pytest.raises(DurableWorkerError, match="crashed"):
            worker.snapshot()
        worker.close()

    def test_recovery_rebuilds_identical_state(self, tmp_path):
        events = storm_events(50)
        worker = make_worker(tmp_path, faults=instant_killer())
        control = SuspicionLedger(config=CONFIG)
        for event in events:
            worker.on_event(event)
            control.on_event(event)
        assert worker.crashed
        replayed = worker.recover()
        assert replayed == 50
        assert not worker.crashed
        assert worker.digest() == control.digest()
        assert worker.last_applied_seq == events[-1].seq
        worker.close()

    def test_recover_on_live_worker_is_idempotent(self, tmp_path):
        worker = make_worker(tmp_path)
        for event in storm_events(40):
            worker.on_event(event)
        warm = worker.digest()
        replayed = worker.recover()  # cold-start path on a live worker
        assert replayed == 40
        assert worker.digest() == warm
        worker.close()

    def test_snapshot_cadence_bounds_replay(self, tmp_path):
        events = storm_events(35)
        worker = make_worker(tmp_path, snapshot_every=10)
        control = SuspicionLedger(config=CONFIG)
        for event in events:
            worker.on_event(event)
            control.on_event(event)
        assert worker.snapshots.writes == 3  # at 10, 20, 30 applied
        replayed = worker.recover()
        # Recovery = snapshot@seq29 + only the 5-event WAL suffix.
        assert replayed == 5
        assert worker.digest() == control.digest()
        worker.close()

    def test_pipeline_recovers_only_its_crashed_workers(self, tmp_path):
        control = PartitionedDetectorPipeline(2, tmp_path / "c", config=CONFIG)
        victim = PartitionedDetectorPipeline(
            2, tmp_path / "v", config=CONFIG, faults=instant_killer()
        )
        for event in storm_events(40):
            control.on_event(event)
            victim.on_event(event)
        assert victim.crashed_partitions() == [0]
        assert victim.recover_crashed() == [0]
        assert victim.crashed_partitions() == []
        assert victim.recover_crashed() == []
        assert victim.combined_digest() == control.combined_digest()
        control.close()
        victim.close()

    def test_bad_snapshot_cadence_rejected(self, tmp_path):
        with pytest.raises(DurableWorkerError):
            make_worker(tmp_path, snapshot_every=-1)


class TestStormParity:
    """The acceptance bar: three-way parity at N=1 AND N=4."""

    def test_three_way_parity_single_partition(self, tmp_path):
        config = DurableConfig(partitions=1)
        report = run_durable_storm(config, tmp_path)
        assert report.crashed_partitions == [0]
        assert report.recovered_partitions == [0]
        assert report.faults_fired == {POINT_DURABLE_WORKER: 1}
        assert report.replayed_events > 0
        assert report.parity_ok, (
            f"control={report.control_combined} "
            f"victim={report.victim_combined} "
            f"cold={report.cold_combined}"
        )

    def test_three_way_parity_four_partitions_with_snapshots(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(durable_workload, "KILL_PARTITION", 2)
        config = DurableConfig(partitions=4, snapshot_every=50)
        report = run_durable_storm(config, tmp_path)
        assert report.crashed_partitions == [2]
        assert report.recovered_partitions == [2]
        assert len(report.control_digests) == 4
        assert report.control_digests == report.victim_digests
        assert report.victim_digests == report.cold_digests
        assert report.snapshots_written > 0
        assert report.parity_ok


class TestTreeRoundTrip:
    @pytest.fixture(scope="class")
    def tree(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("tree")
        config = DurableConfig(partitions=2, checkins=150)
        report = write_durable_tree(config, out)
        return out, report

    def test_replay_matches_manifest(self, tree):
        out, report = tree
        result = replay_durable_tree(out)
        assert result["partitions"] == 2
        assert result["digests"] == report.victim_digests
        assert result["combined_digest"] == report.victim_combined
        assert result["matches_manifest"] is True

    def test_manifest_records_the_run_shape(self, tree):
        out, report = tree
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["partitions"] == 2
        assert manifest["checkins"] == 150
        assert manifest["watermark"] == report.watermark
        assert manifest["combined_digest"] == report.victim_combined

    def test_replay_without_manifest_infers_partitions(self, tree, tmp_path):
        out, report = tree
        clone = tmp_path / "clone"
        clone.mkdir()
        for shard in out.iterdir():
            if shard.name.startswith("partition-"):
                target = clone / shard.name
                target.mkdir()
                for sub in shard.rglob("*"):
                    rel = sub.relative_to(shard)
                    if sub.is_dir():
                        (target / rel).mkdir()
                    else:
                        (target / rel).write_bytes(sub.read_bytes())
        result = replay_durable_tree(clone)
        assert result["partitions"] == 2
        assert result["manifest"] is None
        assert result["matches_manifest"] is None
        assert result["combined_digest"] == report.victim_combined

    def test_bare_wal_tree_replays_with_the_scenario_bar(self, tree, tmp_path):
        # No manifest and no snapshots: every shard replays into a fresh
        # ledger, which must score with the bar the writer used.
        out, report = tree
        clone = tmp_path / "bare"
        shutil.copytree(out, clone, ignore=shutil.ignore_patterns("*.json"))
        result = replay_durable_tree(clone)
        assert result["manifest"] is None
        assert result["combined_digest"] == report.victim_combined

    def test_damaged_tree_fails_the_manifest_check(self, tree, tmp_path):
        out, _ = tree
        clone = tmp_path / "damaged"
        clone.mkdir()
        (clone / MANIFEST_NAME).write_bytes(
            (out / MANIFEST_NAME).read_bytes()
        )
        for shard in out.iterdir():
            if shard.name.startswith("partition-"):
                target = clone / shard.name
                for sub in shard.rglob("*"):
                    rel = sub.relative_to(shard)
                    if sub.is_dir():
                        (target / rel).mkdir(parents=True, exist_ok=True)
                    else:
                        target.mkdir(parents=True, exist_ok=True)
                        (target / rel).parent.mkdir(
                            parents=True, exist_ok=True
                        )
                        (target / rel).write_bytes(sub.read_bytes())
        # Lose one shard's snapshots AND tear the tail off its final WAL
        # segment.  (Either alone is survivable: a snapshot at the
        # watermark covers torn WAL records.)  The replay tolerates the
        # torn tail but the digest can no longer match the manifest.
        for snap in (clone / "partition-00" / "snapshots").glob("*.json"):
            snap.unlink()
        wal_dir = clone / "partition-00" / "wal"
        last = sorted(wal_dir.glob("*.wal"))[-1]
        last.write_bytes(last.read_bytes()[:-20])
        result = replay_durable_tree(clone)
        assert result["matches_manifest"] is False
