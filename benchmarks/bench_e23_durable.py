"""E23 (extension) — durable detection: crash/replay parity and its cost.

The thesis's detector ran over a month-long crawl; losing its
accumulated per-user state to a crash would have meant re-crawling.
repro.durable gives the streaming detector the same insurance a real
deployment would carry: a write-ahead event log, periodic ledger
snapshots, and partitioned workers that can be killed and replayed.
This experiment measures what that insurance costs and proves it pays
out.

Acceptance bars (all asserted):

1. **Three-way crash/replay parity at N=1 and N=4** — a control
   pipeline, a victim whose worker is killed mid-storm by a *seeded*
   fault (`durable.worker`, one fire) and then recovered, and a cold
   replay of the victim's on-disk tree agree digest for digest.
2. **The kill really happened** — exactly one fault fired, the victim
   partition crashed, and recovery replayed a non-trivial WAL suffix.
3. **Snapshots bound recovery** — replayed-suffix length falls
   monotonically as snapshot cadence tightens, at unchanged digests.

Measured (reported, not asserted): cold-replay throughput in events/s,
recovery time as a function of WAL length, and the snapshot cadence
sweep (checkpoints written vs. events replayed at recovery).

Everything runs on the simulated clock; WAL fsyncs are real disk I/O
(batched, `fsync_every=64`).

Environment knobs (CI smoke mode shrinks the first two):

* ``REPRO_E23_SCALE`` — world scale (default 0.0005, ~950 users).
* ``REPRO_E23_CHECKINS`` — check-in storm size (default 300).
* ``REPRO_E23_CURVE`` — comma-separated world-scale multipliers for
  the recovery-time-vs-WAL-length curve (default ``0.5,1.0,2.0``;
  the WAL is dominated by world-build events, so scaling the world is
  what actually stretches the log).
"""

import os
import time

from repro.analysis.detection import DetectorConfig
from repro.durable.worker import DetectorWorker
from repro.obs import LogHub, MetricsRegistry
from repro.workload.durable import (
    DurableConfig,
    run_durable_storm,
    write_durable_tree,
)
from repro.workload.scenario import SCENARIO_MIN_TOTAL_CHECKINS

SCALE = float(os.environ.get("REPRO_E23_SCALE", "0.0005"))
CHECKINS = int(os.environ.get("REPRO_E23_CHECKINS", "300"))
CURVE = [
    float(mult)
    for mult in os.environ.get("REPRO_E23_CURVE", "0.5,1.0,2.0").split(",")
]

SEED = 42
FAULT_SEED = 1337


def _config(**overrides) -> DurableConfig:
    base = dict(
        scale=SCALE,
        seed=SEED,
        fault_seed=FAULT_SEED,
        checkins=CHECKINS,
    )
    base.update(overrides)
    return DurableConfig(**base)


def _timed_recovery(tree, partitions):
    """Recover every shard of a tree; returns (seconds, events, digests)."""
    config = DetectorConfig(min_total_checkins=SCENARIO_MIN_TOTAL_CHECKINS)
    started = time.perf_counter()
    replayed = 0
    digests = []
    for partition in range(partitions):
        worker = DetectorWorker(partition, tree, config=config)
        replayed += worker.recover()
        digests.append(worker.digest())
        worker.close()
    return time.perf_counter() - started, replayed, digests


def test_e23_durable(report_out, benchmark, tmp_path):
    metrics = MetricsRegistry()
    log = LogHub(ring_size=65_536, metrics=metrics)
    rows = []

    # Bar 1+2: the storm, at both acceptance partition counts ---------
    storms = {}
    for partitions in (1, 4):
        run_dir = tmp_path / f"storm-n{partitions}"
        run = (
            benchmark.pedantic(
                lambda: run_durable_storm(
                    _config(partitions=4, kill_partition=0),
                    run_dir,
                    metrics=metrics,
                    log=log,
                ),
                rounds=1,
                iterations=1,
            )
            if partitions == 4
            else run_durable_storm(
                _config(partitions=1, kill_partition=0),
                run_dir,
                metrics=metrics,
                log=log,
            )
        )
        storms[partitions] = run
        assert run.parity_ok, (
            f"N={partitions}: control={run.control_combined} "
            f"victim={run.victim_combined} cold={run.cold_combined}"
        )
        assert run.crashed_partitions == [0]
        assert run.recovered_partitions == [0]
        assert run.faults_fired == {"durable.worker": 1}
        assert run.replayed_events > 0
        rows.append(
            f"parity N={partitions}: control==victim==cold over "
            f"{run.events_published} events "
            f"(kill fired once on partition-00, "
            f"{run.replayed_events} events replayed to recover; "
            f"{run.wall_seconds:.2f}s wall)"
        )
    rows.append(
        f"victim WAL (N=4): {storms[4].wal_appended} records, "
        f"{storms[4].wal_bytes} bytes over {storms[4].wal_segments} "
        f"segments, {storms[4].wal_fsyncs} fsyncs (fsync_every=64)"
    )

    # Recovery time vs. WAL length ------------------------------------
    rows.append("recovery-time curve (snapshots off, 1 partition):")
    curve_throughputs = []
    for mult in CURVE:
        tree = tmp_path / f"curve-{mult}"
        report = write_durable_tree(
            _config(partitions=1, scale=SCALE * mult, snapshot_every=0),
            tree,
        )
        # Strip the final checkpoint so recovery replays the whole WAL.
        for snap in (tree / "partition-00" / "snapshots").glob("*.json"):
            snap.unlink()
        seconds, replayed, digests = _timed_recovery(tree, 1)
        assert digests == report.victim_digests  # full-WAL replay parity
        rate = replayed / seconds if seconds > 0 else float("inf")
        curve_throughputs.append(rate)
        rows.append(
            f"  wal={replayed:>6d} events ({report.wal_bytes:>8d} B) "
            f"-> recovery {seconds * 1e3:7.1f} ms ({rate:>9.0f} events/s)"
        )
    rows.append(
        f"cold-replay throughput: {max(curve_throughputs):.0f} events/s peak"
    )

    # Snapshot cadence sweep ------------------------------------------
    rows.append(
        f"snapshot cadence sweep ({CHECKINS} check-ins, 1 partition):"
    )
    suffixes = {}
    for cadence in (0, 200, 100, 50):
        tree = tmp_path / f"cadence-{cadence}"
        report = write_durable_tree(
            _config(partitions=1, snapshot_every=cadence), tree
        )
        # Drop the final checkpoint written by snapshot_all so recovery
        # exercises the *cadence* checkpoints, not the shutdown one.
        snaps = sorted(
            (tree / "partition-00" / "snapshots").glob("*.json")
        )
        if snaps:
            snaps[-1].unlink()
        seconds, replayed, digests = _timed_recovery(tree, 1)
        assert digests == report.victim_digests
        suffixes[cadence] = replayed
        kept = len(snaps) - 1 if snaps else 0
        rows.append(
            f"  every={cadence or 'off':>4}: {kept} cadence checkpoints, "
            f"recovery replayed {replayed:>6d} events "
            f"in {seconds * 1e3:6.1f} ms"
        )
    # Bar 3: tighter cadence never replays more, and beats cadence-off.
    assert suffixes[50] <= suffixes[100] <= suffixes[200] <= suffixes[0]
    assert suffixes[50] < suffixes[0]
    rows.append(
        "cadence bar: replayed suffix shrinks monotonically "
        f"({suffixes[0]} -> {suffixes[200]} -> {suffixes[100]} -> "
        f"{suffixes[50]} events), digests unchanged"
    )

    # Telemetry made it to the shared registry ------------------------
    names = set(metrics.names())
    for family in (
        "repro_wal_appends_total",
        "repro_wal_replayed_events_total",
        "repro_snapshot_writes_total",
        "repro_durable_worker_crashes_total",
        "repro_durable_recoveries_total",
    ):
        assert family in names, family
    crash_records = log.records(event="durable.worker_crash")
    assert crash_records and all(r.trace_id for r in crash_records)
    rows.append(
        f"flight recorder: {len(crash_records)} worker crash(es) logged, "
        "trace-stamped; wal/snapshot/durable metric families registered"
    )

    report_out(
        "E23_durable",
        rows,
        summary={
            "scale": SCALE,
            "checkins": CHECKINS,
            "events_published_n1": storms[1].events_published,
            "events_published_n4": storms[4].events_published,
            "parity_ok_n1": storms[1].parity_ok,
            "parity_ok_n4": storms[4].parity_ok,
            "cold_replay_peak_events_per_s": round(max(curve_throughputs)),
            "replay_suffix_cadence_off": suffixes[0],
            "replay_suffix_cadence_50": suffixes[50],
        },
    )
