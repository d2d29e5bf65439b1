"""The capacity workload: sustained check-in throughput of the store.

E25's engine.  One corpus (users + venues, up to the paper's full
1.89 M / 5.6 M), one deterministic commit schedule, and a writer pool
(8 threads by default) that commits it into one :class:`DataStore` with
one ``add_checkin_committed`` call per check-in — the service's commit
path.  Every run is instrumented (a live :class:`MetricsRegistry`),
because that is the deployed configuration.

Latency accounting: per-commit durations (p50/p99/max).  Determinism:
user, venue, timestamp, and check-in id all derive from the config;
only thread interleaving varies, and the conformance harness owns
proving that interleaving cannot change semantics.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List

from repro.geo.coordinates import GeoPoint
from repro.lbsn.models import CheckIn, CheckInStatus, User, Venue, VenueCategory
from repro.lbsn.store import DataStore
from repro.obs.metrics import MetricsRegistry

#: The paper's measured corpus (§3: 1.89 M users, 5.6 M venues).
FULL_SCALE_USERS = 1_890_000
FULL_SCALE_VENUES = 5_600_000

#: Venue grid footprint: one synthetic "city block" per 0.002°, wrapped
#: every 2,000 venues — keeps the spatial index realistically dense.
_GRID_WRAP = 2_000


@dataclass
class CapacityConfig:
    """Shape of one capacity run."""

    users: int = 18_900
    venues: int = 56_000
    writers: int = 8
    checkins_per_writer: int = 4_000


@dataclass
class CapacityResult:
    """Throughput + per-commit latency for one run."""

    writers: int
    total_checkins: int
    wall_seconds: float
    checkins_per_s: float
    p50_call_s: float
    p99_call_s: float
    max_call_s: float
    watermark: int
    populate_seconds: float = 0.0


def _venue_location(index: int) -> GeoPoint:
    return GeoPoint(
        35.0 + 0.002 * (index % _GRID_WRAP),
        -106.0 + 0.002 * (index // _GRID_WRAP),
    )


def build_corpus(config: CapacityConfig):
    """The shared User/Venue rows (built once, loaded into every store)."""
    users = [
        User(user_id=index + 1, display_name=f"cap-u{index + 1}")
        for index in range(config.users)
    ]
    venues = [
        Venue(
            venue_id=index + 1,
            name=f"cap-v{index + 1}",
            location=_venue_location(index),
            category=VenueCategory.OTHER,
        )
        for index in range(config.venues)
    ]
    return users, venues


def build_store(users, venues):
    """A fresh, instrumented, fully-populated store."""
    store = DataStore(metrics=MetricsRegistry())
    started = time.perf_counter()
    for user in users:
        store.add_user(user)
    for venue in venues:
        store.add_venue(venue)
    return store, time.perf_counter() - started


def build_schedules(config: CapacityConfig) -> List[List[CheckIn]]:
    """Per-writer check-in lists: disjoint ids, shared venue pool.

    Users round-robin through a per-writer slice; venues stride by a
    writer-specific odd step so writers collide on venue indices.
    """
    schedules: List[List[CheckIn]] = []
    users_per_writer = max(1, config.users // max(1, config.writers))
    for writer in range(config.writers):
        rows: List[CheckIn] = []
        base_id = writer * (config.checkins_per_writer + 1) + 1
        user_base = (writer * users_per_writer) % config.users
        stride = 2 * writer + 7
        for index in range(config.checkins_per_writer):
            user_id = (user_base + index) % config.users + 1
            venue_index = (writer + index * stride) % config.venues
            rows.append(
                CheckIn(
                    checkin_id=base_id + index,
                    user_id=user_id,
                    venue_id=venue_index + 1,
                    timestamp=3_600.0 * writer + 60.0 * index,
                    reported_location=_venue_location(venue_index),
                    status=CheckInStatus.VALID,
                )
            )
        schedules.append(rows)
    return schedules


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[index]


def run_capacity(
    config: CapacityConfig,
    corpus=None,
    store=None,
    populate_seconds: float = 0.0,
) -> CapacityResult:
    """Commit the schedule; returns its :class:`CapacityResult`.

    Pass ``corpus`` (from :func:`build_corpus`) to amortise row building
    across rounds, or a pre-built ``store`` to skip population entirely.
    """
    if store is None:
        users, venues = corpus if corpus is not None else build_corpus(
            config
        )
        store, populate_seconds = build_store(users, venues)
    schedules = build_schedules(config)
    per_writer: List[List[float]] = [[] for _ in range(config.writers)]
    errors: List[BaseException] = []
    barrier = threading.Barrier(config.writers + 1)

    def writer(index: int) -> None:
        try:
            commit = store.add_checkin_committed
            durations = per_writer[index]
            barrier.wait(timeout=60)
            for row in schedules[index]:
                begin = time.perf_counter()
                commit(row)
                durations.append(time.perf_counter() - begin)
        except BaseException as exc:  # re-raised by the driver
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(index,), daemon=True)
        for index in range(config.writers)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]

    total = sum(len(rows) for rows in schedules)
    durations = sorted(
        duration for writer_durations in per_writer
        for duration in writer_durations
    )
    return CapacityResult(
        writers=config.writers,
        total_checkins=total,
        wall_seconds=wall,
        checkins_per_s=total / wall if wall > 0 else 0.0,
        p50_call_s=_percentile(durations, 0.50),
        p99_call_s=_percentile(durations, 0.99),
        max_call_s=durations[-1] if durations else 0.0,
        watermark=store.event_seq_watermark(),
        populate_seconds=populate_seconds,
    )
