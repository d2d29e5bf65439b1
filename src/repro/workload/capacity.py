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

Footprint accounting: :func:`measure_footprint` gives the heap bytes of
one user, one venue and one committed check-in, each row plus its store
indexes, and :func:`resident_bytes` the process's resident set, which
the paper-scale phase reads around its populate.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import tracemalloc
from dataclasses import dataclass
from typing import Iterator, List

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


@dataclass
class Footprint:
    """Heap bytes per row, each row plus its store indexes."""

    checkins: int
    bytes_per_user: float
    bytes_per_venue: float
    bytes_per_checkin: float


def iter_users(count: int) -> Iterator[User]:
    """Users ``1..count``, built one at a time."""
    for index in range(count):
        yield User(user_id=index + 1, display_name=f"cap-u{index + 1}")


def iter_venues(count: int) -> Iterator[Venue]:
    """Venues ``1..count`` on the synthetic city grid, one at a time."""
    for index in range(count):
        yield Venue(
            venue_id=index + 1,
            name=f"cap-v{index + 1}",
            location=_venue_location(index),
            category=VenueCategory.OTHER,
        )


def build_corpus(config: CapacityConfig):
    """The shared User/Venue rows (built once, loaded into every store)."""
    return list(iter_users(config.users)), list(iter_venues(config.venues))


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


def measure_footprint(config: CapacityConfig) -> Footprint:
    """Traced heap growth per row while one fresh store fills up.

    Users, then venues, are streamed into the store, then the config's
    whole schedule is committed on this thread; the traced growth of each
    step is divided by its row count.  tracemalloc counts every Python
    allocation, so the figures are exact even for a corpus small enough
    that a resident-set delta would be mostly allocator slack, but its
    per-allocation bookkeeping makes it too heavy for the paper-scale
    corpus.
    """
    tracemalloc.start()
    try:
        store = DataStore(metrics=MetricsRegistry())
        base = tracemalloc.get_traced_memory()[0]
        for user in iter_users(config.users):
            store.add_user(user)
        after_users = tracemalloc.get_traced_memory()[0]
        for venue in iter_venues(config.venues):
            store.add_venue(venue)
        after_venues = tracemalloc.get_traced_memory()[0]
        schedules = build_schedules(config)
        for row in itertools.chain.from_iterable(schedules):
            store.add_checkin_committed(row)
        del schedules
        after_checkins = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    checkins = store.checkin_count()
    return Footprint(
        checkins=checkins,
        bytes_per_user=(after_users - base) / max(1, config.users),
        bytes_per_venue=(after_venues - after_users) / max(1, config.venues),
        bytes_per_checkin=(after_checkins - after_venues) / max(1, checkins),
    )


def resident_bytes() -> int:
    """This process's current resident set size (Linux ``/proc``)."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


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
