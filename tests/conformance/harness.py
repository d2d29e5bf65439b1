"""Concurrency conformance harness for the datastore.

A linearizability-style checker for the seq-allocation contract: N
writer threads hammer one store through a deterministic, seeded schedule
of ``add_checkin_committed`` calls, every commit is published to a
real :class:`~repro.stream.EventBus` with a recording subscriber, and
the run returns an :class:`ObservedHistory` the checker functions then
interrogate:

* :func:`assert_seqs_dense` — the union of all returned sequence
  numbers is exactly ``range(total)``: gap-free, duplicate-free, global.
* :func:`assert_per_user_order` / :func:`assert_per_venue_order` — for
  every user and venue, seq numbers are strictly increasing in exactly
  the store's list-append order (the contract
  ``DataStore.add_checkin_committed`` documents).
* :func:`assert_observed_exactly_once` — every committed check-in was
  delivered to the bus subscriber exactly once: no loss, no duplication.
* :func:`ledger_replay_digest` — replays the committed history in a
  *canonical* order (timestamp, user, check-in id — all schedule-derived
  and therefore identical across runs) through a fresh
  :class:`~repro.stream.SuspicionLedger` and returns its trace-scrubbed
  digest.  Byte-identical digests across two storms over one schedule
  are the proof that thread interleaving changed scheduling, not
  semantics.

Determinism rules: every check-in's id, user, venue, and timestamp come
from the precomputed :func:`build_schedule` (pure function of the seed),
never from wall clocks or shared allocators, so two storms over the same
schedule commit the *same set* of check-ins no matter how their threads
interleave.  Only the seq assignment varies — which is exactly the part
the contract constrains.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.detection import DetectorConfig
from repro.geo.coordinates import GeoPoint
from repro.lbsn.models import CheckIn, CheckInStatus, User, Venue, VenueCategory
from repro.lbsn.store import DataStore
from repro.stream.bus import EventBus
from repro.stream.events import CheckInAccepted
from repro.stream.ledger import SuspicionLedger

#: Schedule base coordinates (Albuquerque, the repo's usual test city).
BASE_LAT = 35.0844
BASE_LON = -106.6504

#: Check-in ids are schedule-owned: ``thread * STRIDE + op_offset`` keeps
#: them unique and identical across runs regardless of interleaving.
CHECKIN_ID_STRIDE = 1_000_000


@dataclass
class StormSchedule:
    """A full deterministic storm: per-thread commit lists plus the world."""

    users: List[User]
    venues: List[Venue]
    #: Each thread's check-ins, one ``add_checkin_committed`` call apiece.
    per_thread: List[List[CheckIn]]

    @property
    def total_checkins(self) -> int:
        return sum(len(rows) for rows in self.per_thread)


@dataclass
class ObservedHistory:
    """What one storm actually did, as seen from every vantage point."""

    schedule: StormSchedule
    store: object
    #: ``(thread, checkin, seq)`` in each thread's local commit order.
    committed: List[Tuple[int, CheckIn, int]]
    #: Bus deliveries: checkin_id → times seen by the recording subscriber.
    observed: Counter
    watermark: int
    seq_base: int = 0

    def seqs(self) -> List[int]:
        return [seq for _, _, seq in self.committed]

    def seq_of(self) -> Dict[int, int]:
        """checkin_id → seq."""
        return {c.checkin_id: seq for _, c, seq in self.committed}


def _venue_location(index: int) -> GeoPoint:
    """Deterministic venue spread: a coarse grid around the base point."""
    return GeoPoint(
        BASE_LAT + 0.002 * (index % 40),
        BASE_LON + 0.002 * (index // 40),
    )


def build_schedule(
    threads: int = 8,
    ops_per_thread: int = 90,
    users_per_thread: int = 3,
    venues: int = 24,
    seed: int = 0x5EED,
) -> StormSchedule:
    """Precompute a storm: pure function of its arguments.

    Each thread owns a disjoint user slice (so per-user order is decided
    by one thread's program order plus the store, never by a data race in
    the harness itself) while all threads share the venue pool — the
    contention the harness exists to provoke.  Timestamps increase
    strictly within a thread so the canonical replay order is well
    defined.
    """
    import random

    rng = random.Random(seed)
    users = [
        User(user_id=index + 1, display_name=f"storm-u{index + 1}")
        for index in range(threads * users_per_thread)
    ]
    venue_rows = [
        Venue(
            venue_id=index + 1,
            name=f"storm-v{index + 1}",
            location=_venue_location(index),
            category=VenueCategory.OTHER,
        )
        for index in range(venues)
    ]
    per_thread: List[List[CheckIn]] = []
    for thread in range(threads):
        owned = users[
            thread * users_per_thread: (thread + 1) * users_per_thread
        ]
        rows: List[CheckIn] = []
        first_id = thread * CHECKIN_ID_STRIDE + 1
        clock = float(thread + 1)
        for op_index in range(ops_per_thread):
            user = rng.choice(owned)
            venue = rng.choice(venue_rows)
            clock += 60.0 + rng.random() * 600.0
            rows.append(
                CheckIn(
                    checkin_id=first_id + op_index,
                    user_id=user.user_id,
                    venue_id=venue.venue_id,
                    timestamp=clock,
                    reported_location=venue.location,
                    status=CheckInStatus.VALID,
                )
            )
        per_thread.append(rows)
    return StormSchedule(
        users=users, venues=venue_rows, per_thread=per_thread
    )


def populate(store, schedule: StormSchedule) -> None:
    """Load the schedule's users and venues into a fresh store."""
    for user in schedule.users:
        store.add_user(user)
    for venue in schedule.venues:
        store.add_venue(venue)


@dataclass
class _Recorder:
    """Thread-safe exactly-once observer on the bus."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    seen: Counter = field(default_factory=Counter)

    def __call__(self, event) -> None:
        if isinstance(event, CheckInAccepted):
            with self.lock:
                self.seen[event.checkin_id] += 1


def run_storm(
    store,
    schedule: StormSchedule,
    subscribers: Sequence[Callable] = (),
) -> ObservedHistory:
    """Run the storm against a pre-populated store; return the history.

    Commits run fully concurrently.  Publication to the bus happens
    under one harness lock — the stand-in for ``LbsnService._lock``,
    which serializes publish in the real pipeline — so detector-style
    subscribers see a serial stream, as they would in production.
    """
    bus = EventBus()
    recorder = _Recorder()
    bus.subscribe("conformance-recorder", recorder)
    for index, subscriber in enumerate(subscribers):
        bus.subscribe(f"conformance-extra-{index}", subscriber)
    seq_base = store.event_seq_watermark()
    venue_locations = {
        venue.venue_id: venue.location for venue in schedule.venues
    }
    publish_lock = threading.Lock()
    committed_lock = threading.Lock()
    committed: List[Tuple[int, CheckIn, int]] = []
    errors: List[BaseException] = []
    barrier = threading.Barrier(len(schedule.per_thread))

    def publish(checkin: CheckIn, seq: int) -> None:
        with publish_lock:
            bus.publish(
                CheckInAccepted(
                    seq=seq,
                    timestamp=checkin.timestamp,
                    user_id=checkin.user_id,
                    venue_id=checkin.venue_id,
                    venue_location=venue_locations[checkin.venue_id],
                    reported_location=checkin.reported_location,
                    checkin_id=checkin.checkin_id,
                )
            )

    def worker(thread: int, rows: List[CheckIn]) -> None:
        try:
            barrier.wait(timeout=30)
            local: List[Tuple[int, CheckIn, int]] = []
            for row in rows:
                checkin, seq = store.add_checkin_committed(row)
                publish(checkin, seq)
                local.append((thread, checkin, seq))
            with committed_lock:
                committed.extend(local)
        except BaseException as exc:  # surfaced by the caller
            errors.append(exc)

    workers = [
        threading.Thread(target=worker, args=(thread, rows), daemon=True)
        for thread, rows in enumerate(schedule.per_thread)
    ]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join(timeout=120)
    if errors:
        raise errors[0]
    return ObservedHistory(
        schedule=schedule,
        store=store,
        committed=committed,
        observed=recorder.seen,
        watermark=store.event_seq_watermark(),
        seq_base=seq_base,
    )


# Checkers --------------------------------------------------------------


def assert_seqs_dense(history: ObservedHistory) -> None:
    """Global seq order is gap-free and duplicate-free."""
    seqs = sorted(history.seqs())
    expected = list(
        range(history.seq_base, history.seq_base + len(seqs))
    )
    assert seqs == expected, (
        f"seq allocation not dense: {len(seqs)} commits, "
        f"min={seqs[0] if seqs else None}, max={seqs[-1] if seqs else None}"
    )
    assert history.watermark == history.seq_base + len(seqs)


def assert_per_user_order(history: ObservedHistory) -> None:
    """Per user: store list order == commit order == seq order."""
    seq_of = history.seq_of()
    by_user: Dict[int, List[int]] = {}
    for _, checkin, _ in history.committed:
        by_user.setdefault(checkin.user_id, [])
    for user_id in by_user:
        listed = history.store.checkins_of_user(user_id)
        listed_seqs = [seq_of[checkin.checkin_id] for checkin in listed]
        assert listed_seqs == sorted(listed_seqs), (
            f"user {user_id}: store append order disagrees with seq order"
        )
        assert sorted(c.checkin_id for c in listed) == sorted(
            checkin.checkin_id
            for _, checkin, _ in history.committed
            if checkin.user_id == user_id
        )


def assert_per_venue_order(history: ObservedHistory) -> None:
    """Per venue: store list order == seq order.

    Venues are shared by every thread, so this is where a commit whose
    row insert and seq allocation are not one atomic step shows up.
    """
    seq_of = history.seq_of()
    for venue in history.schedule.venues:
        listed = history.store.checkins_at_venue(venue.venue_id)
        listed_seqs = [seq_of[checkin.checkin_id] for checkin in listed]
        assert listed_seqs == sorted(listed_seqs), (
            f"venue {venue.venue_id}: store append order disagrees with "
            "seq order"
        )


def assert_observed_exactly_once(history: ObservedHistory) -> None:
    """Every committed check-in hit the bus subscriber exactly once."""
    expected = Counter(
        checkin.checkin_id for _, checkin, _ in history.committed
    )
    assert set(expected.values()) <= {1}
    assert history.observed == expected, (
        "bus delivery mismatch: "
        f"{len(expected)} committed, {sum(history.observed.values())} seen"
    )


def canonical_events(history: ObservedHistory) -> List[CheckInAccepted]:
    """The committed history as events, in run-independent order.

    The sort key — ``(timestamp, user_id, checkin_id)`` — is entirely
    schedule-derived, so two storms over the same schedule yield the
    same event list here even though their threads interleaved (and
    seq-assigned) differently.
    """
    venue_locations = {
        venue.venue_id: venue.location for venue in history.schedule.venues
    }
    ordered = sorted(
        (checkin for _, checkin, _ in history.committed),
        key=lambda c: (c.timestamp, c.user_id, c.checkin_id),
    )
    seq_of = history.seq_of()
    return [
        CheckInAccepted(
            seq=seq_of[checkin.checkin_id],
            timestamp=checkin.timestamp,
            user_id=checkin.user_id,
            venue_id=checkin.venue_id,
            venue_location=venue_locations[checkin.venue_id],
            reported_location=checkin.reported_location,
            checkin_id=checkin.checkin_id,
        )
        for checkin in ordered
    ]


def ledger_replay_digest(
    history: ObservedHistory,
    config: Optional[DetectorConfig] = None,
) -> str:
    """Trace-scrubbed SuspicionLedger digest of the canonical replay."""
    ledger = SuspicionLedger(
        config=config or DetectorConfig(min_total_checkins=5)
    )
    for event in canonical_events(history):
        ledger.on_event(event)
    return ledger.digest()


def run_conformance_storm(
    threads: int = 8,
    ops_per_thread: int = 90,
    seed: int = 0x5EED,
) -> ObservedHistory:
    """Build schedule → populate a fresh :class:`DataStore` → storm."""
    schedule = build_schedule(
        threads=threads,
        ops_per_thread=ops_per_thread,
        seed=seed,
    )
    store = DataStore()
    populate(store, schedule)
    return run_storm(store, schedule)
