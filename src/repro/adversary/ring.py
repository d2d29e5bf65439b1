"""Multi-account spoofing rings: one device, N colluding accounts.

The paper's attacker is a single account on a single emulator.  The
follow-on literature (Liu & Papadimitratos 2025, "Coordinated Position
Falsification Attacks") shows the real threat is *coordinated*: a ring of
3–5 accounts driven from one device/IP in quick succession, each account
"witnessing" the others' presence so any naive proximity-corroboration
check passes.

The :class:`RingCoordinator` models that attacker, borrowing its event
shape from the credential-stuffer generator in SNIPPETS.md #1
(``ferd36/anti_abuse``): one source identity, a fixed account rotation,
deterministic seeded pacing.  Concretely:

* All accounts share **one** :class:`~repro.device.emulator.
  DeviceEmulator` (one simulated device, one console, one egress IP);
  each account is a separate :class:`~repro.device.client_app.
  LbsnClientApp` installed on it, spoofing through the same
  ``geo fix`` channel the thesis used.
* The ring moves as a **convoy**: a leader schedule is built with the
  thesis's cheater-code-safe timing rule (:class:`~repro.attack.
  scheduler.CheckInScheduler`), and every other account fires at the
  same venues a fixed, seeded few seconds later — inside the *witness
  window*.  Because each follower's offset is constant, its inter-venue
  intervals equal the leader's, so every account independently satisfies
  the per-user cheater code; the corroboration is free.
* :meth:`RingCoordinator.corroboration` runs the naive defense the ring
  is built to beat — "do ≥2 distinct accounts attest this check-in
  within time τ and radius r?" — and returns the fraction of stops it
  corroborates (1.0 by construction).

Schedules are pure functions of ``(targets, RingConfig.seed)``:
:meth:`RingSchedule.digest` hashes the full firing plan so replay tests
can assert byte-identical schedules across runs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.attack.campaign import greedy_route, tour_from_targets
from repro.attack.scheduler import (
    CheckInScheduler,
    ExecutionReport,
    ScheduledCheckIn,
)
from repro.attack.spoofing import EmulatorSpoofer, SpoofingChannel
from repro.attack.targeting import TargetVenue
from repro.device.client_app import LbsnClientApp
from repro.device.emulator import DeviceEmulator
from repro.errors import ReproError
from repro.geo.coordinates import GeoPoint
from repro.geo.distance import haversine_m
from repro.lbsn.models import User
from repro.lbsn.service import LbsnService

#: The smallest coordinated ring; below this "collusion" is meaningless.
MIN_RING_ACCOUNTS = 2
#: Rings bigger than this stop looking like one shared device.
MAX_RING_ACCOUNTS = 16
#: All corroborating check-ins at a venue land within this window...
WITNESS_WINDOW_S = 120.0
#: ... and within this radius of the venue (they all claim the venue
#: coordinates, so this bounds the corroboration check, not the ring).
WITNESS_RADIUS_M = 250.0


@dataclass
class RingConfig:
    """Shape of one colluding ring."""

    #: Colluding accounts on the shared device (the literature's 3–5).
    accounts: int = 4
    #: Seed of the witness-offset stream; schedules are pure functions
    #: of (targets, seed).
    seed: int = 0
    #: Display-name prefix for the registered accounts.
    name: str = "Ring"


@dataclass(frozen=True)
class RingEntry:
    """One planned firing: which account hits which venue when."""

    fire_at: float
    account_index: int
    venue_id: int
    location: GeoPoint


@dataclass
class RingSchedule:
    """The full convoy plan, in global firing order."""

    entries: List[RingEntry] = field(default_factory=list)
    #: Per-account constant witness offsets (account 0 leads at 0.0).
    offsets: List[float] = field(default_factory=list)
    #: Distinct venues visited, in convoy order.
    venue_ids: List[int] = field(default_factory=list)

    @property
    def stops(self) -> int:
        """Venues the convoy visits."""
        return len(self.venue_ids)

    def digest(self) -> str:
        """sha256 of the firing plan — byte-identical across replays."""
        hasher = hashlib.sha256()
        for entry in self.entries:
            hasher.update(
                f"{entry.fire_at:.3f}:{entry.account_index}:"
                f"{entry.venue_id};".encode()
            )
        return hasher.hexdigest()

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class RingReport:
    """What one executed ring did, per account and in aggregate."""

    user_ids: List[int] = field(default_factory=list)
    device_ip: str = ""
    per_account: List[ExecutionReport] = field(default_factory=list)
    schedule_digest: str = ""
    #: Fraction of stops the naive proximity check corroborates.
    corroboration: float = 0.0

    @property
    def attempts(self) -> int:
        """Total check-in attempts across the ring."""
        return sum(r.attempts for r in self.per_account)

    @property
    def rewarded(self) -> int:
        """Attempts that earned rewards."""
        return sum(r.rewarded for r in self.per_account)

    @property
    def detected(self) -> int:
        """Attempts the per-user cheater code caught."""
        return sum(r.detected for r in self.per_account)


RegisterAccount = Callable[[str], User]


class RingCoordinator:
    """Drives N colluding accounts from one simulated device."""

    def __init__(
        self,
        service: LbsnService,
        config: Optional[RingConfig] = None,
        register_account: Optional[RegisterAccount] = None,
    ) -> None:
        self.service = service
        self.config = config or RingConfig()
        accounts = self.config.accounts
        if not MIN_RING_ACCOUNTS <= accounts <= MAX_RING_ACCOUNTS:
            raise ReproError(
                f"ring size must be in "
                f"[{MIN_RING_ACCOUNTS}, {MAX_RING_ACCOUNTS}]: {accounts}"
            )
        register = register_account or (
            lambda name: service.register_user(name)
        )
        # ONE emulator: every account spoofs through the same console,
        # which is exactly the "same IP drives 3-5 accounts in quick
        # succession" signature of the credential-stuffer model.
        self.emulator = DeviceEmulator(
            service.clock, name=f"{self.config.name} device"
        )
        self.emulator.flash_recovery_image("vendor-recovery-2.2")
        self.device_ip = (
            f"203.0.113.{(self.config.seed % 254) + 1}"
        )
        self.users: List[User] = []
        self.channels: List[SpoofingChannel] = []
        for index in range(accounts):
            user = register(f"{self.config.name} Account {index + 1}")
            app = LbsnClientApp(
                service, self.emulator.location_api, user.user_id
            )
            self.emulator.install_app(
                f"{LbsnClientApp.APP_NAME}-{user.user_id}", app
            )
            self.users.append(user)
            self.channels.append(EmulatorSpoofer(self.emulator, app))

    @property
    def user_ids(self) -> List[int]:
        """The ring's account ids, in registration order."""
        return [user.user_id for user in self.users]

    # Planning -----------------------------------------------------------

    def plan(
        self,
        targets: Sequence[TargetVenue],
        start_at: Optional[float] = None,
    ) -> RingSchedule:
        """Build the convoy schedule over ``targets``.

        The leader's schedule obeys the thesis timing rule
        (T = max(5 min, D × 5 min) between venues, one-hour same-venue
        hold-down); follower ``i`` fires a constant seeded offset later,
        strictly inside the witness window.  Constant offsets preserve
        the leader's inter-venue intervals for every follower, so each
        account independently stays inside the cheater-code envelope.
        """
        if not targets:
            raise ReproError("a ring needs at least one target venue")
        rng = random.Random(self.config.seed)
        accounts = self.config.accounts
        # Offsets: account 0 at 0; follower i in its own slice of the
        # window, jittered, ascending — "quick succession", never a tie.
        slice_s = WITNESS_WINDOW_S / accounts
        offsets = [0.0]
        for index in range(1, accounts):
            offsets.append(
                (index - 1) * slice_s
                + rng.uniform(0.3 * slice_s, 0.9 * slice_s)
            )
        leader = CheckInScheduler(self.service.clock)
        tour = tour_from_targets(greedy_route(list(targets)))
        base = leader.build(tour, start_at=start_at)
        schedule = RingSchedule(offsets=offsets)
        for entry in base:
            schedule.venue_ids.append(entry.venue_id)
            for account_index, offset in enumerate(offsets):
                schedule.entries.append(
                    RingEntry(
                        fire_at=entry.fire_at + offset,
                        account_index=account_index,
                        venue_id=entry.venue_id,
                        location=entry.location,
                    )
                )
        schedule.entries.sort(key=lambda e: (e.fire_at, e.account_index))
        return schedule

    # Corroboration ------------------------------------------------------

    def corroboration(self, schedule: RingSchedule) -> float:
        """Run the naive proximity check the ring is built to defeat.

        For each stop: do at least two *distinct* accounts attest a
        presence within :data:`WITNESS_WINDOW_S` and
        :data:`WITNESS_RADIUS_M` of each other?  Returns the corroborated
        fraction — 1.0 for any convoy schedule, which is precisely why
        corroboration alone is worthless against collusion and a
        honeypot tier is needed.
        """
        if not schedule.venue_ids:
            return 0.0
        by_venue: dict = {}
        for entry in schedule.entries:
            by_venue.setdefault(entry.venue_id, []).append(entry)
        corroborated = 0
        for venue_id in schedule.venue_ids:
            witnesses = by_venue[venue_id]
            ok = False
            for left in witnesses:
                for right in witnesses:
                    if left.account_index == right.account_index:
                        continue
                    close_in_time = (
                        abs(left.fire_at - right.fire_at) <= WITNESS_WINDOW_S
                    )
                    close_in_space = (
                        haversine_m(left.location, right.location)
                        <= WITNESS_RADIUS_M
                    )
                    if close_in_time and close_in_space:
                        ok = True
                        break
                if ok:
                    break
            if ok:
                corroborated += 1
        return corroborated / len(schedule.venue_ids)

    # Execution ----------------------------------------------------------

    def execute(self, schedule: RingSchedule) -> RingReport:
        """Fire the convoy: advance the clock, spoof, check in, tally."""
        report = RingReport(
            user_ids=self.user_ids,
            device_ip=self.device_ip,
            per_account=[
                ExecutionReport() for _ in range(self.config.accounts)
            ],
            schedule_digest=schedule.digest(),
            corroboration=self.corroboration(schedule),
        )
        clock = self.service.clock
        for entry in schedule.entries:
            if entry.fire_at > clock.now():
                clock.advance_to(entry.fire_at)
            channel = self.channels[entry.account_index]
            channel.set_location(entry.location)
            outcome = channel.check_in(entry.venue_id)
            report.per_account[entry.account_index].record(
                _as_scheduled(entry), outcome
            )
        return report


def _as_scheduled(entry: RingEntry) -> ScheduledCheckIn:
    """Adapt a ring entry to the scheduler's record shape."""
    return ScheduledCheckIn(
        venue_id=entry.venue_id,
        location=entry.location,
        fire_at=entry.fire_at,
    )


__all__ = [
    "MAX_RING_ACCOUNTS",
    "MIN_RING_ACCOUNTS",
    "WITNESS_RADIUS_M",
    "WITNESS_WINDOW_S",
    "RingConfig",
    "RingCoordinator",
    "RingEntry",
    "RingReport",
    "RingSchedule",
]
