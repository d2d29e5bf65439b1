"""The coordinated-adversary workload: rings vs. the honeypot tier.

``run_adversary`` is the E26 driver.  It builds a seeded world, wires the
live defense stack (event bus → :class:`~repro.stream.ledger.
SuspicionLedger` → :class:`~repro.defense.honeypot.HoneypotRegistry`),
seeds honeypot venues at a configurable density, and then plays both
sides of the board:

1. **Rings** — ``rings`` convoys of ``ring_size`` colluding accounts
   (:class:`~repro.adversary.ring.RingCoordinator`), each sweeping a
   seeded sample of targets drawn from :func:`enumerate_targets` — the
   attacker's *exhaustive crawl intelligence*, i.e. the §3.4 easy-mayor-
   special query run over every venue in the store.  Because honeypots
   are seeded to match exactly that profile, they sit inside the target
   pool; because honest itinerary logic never draws from the pool at
   all, only a crawler-scheduled attacker ever lands on one.
2. **Honest control group** — ``honest_accounts`` organic users replay
   plausible home-city traffic drawn strictly from the
   :class:`~repro.workload.venues.GeneratedVenues` lists.  The honeypot
   visibility law (see ``docs/ADVERSARY.md``) makes their honeypot
   false-positive rate structurally zero; the report measures it anyway.
3. **Inline enforcement** — every ring account then attempts one more
   check-in through a :class:`~repro.defense.integration.
   DefendedLbsnService`; accounts the honeypot tier pinned are refused
   with ``RULE_STREAM_SUSPECT`` before any reward logic runs.

The scoreboard is seed-deterministic end to end: same config ⇒ identical
:attr:`AdversaryReport.catch_digest` and :attr:`AdversaryReport.
fp_digest` (``repro adversary --verify`` replays and compares them).
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.adversary.ring import RingConfig, RingCoordinator, RingReport
from repro.analysis.detection import DetectorConfig
from repro.attack.targeting import TargetVenue
from repro.defense.honeypot import HoneypotRegistry
from repro.defense.integration import (
    RULE_STREAM_SUSPECT,
    DefendedLbsnService,
)
from repro.defense.verifier import (
    LocationClaim,
    VerificationOutcome,
    VerificationResult,
)
from repro.errors import ReproError
from repro.lbsn.service import LbsnService
from repro.obs.log import LogHub
from repro.obs.metrics import MetricsRegistry
from repro.simnet.clock import SECONDS_PER_DAY
from repro.stream.bus import EventBus
from repro.stream.ledger import SuspicionLedger
from repro.workload.scenario import SCENARIO_MIN_TOTAL_CHECKINS, build_world


@dataclass
class AdversaryConfig:
    """Everything that shapes one adversary run.  All time simulated."""

    #: World size (fraction of the thesis corpus) and world seed.
    scale: float = 0.0005
    seed: int = 42
    #: Coordinated rings and accounts per ring (the literature's 3–5).
    rings: int = 3
    ring_size: int = 4
    #: Target venues each ring samples from the enumeration pool.
    targets_per_ring: int = 24
    #: Honeypots seeded as a fraction of the world's venue count.
    honeypot_density: float = 0.01
    #: Witness window for the convoy's corroborating check-ins.
    witness_window_s: float = 120.0
    #: Honest control group: accounts driven, check-ins each.
    honest_accounts: int = 50
    honest_checkins_each: int = 6


@dataclass
class AdversaryReport:
    """The catch-rate / false-positive scoreboard for one run."""

    config: AdversaryConfig

    # The board.
    honeypots_seeded: int = 0
    target_pool: int = 0
    honeypot_targets: int = 0

    # Attacker side.
    ring_reports: List[RingReport] = field(default_factory=list)
    ring_accounts: List[int] = field(default_factory=list)
    flagged_ring_accounts: List[int] = field(default_factory=list)
    ring_corroboration: float = 0.0

    # Honest side.
    honest_accounts: List[int] = field(default_factory=list)
    flagged_honest_accounts: List[int] = field(default_factory=list)
    honest_checkins: int = 0

    # Inline enforcement.
    post_flag_attempts: int = 0
    post_flag_refusals: int = 0

    # Stream accounting.
    honeypot_checkins: int = 0
    ledger_suspects: int = 0

    # Determinism.
    catch_digest: str = ""
    fp_digest: str = ""
    wall_seconds: float = 0.0

    @property
    def catch_rate(self) -> float:
        """Fraction of ring accounts the honeypot tier caught."""
        if not self.ring_accounts:
            return 0.0
        return len(self.flagged_ring_accounts) / len(self.ring_accounts)

    @property
    def false_positive_rate(self) -> float:
        """Fraction of driven honest accounts carrying a honeypot flag."""
        if not self.honest_accounts:
            return 0.0
        return len(self.flagged_honest_accounts) / len(self.honest_accounts)

    def replay_checks(self) -> Dict[str, str]:
        """What a same-config replay must reproduce, keyed by label."""
        return {"catch digest": self.catch_digest, "fp digest": self.fp_digest}


class TrustingVerifier:
    """A verifier that accepts every claim.

    The adversary run isolates the *honeypot* tier: the defended wrapper
    must refuse flagged accounts on ledger evidence alone, with no help
    from a physical side channel.
    """

    name = "trusting"

    def verify(self, claim: LocationClaim) -> VerificationResult:
        """Accept unconditionally."""
        return VerificationResult(outcome=VerificationOutcome.ACCEPT)


def enumerate_targets(service: LbsnService) -> List[TargetVenue]:
    """The attacker's exhaustive-crawl target list (§3.4's prime query).

    Walks every venue in the store — the information a full crawl yields
    — and keeps those with a mayor-only special and no current mayor.
    Honest users never run this query; honeypots are built to match it.
    """
    targets = []
    for venue in service.store.iter_venues():
        if (
            venue.special is not None
            and venue.special.mayor_only
            and venue.mayor_id is None
        ):
            targets.append(
                TargetVenue(
                    venue_id=venue.venue_id,
                    name=venue.name,
                    latitude=venue.location.latitude,
                    longitude=venue.location.longitude,
                    special=venue.special.description,
                    reason="mayor-only special with no mayor",
                )
            )
    targets.sort(key=lambda target: target.venue_id)
    return targets


def run_adversary(
    config: Optional[AdversaryConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
    log: Optional[LogHub] = None,
) -> AdversaryReport:
    """Run the full adversary scenario; returns the scoreboard."""
    config = config or AdversaryConfig()
    if config.rings < 1:
        raise ReproError(f"need at least one ring: {config.rings}")
    report = AdversaryReport(config=config)
    started = time.perf_counter()

    # -- World + defense wiring ----------------------------------------
    service = LbsnService(metrics=metrics, log=log)
    bus = EventBus(metrics=metrics, log=log)
    service.event_bus = bus
    ledger = SuspicionLedger(
        config=DetectorConfig(min_total_checkins=SCENARIO_MIN_TOTAL_CHECKINS),
        metrics=metrics,
        log=log,
    ).attach(bus)
    honeypots = HoneypotRegistry(
        service, ledger=ledger, metrics=metrics, log=log
    ).attach(bus)

    world = build_world(scale=config.scale, seed=config.seed, service=service)

    # -- Seed the honeypot tier, AFTER world build ---------------------
    # (so the fakes are absent from every GeneratedVenues list: the
    # visibility law that makes honest false positives structural zeros).
    seeded = honeypots.seed(
        density=config.honeypot_density, seed=config.seed + 11
    )
    report.honeypots_seeded = len(seeded)

    # -- Attacker intelligence: exhaustive enumeration -----------------
    targets = enumerate_targets(service)
    report.target_pool = len(targets)
    report.honeypot_targets = sum(
        1 for target in targets if honeypots.is_honeypot(target.venue_id)
    )
    if not targets:
        raise ReproError("world has no attackable venues")

    # -- Phase 1: the rings sweep --------------------------------------
    rng = random.Random(config.seed + 13)
    corroborations: List[float] = []
    for ring_index in range(config.rings):
        ring_targets = rng.sample(
            targets, min(config.targets_per_ring, len(targets))
        )
        ring = RingCoordinator(
            service,
            RingConfig(
                accounts=config.ring_size,
                seed=config.seed * 1_000 + ring_index,
                witness_window_s=config.witness_window_s,
                name=f"Ring {ring_index + 1}",
            ),
        )
        schedule = ring.plan(ring_targets)
        ring_report = ring.execute(schedule)
        report.ring_reports.append(ring_report)
        report.ring_accounts.extend(ring_report.user_ids)
        corroborations.append(ring_report.corroboration)
    report.ring_corroboration = sum(corroborations) / len(corroborations)

    # -- Phase 2: the honest control group -----------------------------
    _drive_honest_traffic(config, report, world)

    # -- Scoreboard ----------------------------------------------------
    flagged = set(honeypots.flagged_accounts())
    report.flagged_ring_accounts = sorted(
        user_id for user_id in report.ring_accounts if user_id in flagged
    )
    report.flagged_honest_accounts = sorted(
        user_id for user_id in report.honest_accounts if user_id in flagged
    )
    report.honeypot_checkins = honeypots.checkins_observed
    report.ledger_suspects = len(ledger.suspect_ids())

    # -- Phase 3: inline refusal through the defended service ----------
    defended = DefendedLbsnService(
        service,
        TrustingVerifier(),
        physical_locator=lambda user_id: None,
        suspicion_ledger=ledger,
        metrics=metrics,
        log=log,
    )
    probe_target = targets[0]
    probe_ts = service.clock.now() + SECONDS_PER_DAY
    for offset, user_id in enumerate(sorted(report.ring_accounts)):
        report.post_flag_attempts += 1
        result = defended.check_in(
            user_id,
            probe_target.venue_id,
            world.service.store.require_venue(probe_target.venue_id).location,
            timestamp=probe_ts + 120.0 * offset,
        )
        if result.checkin.flagged_rule == RULE_STREAM_SUSPECT:
            report.post_flag_refusals += 1

    report.catch_digest = _digest(
        "catch",
        report.ring_accounts,
        report.flagged_ring_accounts,
        report.honeypots_seeded,
        report.honeypot_targets,
        report.post_flag_refusals,
    )
    report.fp_digest = _digest(
        "fp",
        report.honest_accounts,
        report.flagged_honest_accounts,
        report.honest_checkins,
    )
    report.wall_seconds = time.perf_counter() - started
    return report


def _drive_honest_traffic(
    config: AdversaryConfig, report: AdversaryReport, world
) -> None:
    """Replay organic home-city traffic for a sample of honest users.

    Venue choice draws *only* from the world's GeneratedVenues lists —
    the itinerary sources every honest persona uses — which is exactly
    why none of it can land on a honeypot.
    """
    if config.honest_accounts <= 0 or config.honest_checkins_each <= 0:
        return
    rng = random.Random(config.seed + 17)
    candidates = [
        spec
        for spec in world.population.specs
        if spec.target_checkins > 0
    ]
    if not candidates:
        return
    sample = rng.sample(
        candidates, min(config.honest_accounts, len(candidates))
    )
    service = world.service
    base_ts = service.clock.now() + SECONDS_PER_DAY
    for user_index, spec in enumerate(sample):
        report.honest_accounts.append(spec.user_id)
        pool = (
            world.venues.venue_ids_by_city.get(spec.home_city.name)
            or world.venues.venue_ids
        )
        start = rng.randrange(len(pool))
        for step in range(config.honest_checkins_each):
            # Neighbourhood pace: one venue every 30 simulated minutes,
            # different venue each time — no cheater rule comes close.
            venue_id = pool[(start + step * 3) % len(pool)]
            venue = service.store.require_venue(venue_id)
            service.check_in(
                spec.user_id,
                venue_id,
                venue.location,
                timestamp=base_ts
                + user_index * 7.0
                + step * 1_800.0,
            )
            report.honest_checkins += 1
    report.honest_accounts.sort()


def _digest(kind: str, *parts) -> str:
    """sha256 over a canonical rendering of scoreboard components."""
    hasher = hashlib.sha256(kind.encode())
    for part in parts:
        if isinstance(part, list):
            hasher.update(",".join(str(item) for item in part).encode())
        else:
            hasher.update(str(part).encode())
        hasher.update(b";")
    return hasher.hexdigest()


__all__ = [
    "AdversaryConfig",
    "AdversaryReport",
    "TrustingVerifier",
    "enumerate_targets",
    "run_adversary",
]
