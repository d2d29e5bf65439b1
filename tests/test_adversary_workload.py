"""The E26 adversary workload, end to end.

Three layers of assertion:

* **Scoreboard** — a seeded default run catches every ring account via
  the honeypot tier (catch rate 1.0), flags zero honest accounts (the
  visibility law), and refuses every flagged account inline.
* **Trace chain** — on a hand-built board, the honeypot check-in that
  catches each ring member is the same trace the ledger's flag carries,
  and the defended service then refuses that member with
  ``RULE_STREAM_SUSPECT``.
* **Determinism** — same config ⇒ identical catch/fp digests across
  reruns.
"""

import pytest

from repro.adversary import (
    AdversaryConfig,
    RingConfig,
    RingCoordinator,
    TrustingVerifier,
    enumerate_targets,
    run_adversary,
)
from repro.analysis.detection import DetectorConfig
from repro.defense.honeypot import RULE_HONEYPOT, HoneypotRegistry
from repro.defense.integration import (
    RULE_STREAM_SUSPECT,
    DefendedLbsnService,
)
from repro.errors import ReproError
from repro.geo.coordinates import GeoPoint
from repro.lbsn.models import CheckInStatus, Special
from repro.lbsn.service import LbsnService
from repro.obs.log import LogHub
from repro.stream.bus import EventBus
from repro.stream.ledger import SuspicionLedger

#: One cheap world for the digest tests (seconds, not minutes).
SMALL = dict(
    scale=0.0002,
    seed=5,
    rings=2,
    ring_size=3,
    targets_per_ring=16,
    honest_accounts=15,
    honest_checkins_each=4,
)


@pytest.fixture(scope="module")
def board():
    """One default-config adversary run shared by the scoreboard tests."""
    return run_adversary(AdversaryConfig())


class TestScoreboard:
    def test_every_ring_account_is_caught(self, board):
        assert board.ring_accounts
        assert len(board.ring_accounts) == 3 * 4
        assert board.flagged_ring_accounts == sorted(board.ring_accounts)
        assert board.catch_rate == 1.0

    def test_honest_control_group_is_structurally_clean(self, board):
        assert len(board.honest_accounts) == 50
        assert board.honest_checkins == 50 * 6
        assert board.flagged_honest_accounts == []
        assert board.false_positive_rate == 0.0

    def test_honeypots_sit_inside_the_target_pool(self, board):
        # The traps match the §3.4 prime-target profile, so exhaustive
        # enumeration MUST surface them alongside the real venues.
        assert board.honeypots_seeded > 0
        assert 0 < board.honeypot_targets <= board.honeypots_seeded
        assert board.honeypot_targets <= board.target_pool

    def test_naive_corroboration_is_fully_defeated(self, board):
        assert board.ring_corroboration == 1.0

    def test_flagged_accounts_are_refused_inline(self, board):
        assert board.post_flag_attempts == len(board.ring_accounts)
        assert board.post_flag_refusals == board.post_flag_attempts

    def test_ledger_holds_at_least_the_ring(self, board):
        assert board.ledger_suspects >= len(board.ring_accounts)

    def test_rings_go_undetected_by_per_user_rules(self, board):
        # The whole point of the subsystem: the thesis cheater code sees
        # nothing wrong with a convoy — only the honeypot tier does.
        for ring_report in board.ring_reports:
            assert ring_report.detected == 0

    def test_config_validation(self):
        with pytest.raises(ReproError):
            run_adversary(AdversaryConfig(rings=0))


class TestTraceChain:
    def test_ring_to_honeypot_to_ledger_to_refusal(self):
        # Hand-built board: 6 real targets + 2 traps, one ring of 4.
        hub = LogHub()
        service = LbsnService(log=hub)
        bus = EventBus(log=hub)
        service.event_bus = bus
        ledger = SuspicionLedger(
            DetectorConfig(min_total_checkins=100), log=hub
        ).attach(bus)
        registry = HoneypotRegistry(service, ledger=ledger, log=hub)
        for index in range(6):
            service.create_venue(
                name=f"Real Target {index}",
                location=GeoPoint(35.0844 + index * 0.01, -106.6504),
                special=Special(
                    description="Mayor drinks free", mayor_only=True
                ),
            )
        registry.attach(bus)
        registry.seed(density=0.01, seed=1, count=2)

        targets = enumerate_targets(service)
        assert {t.venue_id for t in targets} >= set(
            registry.honeypot_ids()
        )

        ring = RingCoordinator(service, RingConfig(accounts=4, seed=2))
        report = ring.execute(ring.plan(targets))
        assert report.detected == 0  # per-user rules: blind

        # Honeypot tier: every member caught, ledger pinned, and the
        # ledger's flag trace IS the trapping check-in's trace.
        assert registry.flagged_accounts() == sorted(ring.user_ids)
        for user_id in ring.user_ids:
            flag = registry.flag_of(user_id)
            assert flag.trace_id is not None
            assert ledger.pinned_rule(user_id) == RULE_HONEYPOT
            assert ledger.flag_trace_id(user_id) == flag.trace_id

        # Inline enforcement: the defended wrapper now refuses every
        # member before any reward logic runs.
        defended = DefendedLbsnService(
            service,
            TrustingVerifier(),
            physical_locator=lambda user_id: None,
            suspicion_ledger=ledger,
            log=hub,
        )
        probe = service.store.require_venue(targets[0].venue_id)
        ts = service.clock.now() + 4_000.0
        for offset, user_id in enumerate(ring.user_ids):
            result = defended.check_in(
                user_id,
                probe.venue_id,
                probe.location,
                timestamp=ts + offset * 120.0,
            )
            assert result.checkin.status is not CheckInStatus.VALID
            assert result.checkin.flagged_rule == RULE_STREAM_SUSPECT

    def test_honest_member_of_nothing_is_untouched(self):
        service = LbsnService()
        bus = EventBus()
        service.event_bus = bus
        ledger = SuspicionLedger(
            DetectorConfig(min_total_checkins=100)
        ).attach(bus)
        registry = HoneypotRegistry(service, ledger=ledger)
        venue = service.create_venue(
            name="Corner Cafe", location=GeoPoint(35.0844, -106.6504)
        )
        registry.attach(bus)
        registry.seed(density=0.01, seed=1, count=1)
        user = service.register_user("Honest Harriet")
        service.check_in(user.user_id, venue.venue_id, venue.location)
        defended = DefendedLbsnService(
            service,
            TrustingVerifier(),
            physical_locator=lambda user_id: None,
            suspicion_ledger=ledger,
        )
        result = defended.check_in(
            user.user_id,
            venue.venue_id,
            venue.location,
            timestamp=service.clock.now() + 4_000.0,
        )
        assert result.checkin.status is CheckInStatus.VALID


class TestDeterminism:
    def test_same_config_same_digests(self):
        one = run_adversary(AdversaryConfig(**SMALL))
        two = run_adversary(AdversaryConfig(**SMALL))
        assert one.catch_digest == two.catch_digest
        assert one.fp_digest == two.fp_digest
        assert one.flagged_ring_accounts == two.flagged_ring_accounts
        assert one.flagged_honest_accounts == two.flagged_honest_accounts

    def test_different_seed_moves_the_board(self):
        base = run_adversary(AdversaryConfig(**SMALL))
        moved_config = dict(SMALL)
        moved_config["seed"] = 6
        moved = run_adversary(AdversaryConfig(**moved_config))
        # Account-id layout is world-size-driven, so the catch digest
        # alone may coincide across seeds; the board as a whole may not.
        assert (base.catch_digest, base.fp_digest) != (
            moved.catch_digest,
            moved.fp_digest,
        )
