"""Ring coordinator: convoy planning, determinism, and cheater-safety.

The ring's whole design goal is to be *invisible to per-user rules*: a
leader schedule already safe under the thesis cheater code, plus
constant per-follower offsets that preserve every inter-venue interval.
These tests assert that structure — deterministic seeded plans, offsets
strictly inside the witness window, perfect naive corroboration, and a
fully undetected execution against the real service.
"""

import pytest

from repro.adversary.ring import (
    MAX_RING_ACCOUNTS,
    MIN_RING_ACCOUNTS,
    WITNESS_WINDOW_S,
    RingConfig,
    RingCoordinator,
)
from repro.attack.targeting import TargetVenue
from repro.errors import ReproError
from repro.geo.coordinates import GeoPoint
from repro.lbsn.models import VenueCategory
from repro.lbsn.service import LbsnService


def build_board(venues: int = 6):
    """A small service plus a target list over its venues."""
    service = LbsnService()
    targets = []
    for index in range(venues):
        venue = service.create_venue(
            name=f"Target {index}",
            location=GeoPoint(35.0844 + index * 0.01, -106.6504),
            category=VenueCategory.BAR,
        )
        targets.append(
            TargetVenue(
                venue_id=venue.venue_id,
                name=venue.name,
                latitude=venue.location.latitude,
                longitude=venue.location.longitude,
                special=None,
                reason="test",
            )
        )
    return service, targets


class TestRingShape:
    def test_ring_size_bounds_enforced(self):
        service, _ = build_board()
        for bad in (MIN_RING_ACCOUNTS - 1, MAX_RING_ACCOUNTS + 1):
            with pytest.raises(ReproError):
                RingCoordinator(service, RingConfig(accounts=bad))

    def test_boundary_sizes_allowed(self):
        service, _ = build_board()
        RingCoordinator(service, RingConfig(accounts=MIN_RING_ACCOUNTS))
        RingCoordinator(service, RingConfig(accounts=MAX_RING_ACCOUNTS))

    def test_one_shared_device_many_accounts(self):
        service, _ = build_board()
        ring = RingCoordinator(service, RingConfig(accounts=4, seed=3))
        assert len(ring.users) == 4
        assert len(set(ring.user_ids)) == 4
        # Every client app is installed on the SAME emulator: one
        # device, one console, one egress IP.
        assert len({id(ch.emulator) for ch in ring.channels}) == 1
        assert ring.device_ip == "203.0.113.4"

    def test_device_ip_is_seed_stable(self):
        service, _ = build_board()
        one = RingCoordinator(service, RingConfig(accounts=2, seed=9))
        two = RingCoordinator(service, RingConfig(accounts=2, seed=9))
        assert one.device_ip == two.device_ip


class TestPlanning:
    def test_plan_requires_targets(self):
        service, _ = build_board()
        ring = RingCoordinator(service, RingConfig(accounts=3))
        with pytest.raises(ReproError):
            ring.plan([])

    def test_offsets_lead_then_ascend_inside_window(self):
        service, targets = build_board()
        ring = RingCoordinator(service, RingConfig(accounts=5, seed=7))
        schedule = ring.plan(targets)
        assert schedule.offsets[0] == 0.0
        assert schedule.offsets == sorted(schedule.offsets)
        assert len(set(schedule.offsets)) == len(schedule.offsets)
        assert all(o < WITNESS_WINDOW_S for o in schedule.offsets)

    def test_every_account_fires_at_every_stop(self):
        service, targets = build_board(venues=5)
        ring = RingCoordinator(service, RingConfig(accounts=3, seed=1))
        schedule = ring.plan(targets)
        assert schedule.stops == 5
        assert len(schedule) == 5 * 3
        for venue_id in schedule.venue_ids:
            hitters = {
                e.account_index
                for e in schedule.entries
                if e.venue_id == venue_id
            }
            assert hitters == {0, 1, 2}

    def test_entries_in_global_firing_order(self):
        service, targets = build_board()
        ring = RingCoordinator(service, RingConfig(accounts=4, seed=2))
        schedule = ring.plan(targets)
        fire_ats = [e.fire_at for e in schedule.entries]
        assert fire_ats == sorted(fire_ats)

    def test_constant_offsets_preserve_leader_intervals(self):
        # The cheater-safety argument in one assertion: each follower's
        # consecutive-stop gaps equal the leader's, so a leader schedule
        # inside the cheater-code envelope keeps every account inside it.
        service, targets = build_board()
        ring = RingCoordinator(service, RingConfig(accounts=4, seed=5))
        schedule = ring.plan(targets)

        def gaps(account_index):
            times = sorted(
                e.fire_at
                for e in schedule.entries
                if e.account_index == account_index
            )
            return [
                round(b - a, 6) for a, b in zip(times, times[1:])
            ]

        leader_gaps = gaps(0)
        for follower in range(1, 4):
            assert gaps(follower) == leader_gaps

    def test_schedule_is_a_pure_function_of_targets_and_seed(self):
        service, targets = build_board()
        ring_a = RingCoordinator(service, RingConfig(accounts=4, seed=11))
        ring_b = RingCoordinator(service, RingConfig(accounts=4, seed=11))
        assert (
            ring_a.plan(targets).digest() == ring_b.plan(targets).digest()
        )
        ring_c = RingCoordinator(service, RingConfig(accounts=4, seed=12))
        assert (
            ring_a.plan(targets).digest() != ring_c.plan(targets).digest()
        )


class TestCorroborationAndExecution:
    def test_naive_proximity_check_fully_corroborates_the_convoy(self):
        # The check the ring is built to beat: >= 2 distinct accounts
        # within the witness window and radius at every stop.
        service, targets = build_board()
        ring = RingCoordinator(service, RingConfig(accounts=3, seed=4))
        schedule = ring.plan(targets)
        assert ring.corroboration(schedule) == 1.0

    def test_execute_sweeps_undetected(self):
        # No honeypots on the board: the per-user cheater code alone
        # must catch nothing — that is the gap the honeypot tier closes.
        service, targets = build_board()
        ring = RingCoordinator(service, RingConfig(accounts=3, seed=8))
        report = ring.execute(ring.plan(targets))
        assert report.attempts == len(targets) * 3
        assert report.detected == 0
        assert report.rewarded == report.attempts
        assert report.corroboration == 1.0
        assert report.schedule_digest
        assert report.user_ids == ring.user_ids
        assert report.device_ip == ring.device_ip

    def test_execute_advances_the_shared_clock(self):
        service, targets = build_board()
        ring = RingCoordinator(service, RingConfig(accounts=2, seed=6))
        schedule = ring.plan(targets)
        ring.execute(schedule)
        last = max(e.fire_at for e in schedule.entries)
        assert service.clock.now() == pytest.approx(last)
