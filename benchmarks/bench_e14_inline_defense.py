"""E14 (extension) — the Chapter-5 endgame: defenses deployed inline.

E11 scores verifiers on claim workloads; E14 wires them into the live
check-in pipeline (:class:`DefendedLbsnService`) and reruns the actual E1
spoofing attack and honest traffic against the defended service — the
deployment decision a provider would actually face.
"""

from repro.attack.spoofing import build_emulator_attacker
from repro.defense.distance_bounding import DistanceBoundingVerifier
from repro.defense.integration import (
    DefendedLbsnService,
    DeviceRegistry,
    registry_locator,
)
from repro.defense.wifi_verification import (
    VenueRouter,
    WifiVerificationService,
    deploy_routers,
)
from repro.geo.distance import destination_point
from repro.geo.regions import city_by_name
from repro.lbsn.models import CheckInStatus
from repro.lbsn.service import LbsnService

ATTACKER_AT = city_by_name("Albuquerque, NM").center
REMOTE = city_by_name("San Francisco, CA").center


def build_scene(verifier_factory, fraction=1.0):
    service = LbsnService()
    venues = [
        service.create_venue(
            f"SF Venue {index}",
            destination_point(REMOTE, index * 24.0, 1_500.0 + 90.0 * index),
        )
        for index in range(15)
    ]
    local = [
        service.create_venue(
            f"ABQ Venue {index}",
            destination_point(ATTACKER_AT, index * 24.0, 1_200.0 + 80.0 * index),
        )
        for index in range(15)
    ]
    registry = DeviceRegistry()
    verifier = verifier_factory(service, fraction)
    defended = DefendedLbsnService(
        service, verifier, registry_locator(registry)
    )
    return service, defended, registry, venues, local


def attack_and_honest(defended_tuple):
    service, defended, registry, remote_venues, local_venues = defended_tuple
    # The spoofing attacker, physically in Albuquerque.
    attacker, _, channel = build_emulator_attacker(service)
    registry.place(attacker.user_id, ATTACKER_AT)
    channel.app.service = defended
    attack_ok = 0
    for venue in remote_venues:
        service.clock.advance(1_800.0)
        channel.set_location(venue.location)
        if channel.check_in(venue.venue_id).rewarded:
            attack_ok += 1
    # An honest local, physically where they claim.
    honest = service.register_user("Honest Local")
    honest_ok = 0
    for venue in local_venues:
        service.clock.advance(1_800.0)
        registry.place(honest.user_id, venue.location)
        result = defended.check_in(
            honest.user_id, venue.venue_id, venue.location
        )
        if result.checkin.status is CheckInStatus.VALID:
            honest_ok += 1
    return attack_ok, honest_ok


def test_e14_inline_deployment(report_out, benchmark):
    def run_matrix():
        def alternating_wifi(service, fraction):
            # Register a router at every other venue, so half the ATTACKED
            # venues are covered (deploy_routers covers by ID order, which
            # would cover either all or none of the remote venue block).
            wifi = WifiVerificationService(fallback_accept=True)
            for venue in service.store.iter_venues():
                if venue.venue_id % 2 == 0:
                    wifi.register_router(
                        VenueRouter(
                            venue_id=venue.venue_id, location=venue.location
                        )
                    )
            return wifi

        scenarios = {
            "undefended": None,
            "distance bounding": lambda s, f: DistanceBoundingVerifier(seed=6),
            "wifi 100% coverage": lambda s, f: deploy_routers(s, fraction=1.0),
            "wifi 50% coverage": alternating_wifi,
        }
        results = {}
        for label, factory in scenarios.items():
            if factory is None:
                # Plain service: wrap with a pass-everything locator-less
                # path by calling the raw service directly.
                service = LbsnService()
                remote_venues = [
                    service.create_venue(
                        f"SF Venue {index}",
                        destination_point(
                            REMOTE, index * 24.0, 1_500.0 + 90.0 * index
                        ),
                    )
                    for index in range(15)
                ]
                attacker, _, channel = build_emulator_attacker(service)
                attack_ok = 0
                for venue in remote_venues:
                    service.clock.advance(1_800.0)
                    channel.set_location(venue.location)
                    if channel.check_in(venue.venue_id).rewarded:
                        attack_ok += 1
                results[label] = (attack_ok, 15, 15, 15)
                continue
            scene = build_scene(factory)
            attack_ok, honest_ok = attack_and_honest(scene)
            results[label] = (attack_ok, 15, honest_ok, 15)
        return results

    results = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    rows = ["deployment             attack success   honest success"]
    for label, (attack_ok, attack_n, honest_ok, honest_n) in results.items():
        rows.append(
            f"{label:<22} {attack_ok:>7}/{attack_n:<7} {honest_ok:>7}/{honest_n}"
        )
    rows.append(
        "(inline physics-based verification zeroes the E1 attack without "
        "touching honest users; partial Wi-Fi coverage stops exactly the "
        "covered venues)"
    )
    report_out("E14_inline_defense", rows)

    assert results["undefended"][0] == 15
    assert results["distance bounding"][0] == 0
    assert results["wifi 100% coverage"][0] == 0
    partial = results["wifi 50% coverage"][0]
    assert 0 < partial < 15
    for label in ("distance bounding", "wifi 100% coverage"):
        assert results[label][2] == 15, label
