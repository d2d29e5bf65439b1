"""E1 — §3.1 / Fig 3.2: every spoofing channel defeats GPS verification.

Reproduces the thesis's headline experiment: from Albuquerque, check into
Fisherman's Wharf Sign in San Francisco through each of the four spoofing
channels; earn points, the Adventurer badge after ten venues, and the
mayorship after four daily check-ins.
"""

from repro.attack.spoofing import (
    ApiHookSpoofer,
    BluetoothSpoofer,
    GpsModuleSpoofer,
    ServerApiSpoofer,
    build_emulator_attacker,
)
from repro.device.client_app import LbsnClientApp
from repro.device.emulator import Device
from repro.geo.coordinates import GeoPoint
from repro.geo.distance import destination_point
from repro.lbsn.api import LbsnApiServer
from repro.lbsn.service import LbsnService
from repro.simnet.http import HttpTransport, Router
from repro.simnet.network import Network

ABQ = GeoPoint(35.0844, -106.6504)
WHARF = GeoPoint(37.8080, -122.4177)


def fresh_service():
    service = LbsnService()
    wharf = service.create_venue(
        "Fisherman's Wharf Sign", WHARF, city="San Francisco, CA"
    )
    return service, wharf


def device_channel(service, channel_class):
    user = service.register_user("Attacker")
    device = Device(service.clock, ABQ, gps_seed=4)
    app = LbsnClientApp(service, device.location_api, user.user_id)
    return user, channel_class(device, app)


def api_channel(service):
    user = service.register_user("API Attacker")
    server = LbsnApiServer(service)
    router = Router()
    server.install_routes(router)
    network = Network(seed=2)
    transport = HttpTransport(router, network)
    token = server.tokens.issue(user.user_id)
    return user, ServerApiSpoofer(transport, network.create_egress(), token)


def run_all_channels():
    rows = []
    for label, build in (
        ("1 via GPS APIs (OS hook)", lambda s: device_channel(s, ApiHookSpoofer)),
        ("2a via GPS module (hardware)", lambda s: device_channel(s, GpsModuleSpoofer)),
        ("2b via GPS module (bluetooth sim)", lambda s: device_channel(s, BluetoothSpoofer)),
        ("3 via server APIs", api_channel),
        ("4 via device emulator", lambda s: build_emulator_attacker(s)[::2]),
    ):
        service, wharf = fresh_service()
        _, channel = build(service)
        channel.set_location(WHARF)
        outcome = channel.check_in(wharf.venue_id)
        rows.append(
            f"channel {label:<36} status={outcome.status.value:<8} "
            f"points={outcome.points} mayor={outcome.became_mayor}"
        )
        assert outcome.rewarded, label
    return rows


def run_badge_and_mayor_story():
    service, wharf = fresh_service()
    venues = [wharf] + [
        service.create_venue(
            f"SF Venue {index}",
            destination_point(WHARF, index * 36.0, 2_500.0 + 100.0 * index),
        )
        for index in range(9)
    ]
    user, emulator, channel = build_emulator_attacker(service)
    badges = []
    for venue in venues:
        service.clock.advance(1_800.0)
        channel.set_location(venue.location)
        outcome = channel.check_in(venue.venue_id)
        badges.extend(outcome.new_badges)
    mayor_days = 0
    for _ in range(4):
        service.clock.advance(86_400.0)
        channel.set_location(WHARF)
        if channel.check_in(wharf.venue_id).rewarded:
            mayor_days += 1
    return [
        f"distinct venues checked into: {len(venues)}",
        f"'Adventurer' badge earned: {'Adventurer' in badges}",
        f"daily wharf check-ins accepted: {mayor_days}/4",
        f"mayor of Fisherman's Wharf Sign: {wharf.mayor_id == user.user_id}",
        "(paper: all remote check-ins accepted; badge at 10 venues; "
        "mayor after 4 daily check-ins)",
    ]


def test_e1_all_channels_pass(benchmark, report_out):
    rows = benchmark.pedantic(run_all_channels, rounds=1, iterations=1)
    rows += run_badge_and_mayor_story()
    report_out("E1_spoofing", rows)


def test_e1_emulator_checkin_latency(benchmark):
    """Per-check-in cost through the full emulator + service pipeline."""
    service, _ = fresh_service()
    venues = [
        service.create_venue(
            f"V{index}", destination_point(WHARF, index * 3.6, 500.0 + index)
        )
        for index in range(100)
    ]
    _, _, channel = build_emulator_attacker(service)
    state = {"index": 0}

    def one_checkin():
        venue = venues[state["index"] % len(venues)]
        state["index"] += 1
        service.clock.advance(7_200.0)
        channel.set_location(venue.location)
        return channel.check_in(venue.venue_id)

    result = benchmark(one_checkin)
    assert result is not None
