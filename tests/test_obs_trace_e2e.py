"""End-to-end trace propagation: one ``trace_id`` links a check-in's
whole causal chain.

The acceptance scenario for the obs layer: a cheating tour runs through
:class:`DefendedLbsnService` with streaming detection attached, and the
check-in that tips the suspicion ledger over its threshold is
reconstructable from a single ``trace_id`` — the service's ``checkin``
log record, the store's ``store.commit`` record, the published bus
event, the activity detector's folded-in trace, and the ledger's
``ledger.flag`` record all carry the same ID.  The same ID then drives
the ``/debug/logs?trace_id=`` flight-recorder route over the simulated
HTTP stack, alongside regression checks for the ``/metrics`` scrape
headers and the other debug routes.
"""

import json

import pytest

from repro.analysis.detection import DetectorConfig
from repro.defense.distance_bounding import DistanceBoundingVerifier
from repro.defense.integration import (
    RULE_STREAM_SUSPECT,
    DefendedLbsnService,
    DeviceRegistry,
    registry_locator,
)
from repro.geo.coordinates import GeoPoint
from repro.lbsn.models import CheckInStatus
from repro.lbsn.service import LbsnService
from repro.lbsn.webserver import (
    JSON_CONTENT_TYPE,
    JSONL_CONTENT_TYPE,
    METRICS_CONTENT_TYPE,
    LbsnWebServer,
)
from repro.obs import LogHub, MetricsRegistry
from repro.obs.log import DEBUG
from repro.simnet.http import HTTP_BAD_REQUEST, HttpTransport, Router
from repro.simnet.network import Network
from repro.stream import CheckInAccepted, EventBus, SuspicionLedger

BASE_TS = 1_280_000_000.0  # 2010-07, the thesis's crawl summer
VENUES = 25  # enough distinct venues to saturate the activity factor
FLAG_AT = 20  # min_total_checkins: the stop whose event tips the ledger


@pytest.fixture(scope="module")
def tour():
    """One cheating tour through the fully instrumented stack."""
    registry = MetricsRegistry()
    hub = LogHub(ring_size=8192, level=DEBUG, metrics=registry)
    bus = EventBus(metrics=registry, log=hub)
    ledger = SuspicionLedger(
        DetectorConfig(min_total_checkins=20), metrics=registry, log=hub
    ).attach(bus)
    events = []
    bus.subscribe("capture", events.append)
    service = LbsnService(event_bus=bus, metrics=registry, log=hub)

    devices = DeviceRegistry()
    defended = DefendedLbsnService(
        service,
        DistanceBoundingVerifier(seed=7),
        registry_locator(devices),
        suspicion_ledger=ledger,
        metrics=registry,
        log=hub,
    )

    cheater = service.register_user("tour-cheater")
    venues = [
        service.create_venue(
            f"stop-{i}", GeoPoint(40.0 + i * 0.003, -96.0)
        )
        for i in range(VENUES)
    ]
    results = []
    for i, venue in enumerate(venues):
        # The cheater "really is" at each stop (the GPS spoof is in the
        # *pattern*, not any single claim), so distance bounding passes
        # and the streaming detectors see a clean accepted-event feed.
        devices.place(cheater.user_id, venue.location)
        results.append(
            defended.check_in(
                cheater.user_id,
                venue.venue_id,
                venue.location,
                timestamp=BASE_TS + i * 600.0,
            )
        )
    return {
        "registry": registry,
        "hub": hub,
        "ledger": ledger,
        "events": events,
        "service": service,
        "defended": defended,
        "cheater": cheater,
        "venues": venues,
        "results": results,
    }


class TestTraceChain:
    def test_tour_flags_the_cheater_and_inline_defense_cuts_it_short(
        self, tour
    ):
        ledger, cheater, results = (
            tour["ledger"],
            tour["cheater"],
            tour["results"],
        )
        assert ledger.is_suspect(cheater.user_id)
        report = ledger.score_user(cheater.user_id)
        assert report.activity_score == 1.0
        # The flag lands on stop 20; the inline defense then refuses the
        # rest of the tour, so only 20 check-ins ever reached the service.
        assert report.total_checkins == FLAG_AT
        assert all(r.rewarded for r in results[:FLAG_AT])
        assert all(
            r.checkin.status is CheckInStatus.REJECTED
            for r in results[FLAG_AT:]
        )

    def test_every_checkin_minted_its_own_trace(self, tour):
        records = tour["hub"].records(
            logger="lbsn.service", event="checkin"
        )
        ids = [record.trace_id for record in records]
        assert len(ids) == FLAG_AT
        assert all(ids)
        assert len(set(ids)) == FLAG_AT

    def test_one_trace_id_links_the_whole_flag_chain(self, tour):
        hub, ledger, cheater = tour["hub"], tour["ledger"], tour["cheater"]

        # The ledger flagged exactly once, and remembers which trace did it.
        (flag,) = hub.records(logger="stream.ledger", event="ledger.flag")
        trace_id = flag.trace_id
        assert trace_id is not None
        assert ledger.flag_trace_id(cheater.user_id) == trace_id

        # ... which is the 20th check-in of the tour (min_total_checkins).
        checkins = hub.records(logger="lbsn.service", event="checkin")
        assert checkins[FLAG_AT - 1].trace_id == trace_id

        # The triggering bus event carries the same ID ...  (so does the
        # request's MayorChanged event — the whole publish shares one
        # trace, which is exactly the point.)
        (event,) = [
            e
            for e in tour["events"]
            if isinstance(e, CheckInAccepted) and e.trace_id == trace_id
        ]
        assert event.user_id == cheater.user_id

        # ... as do the service and store records of that request, with
        # matching identities (same check-in, same commit sequence).
        chain = hub.records(trace_id=trace_id)
        by_event = {record.event: record for record in chain}
        assert {"checkin", "store.commit"} <= set(by_event)
        assert by_event["checkin"].fields["seq"] == event.seq
        assert (
            by_event["store.commit"].fields["checkin_id"]
            == by_event["checkin"].fields["checkin_id"]
        )
        assert by_event["ledger.flag"].fields["user_id"] == cheater.user_id

        # One grep of the JSONL export replays the same chain.
        lines = [
            json.loads(line)
            for line in hub.export_jsonl().splitlines()
            if json.loads(line).get("trace_id") == trace_id
        ]
        assert {obj["event"] for obj in lines} >= {
            "checkin",
            "store.commit",
            "ledger.flag",
        }

    def test_refusals_run_under_their_own_traces(self, tour):
        hub, results = tour["hub"], tour["results"]
        refused = results[FLAG_AT:]
        assert all(
            r.checkin.flagged_rule == RULE_STREAM_SUSPECT for r in refused
        )
        refusals = hub.records(logger="defense", event="defense.refused")
        assert len(refusals) == VENUES - FLAG_AT
        for refusal in refusals:
            assert refusal.trace_id is not None
            assert refusal.fields["rule"] == RULE_STREAM_SUSPECT
            # The refusal happened before the service, so its trace never
            # reached the check-in log.
            assert not hub.records(
                logger="lbsn.service", trace_id=refusal.trace_id
            )

    def test_defense_metrics_populated(self, tour):
        flat = tour["registry"].snapshot()
        verdicts = flat["repro_defense_verdicts_total"]
        assert verdicts[("distance-bounding", "accept")] == float(FLAG_AT)
        actions = flat["repro_defense_actions_total"]
        assert actions[("verified",)] == float(FLAG_AT)
        assert actions[("ledger_refused",)] == float(VENUES - FLAG_AT)
        latency = flat["repro_defense_check_seconds"]
        assert latency[("distance-bounding",)] == float(FLAG_AT)


class TestOperationalRoutes:
    @pytest.fixture()
    def web(self, tour):
        webserver = LbsnWebServer(tour["service"])
        router = Router()
        webserver.install_routes(router)
        network = Network(seed=0)
        transport = HttpTransport(router, network)
        return transport, network.create_egress()

    def test_metrics_scrape_headers(self, web, tour):
        transport, egress = web
        response = transport.get("/metrics", egress)
        assert response.ok
        assert response.headers["Content-Type"] == METRICS_CONTENT_TYPE
        assert int(response.headers["Content-Length"]) == len(
            response.body.encode("utf-8")
        )
        assert "repro_lbsn_checkins_total" in response.body

    def test_debug_vars_shares_the_json_serializer(self, web, tour):
        transport, egress = web
        response = transport.get("/debug/vars", egress)
        assert response.ok
        assert response.headers["Content-Type"] == JSON_CONTENT_TYPE
        assert int(response.headers["Content-Length"]) == len(
            response.body.encode("utf-8")
        )
        parsed = json.loads(response.body)
        family = parsed["repro_lbsn_checkins_total"]
        assert family["kind"] == "counter"
        values = {
            sample["labels"]["status"]: sample["value"]
            for sample in family["samples"]
        }
        assert values["valid"] == float(FLAG_AT)

    def test_debug_traces_lists_slow_spans(self, web, tour):
        transport, egress = web
        response = transport.get("/debug/traces", egress)
        assert response.ok
        parsed = json.loads(response.body)
        assert "slow_threshold_s" in parsed
        assert isinstance(parsed["spans"], list)

    def test_debug_logs_replays_one_trace(self, web, tour):
        transport, egress = web
        (flag,) = tour["hub"].records(
            logger="stream.ledger", event="ledger.flag"
        )
        response = transport.get(
            "/debug/logs", egress, params={"trace_id": flag.trace_id}
        )
        assert response.ok
        assert response.headers["Content-Type"] == JSONL_CONTENT_TYPE
        lines = [json.loads(line) for line in response.body.splitlines()]
        assert len(lines) >= 3
        assert all(obj["trace_id"] == flag.trace_id for obj in lines)
        assert {obj["event"] for obj in lines} >= {
            "checkin",
            "store.commit",
            "ledger.flag",
        }

    def test_debug_logs_limit_and_event_filters(self, web, tour):
        transport, egress = web
        response = transport.get(
            "/debug/logs",
            egress,
            params={"event": "checkin", "limit": "5"},
        )
        lines = [json.loads(line) for line in response.body.splitlines()]
        assert len(lines) == 5
        assert all(obj["event"] == "checkin" for obj in lines)
        response = transport.get("/debug/logs", egress, params={"limit": "0"})
        assert response.ok and response.body == ""
        for bad in ("ten", "-3", "1.5"):
            response = transport.get(
                "/debug/logs", egress, params={"limit": bad}
            )
            assert response.status == HTTP_BAD_REQUEST, bad
