"""End-to-end observability wiring: every instrumented layer exports into
one shared registry and the webserver serves it.  The documentation
catalogue's parity with the registry is tests/test_docs_parity.py."""

from repro.crawler import crawl_full_site
from repro.geo.coordinates import GeoPoint
from repro.lbsn.models import CheckInStatus
from repro.lbsn.service import RULE_GPS_VERIFICATION, LbsnService
from repro.lbsn.webserver import METRICS_CONTENT_TYPE, LbsnWebServer
from repro.obs import MetricsRegistry
from repro.simnet.http import HttpTransport, Router
from repro.simnet.network import Network
from repro.stream import (
    CheckInAccepted,
    EventBus,
    StreamEvent,
    SuspicionLedger,
)

ABQ = GeoPoint(35.0844, -106.6504)
FAR_AWAY = GeoPoint(40.7128, -74.0060)  # NYC, ~3000 km from ABQ


class TestServicePipelineMetrics:
    def test_checkin_outcomes_and_denials_are_counted(self):
        registry = MetricsRegistry()
        service = LbsnService(metrics=registry)
        user = service.register_user("Ann")
        venue = service.create_venue("Cafe", ABQ)

        service.check_in(user.user_id, venue.venue_id, ABQ, timestamp=0.0)
        # Same venue within the hour: rejected by the cheater code.
        service.check_in(user.user_id, venue.venue_id, ABQ, timestamp=60.0)
        # Reported GPS fix thousands of km from the venue: rejected.
        service.check_in(
            user.user_id, venue.venue_id, FAR_AWAY, timestamp=7_200.0
        )

        snap = registry.snapshot()
        assert snap["repro_lbsn_checkins_total"][("valid",)] == 1
        assert snap["repro_lbsn_checkins_total"][("rejected",)] == 2
        denials = snap["repro_lbsn_checkin_denials_total"]
        assert denials[("frequent-checkins",)] == 1
        assert denials[(RULE_GPS_VERIFICATION,)] == 1
        assert snap["repro_lbsn_users_registered_total"][()] == 1
        assert snap["repro_lbsn_venues_created_total"][()] == 1

    def test_every_checkin_runs_under_the_commit_span(self):
        registry = MetricsRegistry()
        service = LbsnService(metrics=registry)
        user = service.register_user("Ann")
        venue = service.create_venue("Cafe", ABQ)
        for hour in range(3):
            service.check_in(
                user.user_id,
                venue.venue_id,
                ABQ,
                timestamp=hour * 7_200.0,
            )
        assert service.tracer.span_count == 3
        family = registry.get("repro_span_seconds")
        assert family.labels("checkin.commit").count == 3

    def test_store_gauges_track_entity_counts(self):
        registry = MetricsRegistry()
        service = LbsnService(metrics=registry)
        for index in range(3):
            service.register_user(f"user-{index}")
        service.create_venue("Cafe", ABQ)
        snap = registry.snapshot()
        assert snap["repro_store_users"][()] == 3
        assert snap["repro_store_venues"][()] == 1

    def test_uninstrumented_service_exports_nothing(self):
        service = LbsnService()
        assert service.metrics is None
        assert service.tracer is None
        user = service.register_user("Ann")
        venue = service.create_venue("Cafe", ABQ)
        result = service.check_in(user.user_id, venue.venue_id, ABQ)
        assert result.checkin.status is CheckInStatus.VALID


class TestWebserverMetricsRoute:
    def _stack(self, registry):
        service = LbsnService(metrics=registry)
        user = service.register_user("Ann")
        venue = service.create_venue("Cafe", ABQ)
        service.check_in(user.user_id, venue.venue_id, ABQ)
        webserver = LbsnWebServer(service)
        router = Router()
        webserver.install_routes(router)
        network = Network(seed=0)
        transport = HttpTransport(router, network)
        return transport, network.create_egress()

    def test_metrics_route_serves_the_service_registry(self):
        registry = MetricsRegistry()
        transport, egress = self._stack(registry)
        response = transport.get("/metrics", egress)
        assert response.ok
        assert response.headers["Content-Type"] == METRICS_CONTENT_TYPE
        assert 'repro_lbsn_checkins_total{status="valid"} 1' in response.body
        assert "# TYPE repro_span_seconds histogram" in response.body

    def test_no_registry_means_no_metrics_route(self):
        service = LbsnService()  # no metrics
        webserver = LbsnWebServer(service)
        router = Router()
        webserver.install_routes(router)
        network = Network(seed=0)
        transport = HttpTransport(router, network)
        response = transport.get("/metrics", network.create_egress())
        assert not response.ok


def make_event(ts=0.0):
    return StreamEvent(seq=-1, timestamp=ts)


class TestBusMetrics:
    def test_published_and_delivered_counters(self):
        registry = MetricsRegistry()
        bus = EventBus(metrics=registry)
        bus.subscribe("sink", lambda event: None)
        for _ in range(10):
            bus.publish(make_event())
        bus.close()
        snap = registry.snapshot()
        assert snap["repro_bus_published_total"][()] == 10
        assert snap["repro_bus_delivered_total"][("sink",)] == 10

    def test_subscriber_errors_are_counted(self):
        registry = MetricsRegistry()
        bus = EventBus(metrics=registry)

        def explode(event):
            raise RuntimeError("subscriber bug")

        bus.subscribe("buggy", explode)
        bus.publish(make_event())
        bus.close()
        snap = registry.snapshot()
        assert snap["repro_bus_subscriber_errors_total"][("buggy",)] == 1
        # Errors still count as delivered (the callback was invoked).
        assert snap["repro_bus_delivered_total"][("buggy",)] == 1


def accepted(user_id, venue_id, ts, where=ABQ, badges=0):
    return CheckInAccepted(
        seq=-1,
        timestamp=ts,
        user_id=user_id,
        venue_id=venue_id,
        venue_location=where,
        reported_location=where,
        new_badge_count=badges,
    )


class TestLedgerMetrics:
    def test_scored_events_and_suspects_exported(self):
        from repro.analysis.detection import DetectorConfig

        registry = MetricsRegistry()
        ledger = SuspicionLedger(
            DetectorConfig(min_total_checkins=20), metrics=registry
        )
        for index in range(25):
            ledger.on_event(accepted(1, index, ts=float(index), badges=2))
        snap = registry.snapshot()
        assert snap["repro_ledger_checkins_scored_total"][()] == 25
        if ledger.is_suspect(1):
            assert snap["repro_ledger_flags_raised_total"][()] >= 1
            assert snap["repro_ledger_suspects"][()] == len(ledger)


class TestCrawlerMetrics:
    def _site_transport(self):
        service = LbsnService()
        user = service.register_user("Ann", username="ann")
        venue = service.create_venue("Cafe", ABQ)
        service.check_in(user.user_id, venue.venue_id, ABQ)
        webserver = LbsnWebServer(service)
        router = Router()
        webserver.install_routes(router)
        network = Network(seed=0)
        return HttpTransport(router, network), network

    def test_crawl_exports_pages_and_throughput(self):
        registry = MetricsRegistry()
        transport, network = self._site_transport()
        database, user_stats, venue_stats = crawl_full_site(
            transport,
            [network.create_egress()],
            user_threads_per_machine=2,
            venue_threads_per_machine=2,
            metrics=registry,
        )
        snap = registry.snapshot()
        pages = snap["repro_crawler_pages_fetched_total"]
        assert pages[("user", "hit")] == user_stats.hits
        assert pages[("venue", "hit")] == venue_stats.hits
        assert pages[("user", "miss")] == user_stats.misses
        assert pages[("venue", "miss")] == venue_stats.misses
        # The fetch histogram saw every page attempt.
        fetches = snap["repro_crawler_fetch_seconds"][()]
        assert fetches == user_stats.pages_fetched + venue_stats.pages_fetched
        # Per-thread attempt counters cover all attempts.
        thread_pages = snap["repro_crawler_thread_pages_total"]
        assert sum(thread_pages.values()) == fetches
        # Throughput gauges were published for both passes.
        throughput = snap["repro_crawler_pages_per_second"]
        assert throughput[("user",)] > 0
        assert throughput[("venue",)] > 0
