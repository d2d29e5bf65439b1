"""Integration tests: the crawler against the live simulated site."""

import re
import threading

import pytest

from repro.crawler.crawler import MultiThreadedCrawler
from repro.crawler.database import CrawlDatabase
from repro.crawler.frontier import CrawlMode
from repro.errors import CrawlError
from repro.geo import GeoPoint
from repro.lbsn import LbsnService
from repro.lbsn.webserver import LbsnWebServer
from repro.simnet.http import HTTP_FORBIDDEN, HttpResponse, HttpTransport, Router
from repro.simnet.network import Network


class TestFullCrawl:
    def test_complete_coverage(self, world, web_stack, crawl):
        database, user_stats, venue_stats = crawl
        assert database.user_count() == world.service.store.user_count()
        assert database.venue_count() == world.service.store.venue_count()
        assert user_stats.hits == database.user_count()
        assert venue_stats.hits == database.venue_count()

    def test_crawled_profiles_match_ground_truth(self, world, crawl_db):
        for user in list(world.service.store.iter_users())[:50]:
            row = crawl_db.user(user.user_id)
            assert row is not None
            assert row.total_checkins == user.total_checkins
            assert row.total_badges == user.badge_count
            assert row.user_name == user.username

    def test_crawled_venue_coordinates(self, world, crawl_db):
        for venue in list(world.service.store.iter_venues())[:50]:
            row = crawl_db.venue(venue.venue_id)
            assert row.latitude == pytest.approx(
                venue.location.latitude, abs=1e-5
            )
            assert row.longitude == pytest.approx(
                venue.location.longitude, abs=1e-5
            )

    def test_mayor_ids_match(self, world, crawl_db):
        matched = 0
        for venue in world.service.store.iter_venues():
            row = crawl_db.venue(venue.venue_id)
            assert row.mayor_id == venue.mayor_id
            if venue.mayor_id is not None:
                matched += 1
        assert matched > 0

    def test_total_mayors_inferred_from_venue_pages(self, world, crawl_db):
        # §3.2: mayorships are hidden on user pages but reconstructible.
        farmer = world.roster.mayor_farmer
        row = crawl_db.user(farmer.user_id)
        assert row.total_mayors == world.service.mayorship_count(
            farmer.user_id
        )

    def test_recent_checkins_match_visitor_lists(self, world, crawl_db):
        sample = list(world.service.store.iter_venues())[:100]
        for venue in sample:
            row_ids = set(
                r.user_id
                for r in crawl_db.recent_checkins()
                if r.venue_id == venue.venue_id
            )
            assert row_ids == set(venue.recent_visitors)


class TestCrawlerMechanics:
    def test_stop_at_partitioning(self, world, web_stack):
        database = CrawlDatabase()
        egress = web_stack.network.create_egress()
        crawler = MultiThreadedCrawler(
            web_stack.transport,
            database,
            CrawlMode.USER,
            [egress],
            threads_per_machine=4,
            stop_at=50,
        )
        stats = crawler.run()
        assert database.user_count() == 50
        assert stats.pages_fetched == 50

    def test_throughput_stats_populated(self, crawl):
        _, user_stats, venue_stats = crawl
        assert user_stats.wall_seconds > 0
        assert user_stats.profiles_per_hour > 0
        assert user_stats.mode is CrawlMode.USER
        assert venue_stats.mode is CrawlMode.VENUE

    def test_crawl_aborts_when_blocked(self, world, web_stack):
        # A hard 403 wall: the crawler gives up instead of spinning.
        from repro.simnet.http import HttpTransport, Router
        from repro.simnet.network import Network

        network = Network(seed=1)
        router = Router()
        transport = HttpTransport(router, network)
        transport.add_middleware(
            lambda request: HttpResponse(status=HTTP_FORBIDDEN, body="no")
        )
        crawler = MultiThreadedCrawler(
            transport,
            CrawlDatabase(),
            CrawlMode.USER,
            [network.create_egress()],
            threads_per_machine=2,
            stop_at=100_000,
            abort_after_failures=50,
        )
        stats = crawler.run()
        assert crawler.aborted
        assert stats.failures >= 50
        assert stats.hits == 0

    def test_malformed_number_is_a_parse_failure(self, monkeypatch):
        # A latitude float() rejects must not kill the worker thread: the
        # page counts as one failure and the crawl goes on to the next ID.
        service = LbsnService()
        for index in range(5):
            service.create_venue(f"V{index}", GeoPoint(35.0 + index, -106.0))
        webserver = LbsnWebServer(service)
        router = Router()
        webserver.install_routes(router)
        network = Network(seed=1)
        transport = HttpTransport(router, network)

        def bad_latitude_on_page_2(request):
            if request.path != "/venue/2":
                return None
            page = router.dispatch(request).body
            return HttpResponse(body=re.sub(
                r'(<span class="latitude">)[^<]*', r"\g<1>1.5.0", page
            ))

        transport.add_middleware(bad_latitude_on_page_2)
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        database = CrawlDatabase()
        crawler = MultiThreadedCrawler(
            transport,
            database,
            CrawlMode.VENUE,
            [network.create_egress()],
            threads_per_machine=1,
            stop_at=5,
        )
        stats = crawler.run()
        assert uncaught == []
        assert database.venue_count() == 4
        assert database.venue(2) is None
        assert stats.failures == 1
        assert stats.hits == 4

    def test_invalid_construction(self, world, web_stack):
        with pytest.raises(CrawlError):
            MultiThreadedCrawler(
                web_stack.transport, CrawlDatabase(), CrawlMode.USER, []
            )
        with pytest.raises(CrawlError):
            MultiThreadedCrawler(
                web_stack.transport,
                CrawlDatabase(),
                CrawlMode.USER,
                [web_stack.network.create_egress()],
                threads_per_machine=0,
            )


class TestRepeatedCrawls:
    def test_recrawl_updates_rows(self, world, web_stack):
        # "by repeatedly crawling data and comparing the differences ...
        # we can further investigate the behaviors of its users."
        database = CrawlDatabase()
        egress = web_stack.network.create_egress()
        for _ in range(2):
            crawler = MultiThreadedCrawler(
                web_stack.transport,
                database,
                CrawlMode.USER,
                [egress],
                threads_per_machine=4,
                stop_at=30,
            )
            crawler.run()
        assert database.user_count() == 30
