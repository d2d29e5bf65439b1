"""Tests for friend-graph generation and the co-location friendship signal."""

import pytest

from repro.errors import ReproError
from repro.lbsn.service import LbsnService
from repro.workload.population import PopulationGenerator
from repro.workload.social import SocialGraphConfig, generate_friend_graph


@pytest.fixture(scope="module")
def graph_setup():
    service = LbsnService()
    generator = PopulationGenerator(service, seed=9)
    population = generator.generate(600)
    graph = generate_friend_graph(service, population.specs, seed=10)
    return service, population, graph


class TestGeneration:
    def test_edges_symmetric_on_user_records(self, graph_setup):
        service, population, graph = graph_setup
        for user_a, user_b in list(graph.edges)[:100]:
            first = service.store.get_user(user_a)
            second = service.store.get_user(user_b)
            assert user_b in first.friends
            assert user_a in second.friends

    def test_no_self_edges(self, graph_setup):
        _, _, graph = graph_setup
        assert all(a != b for a, b in graph.edges)

    def test_mean_degree_near_target(self, graph_setup):
        service, population, graph = graph_setup
        active = [s for s in population.specs if s.target_checkins > 0]
        degrees = [graph.degree(s.user_id) for s in active[:150]]
        mean = sum(degrees) / len(degrees)
        assert 1.0 < mean < 10.0

    def test_homophily(self, graph_setup):
        service, population, graph = graph_setup
        city_of = {s.user_id: s.home_city.name for s in population.specs}
        same = cross = 0
        for user_a, user_b in graph.edges:
            if city_of.get(user_a) == city_of.get(user_b):
                same += 1
            else:
                cross += 1
        assert same > cross

    def test_inactive_users_sparser(self, graph_setup):
        service, population, graph = graph_setup
        inactive = [s for s in population.specs if s.target_checkins == 0]
        active = [s for s in population.specs if s.target_checkins > 0]
        inactive_mean = sum(
            graph.degree(s.user_id) for s in inactive
        ) / max(1, len(inactive))
        active_mean = sum(graph.degree(s.user_id) for s in active) / max(
            1, len(active)
        )
        assert inactive_mean < active_mean

    def test_are_friends_symmetric(self, graph_setup):
        _, _, graph = graph_setup
        user_a, user_b = next(iter(graph.edges))
        assert graph.are_friends(user_a, user_b)
        assert graph.are_friends(user_b, user_a)
        assert not graph.are_friends(user_a, user_a)

    def test_invalid_config(self):
        service = LbsnService()
        with pytest.raises(ReproError):
            generate_friend_graph(
                service, [], config=SocialGraphConfig(mean_degree=-1.0)
            )


class TestCrawledFriends:
    def test_friend_ids_crawled(self, world, crawl_db):
        """Friend lists round-trip through the HTML pages into the crawl."""
        with_friends = [
            user
            for user in world.service.store.iter_users()
            if user.friends
        ][:30]
        assert with_friends
        for user in with_friends:
            row = crawl_db.user(user.user_id)
            assert set(row.friend_ids) == user.friends


class TestFriendshipSignal:
    def test_colocation_predicts_friendship(self):
        """Friends who really go places together are recovered with high
        lift over the base friendship rate."""
        from repro.analysis.privacy import friendship_signal
        from repro.crawler.snapshots import SnapshotStore
        from repro.geo.coordinates import GeoPoint
        from repro.lbsn.webserver import LbsnWebServer
        from repro.simnet.clock import SECONDS_PER_DAY
        from repro.simnet.http import HttpTransport, Router
        from repro.simnet.network import Network

        service = LbsnService()
        anchor = GeoPoint(41.0, -96.0)
        users = [service.register_user(f"U{i}") for i in range(20)]
        venues = [
            service.create_venue(f"V{i}", anchor) for i in range(40)
        ]
        # Users 0&1 are friends and move together; everyone else solo.
        users[0].add_friend(users[1].user_id)
        users[1].add_friend(users[0].user_id)
        router = Router()
        LbsnWebServer(service).install_routes(router)
        network = Network(seed=1)
        transport = HttpTransport(router, network, clock=service.clock)
        store = SnapshotStore(transport, [network.create_egress()], service.clock)
        store.take_snapshot()
        for day in range(4):
            service.clock.advance(SECONDS_PER_DAY)
            now = service.clock.now()
            venue = venues[day]
            service.check_in(users[0].user_id, venue.venue_id, anchor, timestamp=now)
            service.check_in(
                users[1].user_id, venue.venue_id, anchor, timestamp=now + 900.0
            )
            solo_venue = venues[10 + day]
            service.check_in(
                users[2 + day].user_id,
                solo_venue.venue_id,
                anchor,
                timestamp=now + 1_800.0,
            )
            store.take_snapshot()
        signal = friendship_signal(
            store.diffs(), store.latest().database, min_occurrences=2
        )
        assert signal.co_located_pairs >= 1
        assert signal.co_located_friend_rate == 1.0
        assert signal.lift > 10.0
