"""Unit tests for the HTML profile pages the crawler targets."""

import pytest

from repro.geo.coordinates import GeoPoint
from repro.lbsn.models import Special
from repro.lbsn.service import LbsnService
from repro.lbsn.webserver import LbsnWebServer
from repro.simnet.http import HTTP_NOT_FOUND, HttpTransport, Router
from repro.simnet.network import Network

ABQ = GeoPoint(35.0844, -106.6504)


@pytest.fixture
def site():
    service = LbsnService()
    user = service.register_user(
        "Ann <script>", username="ann", home_city="Albuquerque, NM"
    )
    friend = service.register_user("Bob")
    user.add_friend(friend.user_id)
    venue = service.create_venue(
        "Taco & Co",
        ABQ,
        address="1 Main St",
        city="Albuquerque, NM",
        special=Special("Free taco for the mayor!"),
    )
    service.check_in(user.user_id, venue.venue_id, ABQ)
    webserver = LbsnWebServer(service)
    router = Router()
    webserver.install_routes(router)
    network = Network(seed=0)
    transport = HttpTransport(router, network)
    egress = network.create_egress()
    return service, user, venue, webserver, transport, egress


class TestUserPage:
    def test_served_by_numeric_id(self, site):
        service, user, venue, webserver, transport, egress = site
        response = transport.get(f"/user/{user.user_id}", egress)
        assert response.ok
        assert f'data-user-id="{user.user_id}"' in response.body

    def test_served_by_username(self, site):
        service, user, venue, webserver, transport, egress = site
        response = transport.get("/user/ann", egress)
        assert response.ok
        assert f'data-user-id="{user.user_id}"' in response.body

    def test_unknown_user_404(self, site):
        _, _, _, _, transport, egress = site
        assert transport.get("/user/99999", egress).status == HTTP_NOT_FOUND
        assert transport.get("/user/ghost", egress).status == HTTP_NOT_FOUND

    def test_html_escaping(self, site):
        service, user, venue, webserver, transport, egress = site
        body = transport.get(f"/user/{user.user_id}", egress).body
        assert "<script>" not in body
        assert "&lt;script&gt;" in body

    def test_stats_visible(self, site):
        service, user, venue, webserver, transport, egress = site
        body = transport.get(f"/user/{user.user_id}", egress).body
        assert '<span class="checkin-count">1</span>' in body
        assert '<span class="points">' in body

    def test_friends_linked(self, site):
        service, user, venue, webserver, transport, egress = site
        body = transport.get(f"/user/{user.user_id}", egress).body
        assert '<a class="friend" href="/user/2">' in body

    def test_mayorships_not_exposed(self, site):
        # §3.2: "A user's mayorships and check-in history are hidden from
        # the public" — the crawler must infer them from venue pages.
        service, user, venue, webserver, transport, egress = site
        body = transport.get(f"/user/{user.user_id}", egress).body
        assert 'class="mayor"' not in body
        assert "/venue/" not in body  # no check-in history links either


class TestVenuePage:
    def test_core_fields(self, site):
        service, user, venue, webserver, transport, egress = site
        body = transport.get(f"/venue/{venue.venue_id}", egress).body
        assert f'data-venue-id="{venue.venue_id}"' in body
        assert "Taco &amp; Co" in body
        assert f'<span class="latitude">{ABQ.latitude:.6f}</span>' in body
        assert '<span class="checkins-here">1</span>' in body

    def test_mayor_link(self, site):
        service, user, venue, webserver, transport, egress = site
        body = transport.get(f"/venue/{venue.venue_id}", egress).body
        assert f'<a class="mayor" href="/user/{user.user_id}">' in body

    def test_no_mayor_placeholder(self, site):
        service, user, venue, webserver, transport, egress = site
        lonely = service.create_venue("Lonely", ABQ)
        body = transport.get(f"/venue/{lonely.venue_id}", egress).body
        assert "No mayor yet" in body

    def test_special_rendered_with_kind(self, site):
        service, user, venue, webserver, transport, egress = site
        body = transport.get(f"/venue/{venue.venue_id}", egress).body
        assert '<div class="special mayor-only">' in body

    def test_whos_been_here_lists_visitors(self, site):
        service, user, venue, webserver, transport, egress = site
        body = transport.get(f"/venue/{venue.venue_id}", egress).body
        assert "Who's been here" in body
        assert f'<a class="visitor" href="/user/{user.user_id}">' in body

    def test_unknown_venue_404(self, site):
        _, _, _, _, transport, egress = site
        assert transport.get("/venue/424242", egress).status == HTTP_NOT_FOUND


class TestDefenseHooks:
    def test_whos_been_here_removable(self, site):
        # Foursquare removed the section right after the thesis's crawl.
        service, user, venue, webserver, transport, egress = site
        webserver.show_whos_been_here = False
        body = webserver.render_venue(venue)
        assert "Who's been here" not in body
        assert 'class="visitor"' not in body

    def test_visitor_obfuscation_hides_ids(self, site):
        service, user, venue, webserver, transport, egress = site
        webserver.visitor_obfuscator = lambda uid: f"anon-{uid % 7}"
        body = webserver.render_venue(venue)
        assert 'href="/user/' not in body.split("whos-been-here")[1]
        assert "anon-" in body
