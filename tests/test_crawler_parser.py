"""Unit tests for regex page extraction, round-tripped through the renderer."""

import pytest

from repro.crawler.parser import parse_user_page, parse_venue_page
from repro.errors import CrawlError
from repro.geo.coordinates import GeoPoint
from repro.lbsn.models import Special, User, Venue
from repro.lbsn.service import LbsnService
from repro.lbsn.webserver import LbsnWebServer

ABQ = GeoPoint(35.0844, -106.6504)


@pytest.fixture
def renderer():
    return LbsnWebServer(LbsnService())


class TestUserPage:
    def test_round_trip_all_fields(self, renderer):
        user = User(
            user_id=1852791,
            display_name="Mai R & Co",
            username="mai_r",
            home_city="Lincoln, NE",
            total_checkins=123,
            points=456,
        )
        user.badges = {"Newbie", "Adventurer"}
        user.friends = {2, 7}
        parsed = parse_user_page(renderer.render_user(user))
        assert parsed.user_id == 1852791
        assert parsed.display_name == "Mai R & Co"
        assert parsed.username == "mai_r"
        assert parsed.home_city == "Lincoln, NE"
        assert parsed.total_checkins == 123
        assert parsed.total_badges == 2
        assert parsed.points == 456
        assert parsed.friend_ids == [2, 7]

    def test_user_without_username(self, renderer):
        user = User(user_id=5, display_name="Anon")
        parsed = parse_user_page(renderer.render_user(user))
        assert parsed.username is None

    def test_garbage_page_raises(self):
        with pytest.raises(CrawlError):
            parse_user_page("<html>not a profile</html>")


class TestVenuePage:
    def _venue(self, **kwargs):
        venue = Venue(
            venue_id=1235677,
            name="Starbucks #17 <3",
            location=ABQ,
            address="1 Main St",
            city="Albuquerque, NM",
            **kwargs,
        )
        return venue

    def test_round_trip_core_fields(self, renderer):
        venue = self._venue()
        venue.checkin_count = 9
        venue.visitor_valid_counts = {1: 1, 2: 1, 3: 1}
        parsed = parse_venue_page(renderer.render_venue(venue))
        assert parsed.venue_id == 1235677
        assert parsed.name == "Starbucks #17 <3"
        assert parsed.address == "1 Main St"
        assert parsed.city == "Albuquerque, NM"
        assert parsed.latitude == pytest.approx(ABQ.latitude)
        assert parsed.longitude == pytest.approx(ABQ.longitude)
        assert parsed.checkins_here == 9
        assert parsed.unique_visitors == 3

    def test_mayor_extraction(self, renderer):
        venue = self._venue(mayor_id=77)
        parsed = parse_venue_page(renderer.render_venue(venue))
        assert parsed.mayor_id == 77

    def test_no_mayor(self, renderer):
        parsed = parse_venue_page(renderer.render_venue(self._venue()))
        assert parsed.mayor_id is None

    def test_special_kinds(self, renderer):
        mayor_venue = self._venue(special=Special("Free coffee!"))
        parsed = parse_venue_page(renderer.render_venue(mayor_venue))
        assert parsed.special == "Free coffee!"
        assert parsed.special_mayor_only

        open_venue = self._venue(
            special=Special("2nd visit", mayor_only=False, unlock_checkins=2)
        )
        parsed = parse_venue_page(renderer.render_venue(open_venue))
        assert not parsed.special_mayor_only

    def test_recent_visitors_in_order(self, renderer):
        venue = self._venue()
        for uid in (3, 1, 4):
            venue.record_recent_visitor(uid)
        parsed = parse_venue_page(renderer.render_venue(venue))
        assert parsed.recent_visitor_ids == [4, 1, 3]
        assert parsed.has_whos_been_here

    def test_whos_been_here_removed(self):
        # After Foursquare's patch, the crawler finds no visitor links.
        renderer = LbsnWebServer(LbsnService(), show_whos_been_here=False)
        venue = self._venue()
        venue.record_recent_visitor(5)
        parsed = parse_venue_page(renderer.render_venue(venue))
        assert parsed.recent_visitor_ids == []
        assert not parsed.has_whos_been_here

    def test_obfuscated_visitors_not_extractable(self):
        # §5.2 hashing defense: tokens yield no user ids to the regexes.
        renderer = LbsnWebServer(
            LbsnService(), visitor_obfuscator=lambda uid: f"v_{uid * 7:x}"
        )
        venue = self._venue()
        venue.record_recent_visitor(5)
        parsed = parse_venue_page(renderer.render_venue(venue))
        assert parsed.recent_visitor_ids == []
        assert parsed.has_whos_been_here

    def test_negative_coordinates_parse(self, renderer):
        venue = Venue(
            venue_id=1, name="South", location=GeoPoint(-33.86, 151.21)
        )
        parsed = parse_venue_page(renderer.render_venue(venue))
        assert parsed.latitude == pytest.approx(-33.86)
        assert parsed.longitude == pytest.approx(151.21)

    def test_garbage_page_raises(self):
        with pytest.raises(CrawlError):
            parse_venue_page("<html>nope</html>")
