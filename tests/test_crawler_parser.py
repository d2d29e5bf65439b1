"""Unit tests for regex page extraction, round-tripped through the renderer."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawler.parser import (
    _USER_PAGE,
    _VENUE_PAGE,
    _parse_user_fields,
    _parse_venue_fields,
    parse_user_page,
    parse_venue_page,
)
from repro.defense import hashed_visitor_obfuscator
from repro.errors import CrawlError
from repro.geo.coordinates import GeoPoint
from repro.lbsn.models import Special, Tip, User, Venue
from repro.lbsn.service import LbsnService
from repro.lbsn.webserver import LbsnWebServer
from repro.workload import build_world

ABQ = GeoPoint(35.0844, -106.6504)

#: The three ways the site renders a venue page: with "Who's been here"
#: links, with the list removed, and with visitor IDs obfuscated (§5.2).
RENDERERS = {
    "visitor-links": {},
    "no-whos-been-here": {"show_whos_been_here": False},
    "obfuscated-visitors": {
        "visitor_obfuscator": hashed_visitor_obfuscator(b"parser-test")
    },
}


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

    @pytest.mark.parametrize("template", [True, False])
    def test_malformed_coordinate_raises_crawl_error(self, renderer, template):
        page = re.sub(
            r'(<span class="latitude">)[^<]*',
            r"\g<1>1.5.0",
            renderer.render_venue(self._venue()),
        )
        if not template:
            page = page.replace("<!DOCTYPE html>\n", "")
        assert (_VENUE_PAGE.fullmatch(page) is not None) is template
        with pytest.raises(CrawlError, match="latitude"):
            parse_venue_page(page)


#: Text that exercises escaping: markup characters, quotes, non-ASCII,
#: newlines and surrounding white space.
page_text = st.text(
    alphabet=st.one_of(
        st.sampled_from("&<>\"' \n\tab"),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=16,
)
ids = st.integers(min_value=1, max_value=10**9)
counts = st.integers(min_value=0, max_value=10**6)
up_to_twelve = dict(max_size=12)


@st.composite
def users(draw):
    user = User(
        user_id=draw(ids),
        display_name=draw(page_text),
        username=draw(
            st.one_of(
                st.none(),
                st.from_regex(r"[A-Za-z0-9_\-]{1,12}", fullmatch=True),
                page_text,
            )
        ),
        home_city=draw(page_text),
        total_checkins=draw(counts),
        points=draw(counts),
    )
    user.badges = frozenset(draw(st.lists(page_text, **up_to_twelve)))
    user.friends = frozenset(draw(st.lists(ids, **up_to_twelve)))
    return user


@st.composite
def venues(draw):
    special = draw(
        st.one_of(
            st.none(),
            st.builds(Special, page_text, st.booleans(), st.integers(1, 5)),
        )
    )
    venue = Venue(
        venue_id=draw(ids),
        name=draw(page_text),
        location=GeoPoint(
            draw(st.floats(min_value=-90, max_value=90)),
            draw(st.floats(min_value=-180, max_value=180)),
        ),
        address=draw(page_text),
        city=draw(page_text),
        special=special,
        mayor_id=draw(st.one_of(st.none(), ids)),
    )
    venue.checkin_count = draw(counts)
    venue.visitor_valid_counts = {
        uid: 1 for uid in range(draw(st.integers(0, 40)))
    }
    venue.recent_visitors = draw(st.lists(ids, **up_to_twelve))
    venue.tips = [
        Tip(author_id=author, text=text, created_at=0.0)
        for author, text in draw(
            st.lists(st.tuples(ids, page_text), **up_to_twelve)
        )
    ]
    return venue


class TestTemplateMatchesFieldSearches:
    """The one-pass templates give exactly the per-field searches' answer."""

    @settings(max_examples=150, deadline=None)
    @given(user=users(), config=st.sampled_from(sorted(RENDERERS)))
    def test_user_pages(self, user, config):
        page = LbsnWebServer(LbsnService(), **RENDERERS[config]).render_user(user)
        assert _USER_PAGE.fullmatch(page) is not None
        assert parse_user_page(page) == _parse_user_fields(page)

    @settings(max_examples=150, deadline=None)
    @given(venue=venues(), config=st.sampled_from(sorted(RENDERERS)))
    def test_venue_pages(self, venue, config):
        page = LbsnWebServer(LbsnService(), **RENDERERS[config]).render_venue(
            venue
        )
        assert _VENUE_PAGE.fullmatch(page) is not None
        assert parse_venue_page(page) == _parse_venue_fields(page)

    def test_username_outside_charset_parses_as_none(self, renderer):
        user = User(user_id=5, display_name="Anon", username="a.b c")
        page = renderer.render_user(user)
        assert _USER_PAGE.fullmatch(page) is not None
        assert parse_user_page(page).username is None

    def test_hand_written_page_takes_the_field_searches(self):
        page = (
            '<div data-user-id="9"><h1 class="fn"> Ann </h1>'
            '<span class="checkin-count">3</span>'
            '<span class="badge-count">1</span><span class="points">20</span>'
        )
        assert _USER_PAGE.fullmatch(page) is None
        assert parse_user_page(page) == _parse_user_fields(page)
        assert parse_user_page(page).display_name == "Ann"

    def test_unescaped_title_takes_the_field_searches(self, renderer):
        # The per-field search takes the first data-user-id on the page,
        # which an unescaped title can hold.
        page = renderer.render_user(User(user_id=9, display_name="Ann"))
        page = page.replace("<title>Ann", '<title>data-user-id="5" Ann', 1)
        assert parse_user_page(page) == _parse_user_fields(page)
        assert parse_user_page(page).user_id == 5


def test_every_seeded_page_takes_the_template():
    """Every page of a seeded world parses in the one-pass template.

    Fails when the renderer's markup changes and the templates do not:
    the pages would still parse, through the per-field searches, but the
    crawl would lose the one-pass speed-up without any test noticing.
    """
    world = build_world(scale=0.0005, seed=1)
    store = world.service.store
    for config, options in RENDERERS.items():
        renderer = LbsnWebServer(world.service, **options)
        missed = [
            user.user_id
            for user in store.iter_users()
            if _USER_PAGE.fullmatch(renderer.render_user(user)) is None
        ] + [
            venue.venue_id
            for venue in store.iter_venues()
            if _VENUE_PAGE.fullmatch(renderer.render_venue(venue)) is None
        ]
        assert not missed, f"{config}: {len(missed)} pages missed the template"
