"""Unit tests for the three-table crawl database (Fig 3.3)."""

import sys
import threading

from repro.crawler.database import CrawlDatabase, like_to_regex
from repro.crawler.parser import ParsedUser, ParsedVenue


def parsed_user(user_id, username=None, total_checkins=0, total_badges=0):
    return ParsedUser(
        user_id=user_id,
        display_name=f"U{user_id}",
        username=username,
        home_city="",
        total_checkins=total_checkins,
        total_badges=total_badges,
        points=0,
    )


def parsed_venue(
    venue_id,
    name=None,
    mayor_id=None,
    recent_visitor_ids=(),
    latitude=35.0,
    longitude=-106.0,
):
    return ParsedVenue(
        venue_id=venue_id,
        name=name or f"V{venue_id}",
        address="",
        city="",
        latitude=latitude,
        longitude=longitude,
        checkins_here=1,
        unique_visitors=1,
        mayor_id=mayor_id,
        special=None,
        special_mayor_only=False,
        recent_visitor_ids=list(recent_visitor_ids),
    )


class TestLikePatterns:
    def test_contains(self):
        regex = like_to_regex("%Starbucks%")
        assert regex.match("Starbucks #12")
        assert regex.match("Downtown Starbucks")
        assert not regex.match("Dunkin Donuts")

    def test_case_insensitive(self):
        assert like_to_regex("%starbucks%").match("STARBUCKS #1")

    def test_underscore_single_char(self):
        regex = like_to_regex("V_")
        assert regex.match("V1")
        assert not regex.match("V12")

    def test_literal_specials_escaped(self):
        regex = like_to_regex("Taco (Best)%")
        assert regex.match("Taco (Best) Place")
        assert not regex.match("Taco Best Place")


class TestTables:
    def test_upsert_user_and_refresh(self):
        db = CrawlDatabase()
        db.upsert_user(parsed_user(1, total_checkins=5))
        db.upsert_user(parsed_user(1, total_checkins=9))
        assert db.user_count() == 1
        assert db.user(1).total_checkins == 9

    def test_upsert_user_preserves_derived(self):
        db = CrawlDatabase()
        db.upsert_user(parsed_user(1))
        db.upsert_venue(parsed_venue(10, recent_visitor_ids=[1]))
        db.recompute_derived()
        assert db.user(1).recent_checkins == 1
        db.upsert_user(parsed_user(1, total_checkins=3))  # re-crawl
        assert db.user(1).recent_checkins == 1

    def test_upsert_venue_records_recent_checkins(self):
        db = CrawlDatabase()
        db.upsert_venue(parsed_venue(10, recent_visitor_ids=[1, 2]))
        rows = db.recent_checkins()
        assert {(r.user_id, r.venue_id) for r in rows} == {(1, 10), (2, 10)}

    def test_recent_checkins_deduplicated(self):
        db = CrawlDatabase()
        db.upsert_venue(parsed_venue(10, recent_visitor_ids=[1]))
        db.upsert_venue(parsed_venue(10, recent_visitor_ids=[1]))
        assert len(db.recent_checkins()) == 1

    def test_recent_venues_of_user(self):
        db = CrawlDatabase()
        db.upsert_venue(parsed_venue(10, recent_visitor_ids=[1]))
        db.upsert_venue(parsed_venue(11, recent_visitor_ids=[1, 2]))
        assert db.recent_venues_of_user(1) == [10, 11]
        assert db.recent_venues_of_user(2) == [11]


class TestDerivedColumns:
    def test_total_mayors_from_venue_mayor_ids(self):
        db = CrawlDatabase()
        db.upsert_user(parsed_user(42))
        for venue_id in range(1, 6):
            db.upsert_venue(parsed_venue(venue_id, mayor_id=42))
        db.upsert_venue(parsed_venue(6, mayor_id=7))
        db.recompute_derived()
        assert db.user(42).total_mayors == 5

    def test_recent_checkins_counted(self):
        db = CrawlDatabase()
        db.upsert_user(parsed_user(1))
        for venue_id in range(1, 4):
            db.upsert_venue(parsed_venue(venue_id, recent_visitor_ids=[1]))
        db.recompute_derived()
        assert db.user(1).recent_checkins == 3


class TestQueries:
    def test_fig_3_4_starbucks_query(self):
        db = CrawlDatabase()
        db.upsert_venue(
            parsed_venue(1, name="Starbucks #1", latitude=40.0, longitude=-96.0)
        )
        db.upsert_venue(parsed_venue(2, name="Corner Bar"))
        coordinates = db.venue_coordinates_like("%Starbucks%")
        assert coordinates == [(-96.0, 40.0)]  # (longitude, latitude)

    def test_select_users_predicate(self):
        db = CrawlDatabase()
        db.upsert_user(parsed_user(1, total_checkins=10))
        db.upsert_user(parsed_user(2, total_checkins=1_000))
        heavy = db.select_users(lambda u: u.total_checkins >= 500)
        assert [u.user_id for u in heavy] == [2]

    def test_select_venues_predicate(self):
        db = CrawlDatabase()
        db.upsert_venue(parsed_venue(1, mayor_id=None))
        db.upsert_venue(parsed_venue(2, mayor_id=9))
        mayorless = db.select_venues(lambda v: v.mayor_id is None)
        assert [v.venue_id for v in mayorless] == [1]


class TestConcurrentUpserts:
    """Upserts build their rows outside the lock; each stays atomic."""

    WRITERS = 8
    ROWS = 150

    def test_parallel_upserts_under_a_busy_reader(self):
        db = CrawlDatabase()
        errors = []
        writing = threading.Barrier(self.WRITERS + 1)
        done = threading.Event()

        def ids(writer):
            base = (writer + 1) * 1_000
            return [base + index for index in range(self.ROWS)]

        def write(writer):
            try:
                writing.wait()
                own = ids(writer)
                for index, profile_id in enumerate(own):
                    db.upsert_user(parsed_user(profile_id, total_checkins=index))
                    db.upsert_venue(
                        parsed_venue(
                            profile_id,
                            mayor_id=profile_id,
                            recent_visitor_ids=(
                                profile_id, own[(index + 1) % self.ROWS]
                            ),
                        )
                    )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def read():
            try:
                writing.wait()
                while not done.is_set():
                    db.recompute_derived()
                    db.recent_checkins()
                    db.venue(1_000)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        writers = [
            threading.Thread(target=write, args=(writer,))
            for writer in range(self.WRITERS)
        ]
        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in writers + [reader]:
                thread.start()
            for thread in writers:
                thread.join(30.0)
            done.set()
            reader.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in writers + [reader])
        assert not errors

        expected_pairs = set()
        expected_lists = {}
        for writer in range(self.WRITERS):
            own = ids(writer)
            for index, profile_id in enumerate(own):
                visitors = [profile_id, own[(index + 1) % self.ROWS]]
                expected_lists[profile_id] = visitors
                expected_pairs.update((visitor, profile_id) for visitor in visitors)
        assert db.user_count() == db.venue_count() == len(expected_lists)
        assert {row.user_id: row.total_checkins for row in db.users()} == {
            profile_id: index
            for writer in range(self.WRITERS)
            for index, profile_id in enumerate(ids(writer))
        }
        assert {row.venue_id: row.mayor_id for row in db.venues()} == {
            venue_id: venue_id for venue_id in expected_lists
        }
        assert {
            (row.user_id, row.venue_id) for row in db.recent_checkins()
        } == expected_pairs
        assert db.recent_visitor_lists() == expected_lists
        db.recompute_derived()
        for row in db.users():
            assert (row.recent_checkins, row.total_mayors) == (2, 1)
