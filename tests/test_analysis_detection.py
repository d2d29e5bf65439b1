"""Tests for the combined three-factor cheater detector."""

import pytest

from repro.analysis import detection
from repro.analysis.detection import CheaterDetector, DetectorConfig
from repro.crawler.database import CrawlDatabase
from repro.crawler.parser import ParsedUser, ParsedVenue
from repro.geo.regions import US_CITIES


def seed(db, user_id, total, badges, recent_cities=0, venues_per_city=1,
         next_venue=[1000]):
    db.upsert_user(
        ParsedUser(
            user_id=user_id,
            display_name=f"U{user_id}",
            username=None,
            home_city="",
            total_checkins=total,
            total_badges=badges,
            points=0,
        )
    )
    for city in US_CITIES[:recent_cities]:
        for _ in range(venues_per_city):
            next_venue[0] += 1
            db.upsert_venue(
                ParsedVenue(
                    venue_id=next_venue[0],
                    name=f"V{next_venue[0]}",
                    address="",
                    city=city.name,
                    latitude=city.center.latitude,
                    longitude=city.center.longitude,
                    checkins_here=1,
                    unique_visitors=1,
                    mayor_id=None,
                    special=None,
                    special_mayor_only=False,
                    recent_visitor_ids=[user_id],
                )
            )


class TestScoring:
    def test_zero_checkins_all_zero(self):
        db = CrawlDatabase()
        seed(db, 1, 0, 0)
        db.recompute_derived()
        report = CheaterDetector(db).score_user(db.user(1))
        assert report.combined_score == 0.0

    def test_activity_factor_saturates(self):
        db = CrawlDatabase()
        seed(db, 1, 20, 50, recent_cities=4, venues_per_city=5)
        db.recompute_derived()
        report = CheaterDetector(db).score_user(db.user(1))
        assert report.activity_score == 1.0

    def test_reward_factor_shortfall(self):
        db = CrawlDatabase()
        seed(db, 1, 1_000, 0)
        db.recompute_derived()
        report = CheaterDetector(db).score_user(db.user(1))
        assert report.reward_score == 1.0

    def test_reward_factor_zero_for_well_badged(self):
        db = CrawlDatabase()
        seed(db, 1, 100, 50)
        db.recompute_derived()
        report = CheaterDetector(db).score_user(db.user(1))
        assert report.reward_score == 0.0

    def test_pattern_factor_scales_with_cities(self):
        db = CrawlDatabase()
        seed(db, 1, 100, 50, recent_cities=10)
        db.recompute_derived()
        report = CheaterDetector(db).score_user(db.user(1))
        assert report.pattern_score == pytest.approx(0.5, abs=0.15)


class TestFindSuspects:
    def test_threshold_filters(self):
        db = CrawlDatabase()
        seed(db, 1, 1_000, 0, recent_cities=15)  # screaming cheater
        seed(db, 2, 1_000, 60, recent_cities=1, venues_per_city=3)  # honest
        db.recompute_derived()
        detector = CheaterDetector(
            db, DetectorConfig(min_total_checkins=100)
        )
        suspects = detector.find_suspects()
        ids = [report.user_id for report in suspects]
        assert 1 in ids
        assert 2 not in ids

    def test_world_detector_finds_personas(self, world, crawl_db):
        # At test-world persona volumes the mega cheater and the heaviest
        # caught cheater are unambiguous; the smaller caught cheaters only
        # become flagrant at full persona activity (their badge shortfall
        # grows with lifetime totals).
        detector = CheaterDetector(
            crawl_db, DetectorConfig(min_total_checkins=150)
        )
        suspects = {r.user_id for r in detector.find_suspects()}
        assert world.roster.mega_cheater.user_id in suspects
        top_caught = max(
            world.roster.caught_cheaters,
            key=lambda s: crawl_db.user(s.user_id).total_checkins,
        )
        assert top_caught.user_id in suspects

    def test_world_detector_spares_most_normals(self, world, crawl_db):
        detector = CheaterDetector(
            crawl_db, DetectorConfig(min_total_checkins=150)
        )
        suspects = {r.user_id for r in detector.find_suspects()}
        persona_ids = {s.user_id for s in world.roster.all_specs()}
        organic_suspects = suspects - persona_ids
        organic_heavy = [
            u
            for u in crawl_db.users()
            if u.total_checkins >= 150 and u.user_id not in persona_ids
        ]
        # The false-positive rate over heavy organic users stays low.
        assert len(organic_suspects) <= max(2, len(organic_heavy) // 10)


class TestUndetectedMayorHolders:
    def test_finds_suspicious_mayor_farmer(self, world, crawl_db, monkeypatch):
        # §4.3: cheaters still holding mayorships are "new discoveries".
        monkeypatch.setattr(detection, "REPORT_THRESHOLD", 0.4)
        detector = CheaterDetector(
            crawl_db, DetectorConfig(min_total_checkins=50)
        )
        reports = detector.undetected_mayor_holders(min_mayorships=20)
        assert world.roster.mayor_farmer.user_id in {
            r.user_id for r in reports
        }
