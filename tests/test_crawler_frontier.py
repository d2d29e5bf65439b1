"""Unit tests for the ID frontier."""

import threading

from repro.crawler.frontier import CrawlMode, IdFrontier


class TestDispensing:
    def test_sequential_ids(self):
        frontier = IdFrontier(CrawlMode.USER)
        assert [frontier.next_id() for _ in range(3)] == [1, 2, 3]

    def test_url_format(self):
        assert IdFrontier(CrawlMode.USER).url_for(42) == "/user/42"
        assert IdFrontier(CrawlMode.VENUE).url_for(7) == "/venue/7"

    def test_stop_at_cap(self):
        frontier = IdFrontier(CrawlMode.USER, start=5, stop_at=6)
        assert frontier.next_id() == 5
        assert frontier.next_id() == 6
        assert frontier.next_id() is None
        assert frontier.exhausted


class TestExhaustion:
    def test_miss_run_past_highest_hit_exhausts(self):
        frontier = IdFrontier(CrawlMode.USER, miss_threshold=3)
        for _ in range(5):
            frontier.next_id()
        frontier.report_hit(2)
        frontier.report_miss(3)
        frontier.report_miss(4)
        assert not frontier.exhausted
        frontier.report_miss(5)
        assert frontier.exhausted
        assert frontier.next_id() is None

    def test_hit_resets_miss_run(self):
        frontier = IdFrontier(CrawlMode.USER, miss_threshold=2)
        frontier.report_miss(1)
        frontier.report_hit(2)
        frontier.report_miss(3)
        assert not frontier.exhausted
        assert frontier.highest_hit == 2

    def test_late_hit_keeps_misses_counted_above_it(self):
        # Two threads: one holds ID 1 while the other 404s its way through
        # 2-200.  The late hit on 1 must not restart the run, so the crawl
        # probes exactly ``miss_threshold`` IDs past the last profile.
        frontier = IdFrontier(CrawlMode.USER, miss_threshold=200)
        assert [frontier.next_id() for _ in range(200)] == list(range(1, 201))
        for missed in range(2, 201):
            frontier.report_miss(missed)
        frontier.report_hit(1)
        assert frontier.highest_hit == 1
        probed_past_last_profile = 199
        while (profile_id := frontier.next_id()) is not None:
            frontier.report_miss(profile_id)
            probed_past_last_profile += 1
        assert probed_past_last_profile == 200
        assert frontier.exhausted

    def test_misses_below_highest_hit_ignored(self):
        # Deleted profiles inside the ID space must not end the crawl.
        frontier = IdFrontier(CrawlMode.USER, miss_threshold=2)
        frontier.report_hit(100)
        for gap_id in range(3, 50):
            frontier.report_miss(gap_id)
        assert not frontier.exhausted


class TestConcurrency:
    def test_ids_unique_across_threads(self):
        frontier = IdFrontier(CrawlMode.VENUE, stop_at=2_000)
        seen = []
        lock = threading.Lock()

        def worker():
            while True:
                value = frontier.next_id()
                if value is None:
                    return
                with lock:
                    seen.append(value)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(seen) == list(range(1, 2_001))
