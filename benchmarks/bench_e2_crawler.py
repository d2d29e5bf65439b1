"""E2 — §3.2 / Fig 3.3: multi-threaded crawler throughput.

The thesis ran 14-16 threads per machine on 3 machines for ~100k user
profiles/hour (5-6 threads for ~50k venues/hour).  Absolute 2010 numbers
are out of scope; the reproduced *shape* is throughput scaling with thread
count until transport saturation, against a transport that really blocks on
sampled round-trip latency.

A third bench (not in the paper) crawls over the non-blocking transport,
where the crawl is CPU-bound: a second thread should cost nothing per
page, and the threads must not hand a shared lock to each other on every
page (a lock convoy shows up as voluntary context switches).
"""

import resource
import statistics
import time

import pytest

from repro.crawler import crawl_full_site
from repro.crawler.crawler import MultiThreadedCrawler
from repro.crawler.database import CrawlDatabase
from repro.crawler.frontier import CrawlMode
from repro.workload import build_web_stack

#: Pages per sweep point; small enough to keep the bench under a minute.
PAGES = 400
#: The thesis's rates: ~100k users/hour at 14-16 threads per machine on
#: 3 machines, ~50k venues/hour at 5-6 threads.
PAPER_USERS_PER_HOUR = 100_000
PAPER_VENUES_PER_HOUR = 50_000
#: The scaling bar: 8 threads beat 1 thread by more than this factor.
MIN_SPEEDUP_8_THREADS = 3.0
#: Two-pass crawls per thread count in the CPU-bound bench (medians kept).
CPU_BOUND_ROUNDS = 3
#: The convoy bar: voluntary context switches per page at two threads.
#: Two threads trading a lock on every page read 1.2-1.7 here.
MAX_SWITCHES_PER_PAGE = 0.1


@pytest.fixture(scope="module")
def blocking_stack(bench_world):
    stack = build_web_stack(bench_world, seed=12, blocking=True)
    return stack


def crawl_with_threads(stack, threads, machines=1, pages=PAGES):
    egresses = []
    for _ in range(machines):
        egress = stack.network.create_egress()
        egress.base_latency_s = 0.003  # 6 ms RTT: a fast 2010 link
        egresses.append(egress)
    crawler = MultiThreadedCrawler(
        stack.transport,
        CrawlDatabase(),
        CrawlMode.USER,
        egresses,
        threads_per_machine=threads,
        stop_at=pages,
    )
    return crawler.run()


def test_e2_thread_scaling(blocking_stack, report_out, benchmark):
    rows = [
        "threads_per_machine  machines  pages/s  profiles/hour  speedup",
    ]
    baseline = None

    def sweep():
        nonlocal baseline
        results = []
        for threads in (1, 2, 4, 8, 16):
            stats = crawl_with_threads(blocking_stack, threads)
            if baseline is None:
                baseline = stats.pages_per_second
            results.append((threads, 1, stats))
        # The thesis's 3-machine configuration at its user-crawl setting.
        stats = crawl_with_threads(blocking_stack, 14, machines=3)
        results.append((14, 3, stats))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for threads, machines, stats in results:
        rows.append(
            f"{threads:>19}  {machines:>8}  {stats.pages_per_second:7.1f}  "
            f"{stats.profiles_per_hour:13.0f}  "
            f"{stats.pages_per_second / baseline:7.2f}x"
        )
    rows.append(
        "(paper: 3 machines x 14-16 threads ~ 100,000 users/hour; "
        "throughput grows with threads until the link saturates)"
    )
    one = next(s for t, m, s in results if t == 1 and m == 1)
    eight = next(s for t, m, s in results if t == 8 and m == 1)
    thesis_setting = next(s for t, m, s in results if m == 3)
    report_out(
        "E2_crawler_threads",
        rows,
        summary={
            "pages_per_point": PAGES,
            "sweep": [
                {
                    "machines": machines,
                    "threads_per_machine": threads,
                    "pages_per_s": round(stats.pages_per_second, 1),
                    "speedup": round(stats.pages_per_second / baseline, 2),
                }
                for threads, machines, stats in results
            ],
            "paper_users_per_hour_3x14_16": PAPER_USERS_PER_HOUR,
            "users_per_hour_3x14": round(thesis_setting.profiles_per_hour),
            "min_speedup_8_threads_bar": MIN_SPEEDUP_8_THREADS,
        },
    )
    # The scaling shape: 8 threads beat 1 thread by a wide margin.
    assert eight.pages_per_second > MIN_SPEEDUP_8_THREADS * one.pages_per_second


def test_e2_user_vs_venue_thread_settings(blocking_stack, report_out, benchmark):
    """The thesis crawled users at 14-16 threads but venues at only 5-6."""

    def run():
        user_stats = crawl_with_threads(blocking_stack, 15)
        egress = blocking_stack.network.create_egress()
        egress.base_latency_s = 0.003
        venue_crawler = MultiThreadedCrawler(
            blocking_stack.transport,
            CrawlDatabase(),
            CrawlMode.VENUE,
            [egress],
            threads_per_machine=5,
            stop_at=PAGES,
        )
        return user_stats, venue_crawler.run()

    user_stats, venue_stats = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        f"user crawl  (15 threads): {user_stats.profiles_per_hour:12.0f}/hour",
        f"venue crawl ( 5 threads): {venue_stats.profiles_per_hour:12.0f}/hour",
        "(paper: ~100k users/hour at 14-16 threads vs ~50k venues/hour at "
        "5-6 threads per machine — the ratio tracks thread count)",
    ]
    report_out(
        "E2_user_vs_venue",
        rows,
        summary={
            "pages": PAGES,
            "users_per_hour_15_threads": round(user_stats.profiles_per_hour),
            "venues_per_hour_5_threads": round(venue_stats.profiles_per_hour),
            "paper_users_per_hour_14_16_threads": PAPER_USERS_PER_HOUR,
            "paper_venues_per_hour_5_6_threads": PAPER_VENUES_PER_HOUR,
        },
    )
    assert user_stats.profiles_per_hour > venue_stats.profiles_per_hour


def _two_pass_crawl(stack, threads):
    """(pages, wall seconds, voluntary switches) of one full two-pass crawl."""
    egress = stack.network.create_egress()
    switches = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw
    started = time.perf_counter()
    _, user_stats, venue_stats = crawl_full_site(
        stack.transport,
        [egress],
        user_threads_per_machine=threads,
        venue_threads_per_machine=threads,
    )
    wall = time.perf_counter() - started
    switches = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw - switches
    return user_stats.pages_fetched + venue_stats.pages_fetched, wall, switches


def test_e2_cpu_bound_threads(bench_stack, report_out, benchmark):
    """Two crawl threads on one core-bound crawl: no lock convoy."""

    def run():
        # Interleaved, so a drift in host speed hits both thread counts.
        crawls = {1: [], 2: []}
        for _ in range(CPU_BOUND_ROUNDS):
            for threads, rounds in crawls.items():
                rounds.append(_two_pass_crawl(bench_stack, threads))
        return crawls

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = ["threads  pages  wall_us/page  switches/page  (non-blocking transport)"]
    summary = {"rounds": CPU_BOUND_ROUNDS}
    for threads, crawls in results.items():
        pages = statistics.median(crawl[0] for crawl in crawls)
        us_per_page = statistics.median(1e6 * wall / n for n, wall, _ in crawls)
        switches = statistics.median(s / n for n, _, s in crawls)
        rows.append(
            f"{threads:>7}  {pages:>5.0f}  {us_per_page:12.1f}  {switches:13.3f}"
        )
        summary[f"pages_{threads}_thread"] = pages
        summary[f"wall_us_per_page_{threads}_thread"] = round(us_per_page, 1)
        summary[f"switches_per_page_{threads}_thread"] = round(switches, 4)
    summary["max_switches_per_page_bar"] = MAX_SWITCHES_PER_PAGE
    rows.append(
        f"(not in the paper; bar: < {MAX_SWITCHES_PER_PAGE} voluntary context "
        "switches per page at 2 threads, medians of "
        f"{CPU_BOUND_ROUNDS} two-pass crawls)"
    )
    report_out("E2_cpu_bound_threads", rows, summary=summary)
    assert summary["switches_per_page_2_thread"] < MAX_SWITCHES_PER_PAGE
