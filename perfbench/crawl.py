"""The ``crawl`` workload: the paper's two-pass ID-enumerating crawl (§3.2).

A seeded world is built on a bare service (the crawl never touches the
bus), exposed over the non-blocking transport, and crawled -- all users,
then all venues -- by two threads behind one egress, over and over until
the run time is used up.  Each round must reproduce the store exactly.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from contextlib import ExitStack
from typing import List, Tuple

from perfbench import layers, report
from perfbench.common import (
    WORK_DIR,
    Result,
    digest_lines,
    peak_rss_mb,
    population_config,
)
from perfbench.hostspeed import HostSpeed
from perfbench.stats import percentile, windowed_percentile
from perfbench.tracing import SpanTracer, wrapped_targets

CRAWL_SCALE = 0.0005
#: Crawler threads, one per core of the reference host.
THREADS = 2
SETUP_REPEATS = 3
#: Pages per window of the reported 99th percentile.
TAIL_WINDOW = 2_000
#: Pages every run crawls and digests, however fast the host.
GATE_ROUNDS = 1


def _timed_database():
    """A crawl database that notes, per thread, when each page was stored.

    The gap between two stores on one crawler thread is one page's full
    trip through that thread: frontier, fetch, parse and upsert.
    """
    from repro.crawler.database import CrawlDatabase

    class TimedCrawlDatabase(CrawlDatabase):
        def __init__(self) -> None:
            super().__init__()
            self.intervals: List[float] = []
            self._last = threading.local()

        def _stamp(self) -> None:
            now = time.perf_counter()
            last = getattr(self._last, "at", None)
            if last is not None:
                self.intervals.append(now - last)
            self._last.at = now

        def upsert_user(self, parsed):
            row = super().upsert_user(parsed)
            self._stamp()
            return row

        def upsert_venue(self, parsed):
            row = super().upsert_venue(parsed)
            self._stamp()
            return row

    return TimedCrawlDatabase()


def setup(seed: int):
    """Everything ``setup_s`` times for ``crawl``: world and web stack."""
    from repro.workload import build_web_stack, build_world

    world = build_world(
        scale=CRAWL_SCALE, seed=seed, population_config=population_config()
    )
    stack = build_web_stack(world, seed=seed)
    return world, stack, stack.network.create_egress()


def _check_round(res: Result, database, store) -> None:
    """The crawl database must hold exactly the store's users and venues."""
    users = store.iter_users()
    venues = store.iter_venues()
    res.check(
        database.user_count() == len(users)
        and database.venue_count() == len(venues),
        f"crawl holds {database.user_count()} users / "
        f"{database.venue_count()} venues, store {len(users)} / {len(venues)}",
    )
    bad_users = [
        user.user_id
        for user in users
        if (row := database.user(user.user_id)) is None
        or row.total_checkins != user.total_checkins
    ]
    bad_venues = [
        venue.venue_id
        for venue in venues
        if (row := database.venue(venue.venue_id)) is None
        or row.checkins_here != venue.checkin_count
        or row.mayor_id != venue.mayor_id
    ]
    res.check(not bad_users, f"users crawled wrong: {bad_users[:10]}")
    res.check(not bad_venues, f"venues crawled wrong: {bad_venues[:10]}")


def _store_digest(store) -> str:
    """Digest of the public state the crawl must read back: its input."""
    lines = [f"threads={THREADS}"]
    lines += [
        f"u|{user.user_id}|{user.total_checkins}|{user.badge_count}|{user.points}"
        for user in sorted(store.iter_users(), key=lambda user: user.user_id)
    ]
    lines += [
        f"v|{venue.venue_id}|{venue.mayor_id}|{venue.checkin_count}|"
        f"{venue.unique_visitor_count}"
        for venue in sorted(store.iter_venues(), key=lambda venue: venue.venue_id)
    ]
    return digest_lines(lines)


def _database_digest(database) -> str:
    lines = [
        f"u|{row.user_id}|{row.total_checkins}|{row.total_badges}|{row.points}|"
        f"{row.recent_checkins}|{row.total_mayors}"
        for row in sorted(database.users(), key=lambda row: row.user_id)
    ]
    lines += [
        f"v|{row.venue_id}|{row.mayor_id}|{row.checkins_here}|{row.unique_visitors}"
        for row in sorted(database.venues(), key=lambda row: row.venue_id)
    ]
    return digest_lines(lines)


def run(seed: int, seconds: float, trace: bool) -> Result:
    """Build, crawl, check and measure one ``crawl`` run."""
    res = Result(workload="crawl", seed=seed, trace=trace)
    speed = HostSpeed()
    with ExitStack() as sampling:
        if not trace:
            sampling.enter_context(speed)
        _crawl(res, seed, seconds, trace, speed)
    return res


def _crawl(
    res: Result, seed: int, seconds: float, trace: bool, speed: HostSpeed
) -> None:
    from repro.crawler import crawl_full_site

    setup_tracer = SpanTracer(layers.setup_probes()) if trace else None
    setups: List[Tuple[float, float]] = []
    for attempt in range(1 if trace else SETUP_REPEATS):
        if setup_tracer is not None:
            setup_tracer.install()
        started = time.perf_counter()
        try:
            world, stack, egress = setup(seed)
        finally:
            if setup_tracer is not None:
                setup_tracer.uninstall()
        setups.append((started, time.perf_counter()))
        if attempt < SETUP_REPEATS - 1 and not trace:
            del world, stack, egress
            gc.collect()

    store = world.service.store
    res.detail["schedule_digest"] = _store_digest(store)
    probes = layers.run_probes() + layers.store_read_probes()
    res.check(
        not wrapped_targets(probes),
        f"untraced run sees wrappers: {wrapped_targets(probes)}",
    )
    tracer = SpanTracer(probes) if trace else None

    # Untraced rounds: (start, end, pages, the per-thread gaps between pages).
    measured: List[Tuple[float, float, int, List[float]]] = []
    totals = {"pages": 0, "hits": 0, "failures": 0}
    phases = {True: [0, 0.0, 0.0], False: [0, 0.0, 0.0]}  # pages, wall, cpu
    gc.collect()
    deadline = time.perf_counter() + seconds
    rounds = 0
    traced = False
    # A traced run needs one untraced and one traced round at least.
    min_rounds = 2 if trace else GATE_ROUNDS
    while rounds < min_rounds or time.perf_counter() < deadline:
        database = _timed_database()
        if traced:
            tracer.install()
        cpu = time.process_time()
        started = time.perf_counter()
        try:
            _, user_stats, venue_stats = crawl_full_site(
                stack.transport,
                [egress],
                user_threads_per_machine=THREADS,
                venue_threads_per_machine=THREADS,
                database=database,
            )
        finally:
            wall = time.perf_counter() - started
            cpu = time.process_time() - cpu
            if traced:
                tracer.uninstall()
        pages = user_stats.pages_fetched + venue_stats.pages_fetched
        rounds += 1
        totals["pages"] += pages
        totals["hits"] += user_stats.hits + venue_stats.hits
        totals["failures"] += user_stats.failures + venue_stats.failures
        phase = phases[traced]
        phase[0] += pages
        phase[1] += wall
        phase[2] += cpu
        if not traced:
            measured.append((started, started + wall, pages, database.intervals))
        _check_round(res, database, store)
        if rounds == GATE_ROUNDS:
            res.detail["outcome_digest"] = _database_digest(database)
            gate_rss_mb = peak_rss_mb()
        traced = trace and not traced
    res.attempted = totals["pages"]
    res.failed = totals["failures"]
    res.detail["rounds"] = rounds

    if trace:
        _layers(res, tracer, setup_tracer, phases, totals)
        tracer.write(WORK_DIR / "spans-crawl.tsv")
    else:
        _end_to_end(res, measured, setups, gate_rss_mb, speed)


def _end_to_end(
    res: Result, measured, setups, rss_mb: float, speed: HostSpeed
) -> None:
    """Timings at reference speed, round by round; raw ones as detail."""
    rates, means = [], []
    for start, end, pages, gaps in measured:
        slowdown = speed.slowdown(start, end)
        rates.append(pages * slowdown / (end - start))
        means.append(1e6 * sum(gaps) / (len(gaps) * slowdown))
    res.metric(
        "setup_s",
        statistics.median(
            (end - start) / speed.slowdown(start, end) for start, end in setups
        ),
        "s",
    )
    res.metric("ops_per_s", statistics.median(rates), "1/s")
    res.metric("op_mean_us", statistics.median(means), "us")
    res.metric("peak_rss_mb", rss_mb, "MB")
    gaps_us = [1e6 * gap for *_, gaps in measured for gap in gaps]
    res.detail.update({
        "host_slowdown": speed.slowdown(measured[0][0], measured[-1][1]),
        "setup_runs_s": [end - start for start, end in setups],
        "raw_ops_per_s": statistics.median(
            pages / (end - start) for start, end, pages, _ in measured
        ),
        "raw_op_p50_us": percentile(gaps_us, 50),
        "raw_op_p99_us": windowed_percentile(gaps_us, 99, TAIL_WINDOW),
        "latency_samples": len(gaps_us),
        "peak_rss_mb_at_end": peak_rss_mb(),
    })


def _layers(res: Result, tracer, setup_tracer, phases, totals) -> None:
    traced_pages, traced_wall, _ = phases[True]
    untraced_pages, untraced_wall, untraced_cpu = phases[False]
    values = {}
    report.timed_phase(
        values, res, tracer, traced_pages, traced_wall,
        untraced_pages, untraced_wall, threads=THREADS,
    )
    report.setup_phase(values, setup_tracer)
    calls = tracer.calls()
    counts = tracer.counts()
    renders = calls.get("lbsn.webserver.render_user", 0) + calls.get(
        "lbsn.webserver.render_venue", 0
    )
    traced_rounds = calls.get("crawler.database.recompute", 0)
    values.update({
        "lbsn.webserver.bytes_per_page": counts.get("webserver.bytes", 0) / renders
        if renders else 0.0,
        "crawler.database.recompute_s": tracer.self_seconds().get(
            "crawler.database.recompute", 0.0
        ) / traced_rounds if traced_rounds else 0.0,
        "crawler.hit_ratio": totals["hits"] / totals["pages"],
        "crawler.failures": totals["failures"],
        "crawler.cpu_us_per_page": 1e6 * untraced_cpu / untraced_pages
        if untraced_pages else 0.0,
    })
    report.emit(res, values)
