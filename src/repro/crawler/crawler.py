"""The multi-threaded profile crawler (§3.2, Fig 3.3).

Wires frontier → fetcher threads → regex parser → crawl database.  The
thesis ran user crawls at 14-16 threads per machine across 3 machines
(~100k users/hour) and venue crawls at 5-6 threads per machine (~50k
venues/hour); :class:`MultiThreadedCrawler` reproduces the architecture
with one egress per simulated machine and a configurable thread count, and
reports throughput so the E2 bench can reproduce the thread-scaling shape.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.crawler.database import CrawlDatabase
from repro.crawler.fetcher import PageFetcher
from repro.crawler.frontier import CrawlMode, IdFrontier
from repro.crawler.parser import parse_user_page, parse_venue_page
from repro.errors import CrawlError, PermanentError
from repro.faults.breaker import CircuitBreaker
from repro.faults.injector import FaultInjector
from repro.faults.retry import BackoffPolicy
from repro.obs.log import LogHub
from repro.obs.metrics import MetricsRegistry
from repro.simnet.http import HttpTransport
from repro.simnet.network import Egress


@dataclass
class CrawlStats:
    """Outcome and throughput of one crawl run."""

    mode: CrawlMode
    pages_fetched: int = 0
    hits: int = 0
    misses: int = 0
    failures: int = 0
    #: Failures whose error was transient (retryable) — a subset of
    #: ``failures``; the remainder were permanent refusals or parse bugs.
    transient_failures: int = 0
    wall_seconds: float = 0.0
    threads: int = 0
    machines: int = 0

    @property
    def pages_per_second(self) -> float:
        """Fetch throughput over the run."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.pages_fetched / self.wall_seconds

    @property
    def profiles_per_hour(self) -> float:
        """The thesis's headline unit (users/hour or venues/hour)."""
        return self.pages_per_second * 3_600.0


class MultiThreadedCrawler:
    """Crawls one profile kind (users or venues) to exhaustion."""

    def __init__(
        self,
        transport: HttpTransport,
        database: CrawlDatabase,
        mode: CrawlMode,
        machine_egresses: List[Egress],
        threads_per_machine: int = 14,
        stop_at: Optional[int] = None,
        abort_after_failures: int = 500,
        metrics: Optional[MetricsRegistry] = None,
        log: Optional[LogHub] = None,
        faults: Optional[FaultInjector] = None,
        breaker_factory: Optional[Callable[[str], CircuitBreaker]] = None,
        backoff: Optional[BackoffPolicy] = None,
        sleep: Optional[Callable[[float], object]] = None,
        fetch_max_retries: int = 2,
    ) -> None:
        if not machine_egresses:
            raise CrawlError("need at least one crawl machine egress")
        if threads_per_machine < 1:
            raise CrawlError(
                f"threads_per_machine must be >= 1: {threads_per_machine}"
            )
        self.transport = transport
        self.database = database
        self.mode = mode
        self.frontier = IdFrontier(mode, stop_at=stop_at)
        self.machine_egresses = list(machine_egresses)
        self.threads_per_machine = threads_per_machine
        self.abort_after_failures = abort_after_failures
        self._lock = threading.Lock()
        self._stats = CrawlStats(
            mode=mode,
            threads=threads_per_machine * len(machine_egresses),
            machines=len(machine_egresses),
        )
        self._consecutive_failures = 0
        self._aborted = False
        self._metrics = metrics
        self._log = log
        #: Optional resilience wiring, forwarded to every fetcher: the
        #: fault injector (``crawler.fetch`` point), a per-machine
        #: circuit breaker (``breaker_factory(name)`` is called once per
        #: egress; breakers land in :attr:`breakers`), and a backoff
        #: policy paced through ``sleep`` (pass ``clock.advance`` for
        #: simulated time).
        self.faults = faults
        self.breaker_factory = breaker_factory
        self.backoff = backoff
        self._sleep = sleep
        self.fetch_max_retries = fetch_max_retries
        self.breakers: List[CircuitBreaker] = []
        if metrics is not None:
            self._pages_metric = metrics.counter(
                "repro_crawler_pages_fetched_total",
                "Pages the crawler attempted, by crawl mode and outcome.",
                ("mode", "outcome"),
            )
            self._parse_failures_metric = metrics.counter(
                "repro_crawler_parse_failures_total",
                "Pages fetched but unparseable, by crawl mode.",
                ("mode",),
            ).labels(mode.value)
            self._thread_pages_metric = metrics.counter(
                "repro_crawler_thread_pages_total",
                "Pages attempted per crawl thread (machine.thread label).",
                ("mode", "thread"),
            )
            self._throughput_metric = metrics.gauge(
                "repro_crawler_pages_per_second",
                "Fetch throughput of the last completed crawl, by mode.",
                ("mode",),
            ).labels(mode.value)
        else:
            self._pages_metric = None
            self._parse_failures_metric = None
            self._thread_pages_metric = None
            self._throughput_metric = None

    @property
    def aborted(self) -> bool:
        """True when the crawl gave up (blocked / persistent failures)."""
        return self._aborted

    def run(self) -> CrawlStats:
        """Crawl until the ID space is exhausted; returns throughput stats."""
        started = time.perf_counter()
        threads: List[threading.Thread] = []
        for machine_index, egress in enumerate(self.machine_egresses):
            breaker: Optional[CircuitBreaker] = None
            if self.breaker_factory is not None:
                breaker = self.breaker_factory(f"egress-m{machine_index}")
                self.breakers.append(breaker)
            fetcher = PageFetcher(
                self.transport,
                egress,
                max_retries=self.fetch_max_retries,
                metrics=self._metrics,
                log=self._log,
                faults=self.faults,
                breaker=breaker,
                backoff=self.backoff,
                sleep=self._sleep,
            )
            for thread_index in range(self.threads_per_machine):
                thread = threading.Thread(
                    target=self._worker,
                    args=(fetcher, f"m{machine_index}.t{thread_index}"),
                    daemon=True,
                )
                threads.append(thread)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self._stats.wall_seconds = time.perf_counter() - started
        if self._throughput_metric is not None:
            self._throughput_metric.set(self._stats.pages_per_second)
        return self._stats

    def _worker(self, fetcher: PageFetcher, thread_label: str = "m0.t0") -> None:
        mode = self.mode.value
        thread_pages = (
            self._thread_pages_metric.labels(mode, thread_label)
            if self._thread_pages_metric is not None
            else None
        )
        while True:
            if self._aborted:
                return
            profile_id = self.frontier.next_id()
            if profile_id is None:
                return
            path = self.frontier.url_for(profile_id)
            if thread_pages is not None:
                thread_pages.inc()
            try:
                body = fetcher.fetch(path)
            except CrawlError as error:
                self._record_failure(
                    transient=not isinstance(error, PermanentError)
                )
                continue
            if body is None:
                self.frontier.report_miss(profile_id)
                with self._lock:
                    self._stats.pages_fetched += 1
                    self._stats.misses += 1
                if self._pages_metric is not None:
                    self._pages_metric.labels(mode, "miss").inc()
                continue
            try:
                self._store(body)
            except CrawlError:
                if self._parse_failures_metric is not None:
                    self._parse_failures_metric.inc()
                self._record_failure()
                continue
            self.frontier.report_hit(profile_id)
            with self._lock:
                self._stats.pages_fetched += 1
                self._stats.hits += 1
                self._consecutive_failures = 0
            if self._pages_metric is not None:
                self._pages_metric.labels(mode, "hit").inc()

    def _store(self, body: str) -> None:
        if self.mode is CrawlMode.USER:
            self.database.upsert_user(parse_user_page(body))
        else:
            self.database.upsert_venue(parse_venue_page(body))

    def _record_failure(self, transient: bool = False) -> None:
        with self._lock:
            self._stats.pages_fetched += 1
            self._stats.failures += 1
            if transient:
                self._stats.transient_failures += 1
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.abort_after_failures:
                # The site is refusing us (login wall, IP block, sustained
                # rate limiting): a real crawler would give up too.
                self._aborted = True
        if self._pages_metric is not None:
            self._pages_metric.labels(self.mode.value, "failure").inc()


def crawl_full_site(
    transport: HttpTransport,
    machine_egresses: List[Egress],
    user_threads_per_machine: int = 14,
    venue_threads_per_machine: int = 5,
    database: Optional[CrawlDatabase] = None,
    metrics: Optional[MetricsRegistry] = None,
    log: Optional[LogHub] = None,
) -> tuple:
    """Run the thesis's full two-pass crawl: all users, then all venues.

    Returns ``(database, user_stats, venue_stats)`` with the derived
    UserInfo columns (RecentCheckins, TotalMayors) already recomputed.
    ``metrics`` (optional) instruments both passes and their fetchers.
    """
    database = database or CrawlDatabase()
    user_crawl = MultiThreadedCrawler(
        transport,
        database,
        CrawlMode.USER,
        machine_egresses,
        threads_per_machine=user_threads_per_machine,
        metrics=metrics,
        log=log,
    )
    user_stats = user_crawl.run()
    venue_crawl = MultiThreadedCrawler(
        transport,
        database,
        CrawlMode.VENUE,
        machine_egresses,
        threads_per_machine=venue_threads_per_machine,
        metrics=metrics,
        log=log,
    )
    venue_stats = venue_crawl.run()
    database.recompute_derived()
    return database, user_stats, venue_stats
