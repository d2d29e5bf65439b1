"""Page fetching with retries (§3.2's "sent HTTP Get to this URL").

A thin, thread-safe layer over the simulated transport: one egress per
fetcher (a crawl machine), bounded retries on transient failures, and a
clean distinction between "page doesn't exist" (a frontier signal),
"fetch failed but might recover" (:class:`~repro.errors.
CrawlTransientError` — 5xx storms, rate limits, injected faults,
network loss), and "fetch will never succeed" (:class:`~repro.errors.
CrawlPermanentError` — auth walls, IP blocks).  Both subclass
:class:`~repro.errors.CrawlError`, so existing callers keep working;
retry policy now keys off the class, not the message.

Resilience hooks (all optional, all injectable):

* ``faults`` — a :class:`~repro.faults.FaultInjector` checked at
  :data:`~repro.faults.points.POINT_CRAWLER_FETCH` before every HTTP
  attempt, labelled with the egress IP so plans can ban one machine.
* ``breaker`` — a :class:`~repro.faults.CircuitBreaker` consulted before
  each attempt; an open breaker fails fast as a transient error (the
  worker re-queues, §3.2's "stop hammering a banned IP" discipline).
  Raised attempt errors count as breaker failures; any HTTP response —
  even a 5xx — counts as a success, because the egress demonstrably
  reached the server.
* ``backoff`` + ``sleep`` — a :class:`~repro.faults.BackoffPolicy` paced
  through an injectable sleep callable (the chaos harness passes
  ``clock.advance``, so retries pace in simulated time).
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.errors import (
    BreakerOpenError,
    CrawlError,
    CrawlPermanentError,
    CrawlTransientError,
    NetworkError,
    TransientError,
)
from repro.faults.breaker import CircuitBreaker
from repro.faults.injector import FaultInjector
from repro.faults.points import POINT_CRAWLER_FETCH
from repro.faults.retry import BackoffPolicy
from repro.obs.log import LogHub
from repro.obs.metrics import MetricsRegistry
from repro.simnet.http import (
    HTTP_NOT_FOUND,
    HTTP_TOO_MANY_REQUESTS,
    HttpResponse,
    HttpTransport,
)
from repro.simnet.network import Egress


class PageFetcher:
    """Fetches profile pages through one egress point.

    With a :class:`~repro.obs.MetricsRegistry` attached, every ``fetch``
    observes its wall time into ``repro_crawler_fetch_seconds`` and
    counts retries in ``repro_crawler_fetch_retries_total``.  With a
    :class:`~repro.obs.log.LogHub` attached, fetch *failures* (rate
    limits, persistent 5xx, refusals) emit WARNING ``crawler.fetch_failed``
    records on the ``crawler.fetcher`` logger — the crawl-control defense's
    signals, visible in the same structured log as everything else.
    """

    def __init__(
        self,
        transport: HttpTransport,
        egress: Egress,
        max_retries: int = 2,
        metrics: Optional[MetricsRegistry] = None,
        log: Optional[LogHub] = None,
        faults: Optional[FaultInjector] = None,
        breaker: Optional[CircuitBreaker] = None,
        backoff: Optional[BackoffPolicy] = None,
        sleep: Optional[Callable[[float], object]] = None,
    ) -> None:
        if max_retries < 0:
            raise CrawlError(f"max_retries must be non-negative: {max_retries}")
        self.transport = transport
        self.egress = egress
        self.max_retries = max_retries
        self.faults = faults
        self.breaker = breaker
        self.backoff = backoff
        self._sleep = sleep
        self._logger = (
            log.logger("crawler.fetcher") if log is not None else None
        )
        if metrics is not None:
            self._fetch_seconds = metrics.histogram(
                "repro_crawler_fetch_seconds",
                "Wall time of one page fetch, retries included.",
            ).child()
            self._retries_metric = metrics.counter(
                "repro_crawler_fetch_retries_total",
                "Fetch retries after 5xx responses.",
            ).child()
        else:
            self._fetch_seconds = None
            self._retries_metric = None

    def fetch(self, path: str) -> Optional[str]:
        """Fetch one page.

        Returns the HTML body, or None for a 404 (the page genuinely does
        not exist).  Raises :class:`~repro.errors.CrawlTransientError`
        when the failure might clear (5xx storms, rate limits, network
        loss, injected faults, an open breaker) and
        :class:`~repro.errors.CrawlPermanentError` when it never will
        (auth walls, IP blocks) — the signals the crawl-control defense
        produces.  Both are :class:`~repro.errors.CrawlError`.
        """
        if self._fetch_seconds is None:
            return self._fetch(path)
        started = time.perf_counter()
        try:
            return self._fetch(path)
        finally:
            self._fetch_seconds.observe(time.perf_counter() - started)

    def _fetch(self, path: str) -> Optional[str]:
        retries = 0
        while True:
            try:
                response = self._attempt_guarded(path)
            except TransientError as error:
                if retries < self.max_retries:
                    retries += 1
                    self._count_retry()
                    self._pace(retries)
                    continue
                self._log_failure(path, 0, retries, "transient")
                raise CrawlTransientError(
                    f"fetch failed for {path}: "
                    f"{type(error).__name__}: {error}"
                ) from error
            if response.status >= 500 and retries < self.max_retries:
                retries += 1
                self._count_retry()
                self._pace(retries)
                continue
            return self._interpret(path, response, retries)

    def _interpret(
        self, path: str, response: HttpResponse, retries: int
    ) -> Optional[str]:
        """Map a final HTTP response to a body, None, or a typed error."""
        if response.status == HTTP_NOT_FOUND:
            return None
        if response.status == HTTP_TOO_MANY_REQUESTS:
            self._log_failure(path, response.status, retries, "rate-limited")
            raise CrawlTransientError(f"rate limited fetching {path}")
        if response.status >= 500:
            self._log_failure(path, response.status, retries, "http-error")
            raise CrawlTransientError(
                f"HTTP {response.status} fetching {path}"
            )
        if not response.ok:
            self._log_failure(path, response.status, retries, "refused")
            raise CrawlPermanentError(
                f"HTTP {response.status} fetching {path}"
            )
        return response.body

    def _attempt_guarded(self, path: str) -> HttpResponse:
        """One HTTP attempt behind the breaker and the fault injector.

        Raised errors (injected faults, network loss) count as breaker
        failures; any response at all counts as a success — the egress
        reached the server, so the ban/outage the breaker models is over.
        """
        if self.breaker is not None:
            try:
                self.breaker.ensure()
            except BreakerOpenError as error:
                raise CrawlTransientError(
                    f"breaker {error.name!r} open; skipping fetch of {path}"
                ) from error
        try:
            if self.faults is not None:
                self.faults.check(
                    POINT_CRAWLER_FETCH, label=self.egress.ip.value
                )
            response = self._attempt(path)
        except (TransientError, NetworkError) as error:
            if self.breaker is not None:
                self.breaker.record_failure()
            if isinstance(error, TransientError):
                raise
            raise CrawlTransientError(
                f"network error fetching {path}: {error}"
            ) from error
        if self.breaker is not None:
            self.breaker.record_success()
        return response

    def _count_retry(self) -> None:
        if self._retries_metric is not None:
            self._retries_metric.inc()

    def _pace(self, retry_number: int) -> None:
        """Charge the backoff delay to the injected sleep, when wired."""
        if self.backoff is None or self._sleep is None:
            return
        delay = self.backoff.delay(retry_number)
        if delay > 0:
            self._sleep(delay)

    def _log_failure(
        self, path: str, status: int, retries: int, reason: str
    ) -> None:
        if self._logger is not None:
            self._logger.warning(
                "crawler.fetch_failed",
                path=path,
                status=status,
                retries=retries,
                reason=reason,
                egress_ip=self.egress.ip.value,
            )

    def _attempt(self, path: str) -> HttpResponse:
        return self.transport.get(path, self.egress)
