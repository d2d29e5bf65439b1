"""Resilience primitives: capped exponential backoff and retries.

The thesis's crawler retried through transient bans and paced itself
against rate limiting (§3.2); :func:`retry_call` is that discipline as a
library function.  Policy decisions are explicit and testable:

* :class:`BackoffPolicy` — capped exponential schedule.  Hypothesis
  property tests pin its invariants (monotone non-decreasing delays,
  capped at ``max_delay_s``, starting at ``initial_delay_s``).
* :func:`retry_call` — retries *transient* errors
  (:class:`~repro.errors.TransientError`) and re-raises everything else
  immediately; sleeping is delegated to an injectable callable (tests
  pass ``clock.advance``; nothing here ever calls ``time.sleep``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from repro.errors import ReproError, TransientError
from repro.obs.context import current_trace
from repro.obs.log import LogHub, StructuredLogger
from repro.obs.metrics import MetricsRegistry

T = TypeVar("T")

#: Growth factor between consecutive backoff delays.
BACKOFF_MULTIPLIER = 2.0


class RetryPolicyError(ReproError):
    """Misuse of the retry/backoff API (bad attempts, bad delays...)."""


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff.

    The delay before retry ``n`` (1-based) is
    ``min(initial_delay_s * BACKOFF_MULTIPLIER**(n-1), max_delay_s)``.
    """

    max_attempts: int = 5
    initial_delay_s: float = 0.05
    max_delay_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise RetryPolicyError(
                f"max_attempts must be >= 1: {self.max_attempts}"
            )
        if self.initial_delay_s < 0:
            raise RetryPolicyError(
                f"initial_delay_s must be non-negative: {self.initial_delay_s}"
            )
        if self.max_delay_s < self.initial_delay_s:
            raise RetryPolicyError(
                f"max_delay_s ({self.max_delay_s}) must be >= "
                f"initial_delay_s ({self.initial_delay_s})"
            )

    def delay(self, retry_number: int) -> float:
        """Delay before retry ``retry_number`` (1-based)."""
        if retry_number < 1:
            raise RetryPolicyError(
                f"retry_number is 1-based: {retry_number}"
            )
        delay = self.initial_delay_s * BACKOFF_MULTIPLIER ** (retry_number - 1)
        return min(delay, self.max_delay_s)


def retry_call(
    fn: Callable[[], T],
    policy: Optional[BackoffPolicy] = None,
    *,
    sleep: Optional[Callable[[float], object]] = None,
    on_retry: Optional[Callable[[int, BaseException, float], object]] = None,
    metrics: Optional[MetricsRegistry] = None,
    log: Optional[LogHub] = None,
    op: str = "call",
) -> T:
    """Call ``fn`` with retries on transient errors and capped backoff.

    :class:`~repro.errors.TransientError` subclasses retry; anything
    else re-raises on the first attempt, which is the typed-error
    contract the crawler fetcher's transient/permanent split feeds.
    Once ``policy.max_attempts`` calls have failed, the last error
    re-raises.

    ``sleep`` receives each backoff delay; pass ``clock.advance`` to pace
    in simulated time, or leave None to retry immediately (still counted
    — the *schedule* is what the backoff property tests pin).

    Telemetry (optional): ``repro_retry_attempts_total{op}`` per retry,
    ``repro_retry_recoveries_total{op}`` when a retried call eventually
    succeeds, ``repro_retry_exhausted_total{op}`` when the attempt cap
    gives up; WARNING ``retry.attempt`` / ERROR ``retry.exhausted``
    records under the ambient trace_id.
    """
    policy = policy or BackoffPolicy()
    logger: Optional[StructuredLogger] = (
        log.logger("faults.retry") if log is not None else None
    )
    attempts_metric = recoveries_metric = exhausted_metric = None
    if metrics is not None:
        attempts_metric = metrics.counter(
            "repro_retry_attempts_total",
            "Retry attempts made after a transient failure, by operation.",
            ("op",),
        ).labels(op)
        recoveries_metric = metrics.counter(
            "repro_retry_recoveries_total",
            "Operations that succeeded after at least one retry, by op.",
            ("op",),
        ).labels(op)
        exhausted_metric = metrics.counter(
            "repro_retry_exhausted_total",
            "Operations whose retry budget ran out, by operation.",
            ("op",),
        ).labels(op)

    for attempt in range(1, policy.max_attempts + 1):
        try:
            result = fn()
        except TransientError as error:
            if attempt == policy.max_attempts:
                if exhausted_metric is not None:
                    exhausted_metric.inc()
                if logger is not None:
                    ambient = current_trace()
                    logger.error(
                        "retry.exhausted",
                        op=op,
                        attempts=attempt,
                        error=f"{type(error).__name__}: {error}",
                        trace_id=(
                            ambient.trace_id if ambient is not None else None
                        ),
                    )
                raise
            delay = policy.delay(attempt)
            if attempts_metric is not None:
                attempts_metric.inc()
            if logger is not None:
                ambient = current_trace()
                logger.warning(
                    "retry.attempt",
                    op=op,
                    attempt=attempt,
                    delay_s=delay,
                    error=f"{type(error).__name__}: {error}",
                    trace_id=(
                        ambient.trace_id if ambient is not None else None
                    ),
                )
            if on_retry is not None:
                on_retry(attempt, error, delay)
            if sleep is not None and delay > 0:
                sleep(delay)
            continue
        if attempt > 1 and recoveries_metric is not None:
            recoveries_metric.inc()
        return result
    raise AssertionError("unreachable")  # pragma: no cover
