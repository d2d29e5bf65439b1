"""A thread-safe circuit breaker paced by an injectable clock.

The crawler's §3.2 reality was IP bans: once the service starts refusing
an egress, hammering it harder only extends the ban.  A
:class:`CircuitBreaker` encodes the fix — after ``failure_threshold``
consecutive failures the circuit *opens* and calls fail fast with
:class:`~repro.errors.BreakerOpenError`; after ``reset_timeout_s`` on
the injected clock it *half-opens* and admits one trial call; a probe
success closes the circuit, a probe failure re-opens it and re-arms the
timer.

``now_fn`` is any zero-argument float callable.  Tests and the chaos
harness pass ``SimClock.now``, so breakers open and half-open entirely
in simulated time — no wall-clock sleeps anywhere.

Telemetry (optional): ``repro_breaker_state{name}`` gauge (0 closed,
1 open, 2 half-open), ``repro_breaker_transitions_total{name,state}``
per transition, ``repro_breaker_short_circuits_total{name}`` per
fast-failed call; INFO/WARNING ``breaker.*`` records on the
``faults.breaker`` logger under the ambient trace_id.
"""

from __future__ import annotations

import threading
import time
from enum import Enum
from typing import Callable, Optional

from repro.errors import BreakerOpenError, ReproError
from repro.obs.context import current_trace
from repro.obs.log import LogHub, StructuredLogger
from repro.obs.metrics import MetricsRegistry


class BreakerError(ReproError):
    """Misuse of the circuit-breaker API (bad threshold, bad timeout...)."""


class BreakerState(Enum):
    """The classic three states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Gauge encoding of the state, documented in docs/RESILIENCE.md.
_STATE_VALUE = {
    BreakerState.CLOSED: 0.0,
    BreakerState.OPEN: 1.0,
    BreakerState.HALF_OPEN: 2.0,
}


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probing."""

    def __init__(
        self,
        name: str = "breaker",
        failure_threshold: int = 5,
        reset_timeout_s: float = 30.0,
        now_fn: Optional[Callable[[], float]] = None,
        metrics: Optional[MetricsRegistry] = None,
        log: Optional[LogHub] = None,
    ) -> None:
        if failure_threshold < 1:
            raise BreakerError(
                f"failure_threshold must be >= 1: {failure_threshold}"
            )
        if reset_timeout_s < 0:
            raise BreakerError(
                f"reset_timeout_s must be non-negative: {reset_timeout_s}"
            )
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._now = now_fn if now_fn is not None else time.monotonic
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_granted = False
        self._open_count = 0
        self._logger: Optional[StructuredLogger] = (
            log.logger("faults.breaker") if log is not None else None
        )
        if metrics is not None:
            self._state_metric = metrics.gauge(
                "repro_breaker_state",
                "Circuit-breaker state: 0 closed, 1 open, 2 half-open.",
                ("name",),
            ).labels(name)
            self._transitions_metric = metrics.counter(
                "repro_breaker_transitions_total",
                "Circuit-breaker state transitions, by breaker and state "
                "entered.",
                ("name", "state"),
            )
            self._short_circuits_metric = metrics.counter(
                "repro_breaker_short_circuits_total",
                "Calls fast-failed while the breaker was open, by breaker.",
                ("name",),
            ).labels(name)
        else:
            self._state_metric = None
            self._transitions_metric = None
            self._short_circuits_metric = None

    # State ---------------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        """Current state (promotes OPEN → HALF_OPEN when the timer is due)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    @property
    def consecutive_failures(self) -> int:
        """Failures since the last success (CLOSED bookkeeping)."""
        with self._lock:
            return self._consecutive_failures

    @property
    def open_count(self) -> int:
        """How many times the breaker has opened, ever."""
        with self._lock:
            return self._open_count

    def _maybe_half_open(self) -> None:
        """Promote OPEN → HALF_OPEN once the reset timer is due.

        Caller holds the lock.
        """
        if (
            self._state is BreakerState.OPEN
            and self._now() >= self._opened_at + self.reset_timeout_s
        ):
            self._transition(BreakerState.HALF_OPEN)
            self._probe_granted = False

    def _transition(self, state: BreakerState) -> None:
        """Move to ``state`` with telemetry.  Caller holds the lock."""
        if state is self._state:
            return
        self._state = state
        if state is BreakerState.OPEN:
            self._opened_at = self._now()
            self._open_count += 1
        if self._state_metric is not None:
            self._state_metric.set(_STATE_VALUE[state])
        if self._transitions_metric is not None:
            self._transitions_metric.labels(self.name, state.value).inc()
        logger = self._logger
        if logger is not None:
            ambient = current_trace()
            logger.warning(
                f"breaker.{state.value}",
                name=self.name,
                consecutive_failures=self._consecutive_failures,
                open_count=self._open_count,
                trace_id=ambient.trace_id if ambient is not None else None,
            )

    # The caller protocol -------------------------------------------------

    def allow(self) -> bool:
        """May a call proceed right now?

        CLOSED: always.  OPEN: no (counted as a short circuit) until the
        reset timer promotes to HALF_OPEN.  HALF_OPEN: yes for the one
        probe; further callers are refused until it reports back.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.HALF_OPEN:
                if not self._probe_granted:
                    self._probe_granted = True
                    return True
                if self._short_circuits_metric is not None:
                    self._short_circuits_metric.inc()
                return False
            if self._short_circuits_metric is not None:
                self._short_circuits_metric.inc()
            return False

    def ensure(self) -> None:
        """Raise :class:`~repro.errors.BreakerOpenError` unless allowed."""
        if not self.allow():
            raise BreakerOpenError(self.name)

    def record_success(self) -> None:
        """Report a protected call that succeeded."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state is not BreakerState.CLOSED:
                self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        """Report a protected call that failed."""
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.HALF_OPEN:
                # A probe failed: straight back to OPEN, timer re-armed.
                self._transition(BreakerState.OPEN)
                return
            self._consecutive_failures += 1
            if (
                self._state is BreakerState.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._transition(BreakerState.OPEN)
