"""repro.faults: deterministic fault injection + resilience toolkit.

Two halves, one package:

* **Injection** — :class:`FaultPlan` (seeded catalogue of
  :class:`FaultSpec` entries at named failure points) and
  :class:`FaultInjector` (live decisions with metrics/log/sequence
  telemetry).  The failure-point names live in
  :mod:`repro.faults.points` and are documented in docs/RESILIENCE.md.
* **Resilience** — :class:`BackoffPolicy` + :func:`retry_call` (retries
  of transient errors with capped exponential backoff) and
  :class:`CircuitBreaker` (consecutive-failure breaker with one
  half-open probe).

Everything paces itself against injectable clocks/sleeps, so the chaos
suite runs entirely in simulated time — zero wall-clock sleeps.
"""

from repro.faults.breaker import BreakerError, BreakerState, CircuitBreaker
from repro.faults.injector import (
    SEQUENCE_RING_SIZE,
    FaultDecision,
    FaultInjector,
)
from repro.faults.plan import FaultKind, FaultPlan, FaultPlanError, FaultSpec
from repro.faults.points import (
    FAILURE_POINTS,
    POINT_CRAWLER_FETCH,
    POINT_DURABLE_WORKER,
    POINT_SIMNET_REQUEST,
    POINT_STORE_COMMIT,
    POINT_STREAM_SUBSCRIBER,
    POINT_WEB_REQUEST,
)
from repro.faults.retry import BackoffPolicy, RetryPolicyError, retry_call

__all__ = [
    "FAILURE_POINTS",
    "POINT_CRAWLER_FETCH",
    "POINT_DURABLE_WORKER",
    "POINT_SIMNET_REQUEST",
    "POINT_STORE_COMMIT",
    "POINT_STREAM_SUBSCRIBER",
    "POINT_WEB_REQUEST",
    "BackoffPolicy",
    "BreakerError",
    "BreakerState",
    "CircuitBreaker",
    "FaultDecision",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "RetryPolicyError",
    "SEQUENCE_RING_SIZE",
    "retry_call",
]
