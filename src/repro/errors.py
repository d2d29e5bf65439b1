"""Exception hierarchy shared across the reproduction library.

Every package-specific error derives from :class:`ReproError`, so callers can
catch one base class at API boundaries while tests can assert on the precise
subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class TransientError(ReproError):
    """An error that is expected to clear on its own — retrying may help.

    The resilience toolkit (:mod:`repro.faults`) keys its retry policy
    off this class: :func:`repro.faults.retry_call` retries
    transient errors and immediately re-raises everything else.  Layers
    that can distinguish "try again" from "give up" raise a subclass
    carrying both their domain base (``CrawlError``, ``ServiceError``)
    and this marker, so one ``isinstance`` check answers the retry
    question anywhere in the stack.
    """


class PermanentError(ReproError):
    """An error that will not clear by retrying (refusal, bad input)."""


class FaultInjectedError(TransientError):
    """A failure deliberately injected by a :mod:`repro.faults` plan."""

    def __init__(self, point: str, message: str = "") -> None:
        super().__init__(message or f"injected fault at {point!r}")
        self.point = point


class BreakerOpenError(TransientError):
    """A call was short-circuited by an open circuit breaker."""

    def __init__(self, name: str, message: str = "") -> None:
        super().__init__(message or f"circuit breaker {name!r} is open")
        self.name = name


class GeoError(ReproError):
    """Invalid geographic input (out-of-range coordinate, empty path, ...)."""


class NetworkError(ReproError):
    """Simulated network failure (unreachable host, blocked client, ...)."""


class HttpError(NetworkError):
    """An HTTP-level failure from the simulated web transport."""

    def __init__(self, status: int, message: str = "") -> None:
        super().__init__(message or f"HTTP {status}")
        self.status = status


class ServiceError(ReproError):
    """The LBSN service rejected a request (bad venue, bad user, ...)."""


class CheatDetectedError(ServiceError):
    """A check-in was refused outright by the cheater code."""

    def __init__(self, rule: str, message: str = "") -> None:
        super().__init__(message or f"check-in refused by rule: {rule}")
        self.rule = rule


class CommitContentionError(ServiceError, TransientError):
    """The datastore could not commit right now (contention, injected).

    Surfaced from :meth:`repro.lbsn.store.DataStore.add_checkin_committed`
    when a fault plan fires at the ``store.commit`` point.  The commit is
    atomic: when this raises, *nothing* was persisted — retrying the
    check-in is always safe and never double-commits.
    """


class DeviceError(ReproError):
    """Device/emulator misuse (no GPS fix, locked emulator, ...)."""


class CrawlError(ReproError):
    """The crawler could not fetch or parse a profile page."""


class CrawlTransientError(CrawlError, TransientError):
    """A fetch failure expected to clear: 5xx, rate limit, network loss."""


class CrawlPermanentError(CrawlError, PermanentError):
    """A fetch refusal that will not clear: auth wall, block, bad page."""


class DefenseError(ReproError):
    """A defense component rejected or failed to verify a claim."""
