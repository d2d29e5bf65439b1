"""Deterministic fault plans: *what* goes wrong, *where*, *how often*.

The thesis's crawler and cheating scheduler only worked because they
survived a flaky, rate-limited live service (§3.2: multi-threaded
crawling through IP bans, retries, and pacing).  Our simulation has no
accidental flakiness, so this module supplies the deliberate kind: a
:class:`FaultPlan` is a seeded catalogue of :class:`FaultSpec` entries,
each naming a failure point (see :mod:`repro.faults.points`), a firing
probability, and what firing means — an error, added latency, or an
HTTP status.

Determinism contract
--------------------
Every ``(point, spec)`` pair owns its *own* :class:`random.Random`
seeded from ``(plan seed, point, spec index)``.  The decision for the
k-th check at a point is therefore a pure function of the seed and k —
independent of thread interleaving, of activity at other points, and of
how many other plans share the process.  The chaos suite replays a seed
twice and asserts the byte-identical fault sequence this guarantees.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple, Type

from repro.errors import CommitContentionError, ReproError
from repro.faults.points import (
    POINT_CRAWLER_FETCH,
    POINT_SIMNET_REQUEST,
    POINT_STORE_COMMIT,
    POINT_STREAM_SUBSCRIBER,
    POINT_WEB_REQUEST,
)

#: Name of the sacrificial bus subscriber the standard storm targets.
VICTIM_SUBSCRIBER = "chaos-victim"

#: The standard storm's fixed specs: commit contention, web 5xx, and
#: network latency (seconds charged, and the share of requests charged).
STORM_COMMIT_FAILURE = 0.05
STORM_WEB_FAILURE = 0.10
STORM_LATENCY_S = 0.04
STORM_LATENCY_PROBABILITY = 0.10


class FaultPlanError(ReproError):
    """Misuse of the fault-plan API (bad probability, duplicate spec...)."""


class FaultKind(Enum):
    """What a fired fault does to the caller."""

    #: Raise a typed error (``spec.error`` or ``FaultInjectedError``).
    ERROR = "error"
    #: Charge ``latency_s`` to the simulated clock, then proceed.
    LATENCY = "latency"
    #: Surface as an HTTP response with ``spec.status`` (transport/web
    #: layers turn this into a real response; ``check()`` raises
    #: :class:`~repro.errors.HttpError`).
    HTTP = "http"


@dataclass(frozen=True)
class FaultSpec:
    """One failure mode at one failure point."""

    #: Which failure point this spec arms (see :mod:`repro.faults.points`).
    point: str
    #: Per-check probability of firing, in [0, 1].
    probability: float
    #: What firing does (error / latency / http).
    kind: FaultKind = FaultKind.ERROR
    #: Simulated seconds charged when this fires (all kinds may slow).
    latency_s: float = 0.0
    #: HTTP status for :attr:`FaultKind.HTTP` specs.
    status: int = 500
    #: Error class raised for :attr:`FaultKind.ERROR` specs; defaults to
    #: :class:`~repro.errors.FaultInjectedError` when None.  The class is
    #: constructed as ``error(message)``.
    error: Optional[Type[BaseException]] = None
    #: Stop firing after this many fires (None = unlimited).
    max_fires: Optional[int] = None
    #: When set, only checks carrying one of these labels may fire
    #: (e.g. target one bus subscriber by name).
    only_labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not self.point:
            raise FaultPlanError("fault spec needs a point name")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"probability must be in [0, 1]: {self.probability}"
            )
        if self.latency_s < 0:
            raise FaultPlanError(
                f"latency_s must be non-negative: {self.latency_s}"
            )
        if self.max_fires is not None and self.max_fires < 0:
            raise FaultPlanError(
                f"max_fires must be non-negative: {self.max_fires}"
            )


class FaultPlan:
    """A seeded, ordered collection of fault specs.

    Plans are *descriptions* — pure data plus a seed.  The runtime state
    (per-spec RNG streams, fire tallies) lives in the
    :class:`~repro.faults.injector.FaultInjector` built from a plan, so
    one plan can drive many independent, identically-behaving injectors.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._specs: List[FaultSpec] = []

    def add(self, spec: FaultSpec) -> "FaultPlan":
        """Append one spec; returns self for chaining."""
        self._specs.append(spec)
        return self

    def specs(self) -> List[FaultSpec]:
        """All specs, in arming order."""
        return list(self._specs)

    def specs_for(self, point: str) -> List[FaultSpec]:
        """Specs armed at one failure point, in arming order."""
        return [spec for spec in self._specs if spec.point == point]

    def points(self) -> List[str]:
        """Distinct armed points, in first-arming order."""
        seen: Dict[str, None] = {}
        for spec in self._specs:
            seen.setdefault(spec.point, None)
        return list(seen)

    def __len__(self) -> int:
        return len(self._specs)

    def spec_seed(self, spec_index: int) -> int:
        """The deterministic RNG seed for one spec's decision stream.

        Derived by hashing ``(plan seed, point, spec index)`` so streams
        never alias across points or across specs at the same point.
        """
        spec = self._specs[spec_index]
        digest = hashlib.sha256(
            f"{self.seed}:{spec.point}:{spec_index}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big")

    # Canned plans -------------------------------------------------------

    @classmethod
    def standard_storm(
        cls,
        seed: int = 0,
        fetch_failure: float = 0.2,
        subscriber_failure: float = 0.05,
    ) -> "FaultPlan":
        """The standard fault storm used by E22, ``repro chaos``, and tests.

        20% fetch failure / 5% bus-subscriber failure by default — the
        acceptance storm, scoped to the :data:`VICTIM_SUBSCRIBER` — plus
        fixed light commit contention, injected web 5xx, and network
        latency shaping.  A zero fetch or subscriber rate omits its spec.
        """
        plan = cls(seed=seed)
        if fetch_failure > 0:
            plan.add(
                FaultSpec(
                    point=POINT_CRAWLER_FETCH,
                    probability=fetch_failure,
                    kind=FaultKind.ERROR,
                )
            )
        if subscriber_failure > 0:
            plan.add(
                FaultSpec(
                    point=POINT_STREAM_SUBSCRIBER,
                    probability=subscriber_failure,
                    kind=FaultKind.ERROR,
                    only_labels=(VICTIM_SUBSCRIBER,),
                )
            )
        plan.add(
            FaultSpec(
                point=POINT_STORE_COMMIT,
                probability=STORM_COMMIT_FAILURE,
                kind=FaultKind.ERROR,
                error=CommitContentionError,
            )
        )
        plan.add(
            FaultSpec(
                point=POINT_WEB_REQUEST,
                probability=STORM_WEB_FAILURE,
                kind=FaultKind.HTTP,
                status=500,
            )
        )
        plan.add(
            FaultSpec(
                point=POINT_SIMNET_REQUEST,
                probability=STORM_LATENCY_PROBABILITY,
                kind=FaultKind.LATENCY,
                latency_s=STORM_LATENCY_S,
            )
        )
        return plan


__all__ = [
    "STORM_COMMIT_FAILURE",
    "STORM_LATENCY_PROBABILITY",
    "STORM_LATENCY_S",
    "STORM_WEB_FAILURE",
    "VICTIM_SUBSCRIBER",
    "FaultKind",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
]
