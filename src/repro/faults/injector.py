"""The runtime half of fault injection: decisions, sequencing, telemetry.

A :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into live decisions.  Layers call :meth:`FaultInjector.check` (raise /
slow / proceed) or :meth:`FaultInjector.decide` (inspect the decision
and map it themselves — the HTTP transport and web middleware do this to
turn fired faults into status codes instead of exceptions).

Every fired fault:

* increments ``repro_faults_injected_total{point,kind}``,
* emits a WARNING ``fault.injected`` record on the ``faults`` logger
  carrying the ambient ``trace_id`` (or an explicit one), and
* appends to the per-point decision sequence, whose digest
  (:meth:`FaultInjector.sequence_digest`) is the determinism witness the
  chaos suite compares across replays.

Injectors are thread-safe: each ``(point, spec)`` stream advances under
its own lock, so 40 crawler threads draw from the same deterministic
stream without tearing it.
"""

from __future__ import annotations

import hashlib
import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultInjectedError, HttpError
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.obs.context import current_trace
from repro.obs.log import LogHub, StructuredLogger
from repro.obs.metrics import MetricsRegistry

#: Decisions retained per point for sequence digests and assertions.
SEQUENCE_RING_SIZE = 65_536


@dataclass(frozen=True)
class FaultDecision:
    """One fired fault: which spec, at which per-point fire index."""

    point: str
    spec: FaultSpec
    #: 0-based index of this fire among the point's fires so far.
    fire_index: int
    #: 0-based index of the check (fired or not) that produced this.
    check_index: int

    @property
    def kind(self) -> FaultKind:
        """Shorthand for the spec's kind."""
        return self.spec.kind

    @property
    def latency_s(self) -> float:
        """Shorthand for the spec's latency charge."""
        return self.spec.latency_s

    @property
    def status(self) -> int:
        """Shorthand for the spec's HTTP status."""
        return self.spec.status


class _SpecState:
    """Mutable decision stream for one (point, spec) pair."""

    __slots__ = ("spec", "rng", "fires")

    def __init__(self, spec: FaultSpec, seed: int) -> None:
        self.spec = spec
        self.rng = random.Random(seed)
        self.fires = 0

    def draw(self, label: Optional[str]) -> bool:
        """Whether this check fires.  Caller holds the lock.

        The RNG is advanced for every *eligible* check — including those
        suppressed by ``max_fires`` — so the decision stream stays a pure
        function of the check index.
        """
        spec = self.spec
        if spec.only_labels is not None and label not in spec.only_labels:
            return False
        fired = self.rng.random() < spec.probability
        if not fired:
            return False
        if spec.max_fires is not None and self.fires >= spec.max_fires:
            return False
        self.fires += 1
        return True


class FaultInjector:
    """Live fault decisions for one plan, with metrics/log/sequence."""

    def __init__(
        self,
        plan: FaultPlan,
        clock=None,
        metrics: Optional[MetricsRegistry] = None,
        log: Optional[LogHub] = None,
    ) -> None:
        self.plan = plan
        self.clock = clock
        self._lock = threading.Lock()
        self._armed = True
        self._states: Dict[str, List[_SpecState]] = {}
        for index, spec in enumerate(plan.specs()):
            self._states.setdefault(spec.point, []).append(
                _SpecState(spec, plan.spec_seed(index))
            )
        self._checks: Dict[str, int] = {point: 0 for point in self._states}
        self._fired: Dict[str, int] = {point: 0 for point in self._states}
        #: Per-point decision history: (check_index, kind value) per fire.
        self._sequence: Dict[str, List[Tuple[int, str]]] = {
            point: [] for point in self._states
        }
        self._logger: Optional[StructuredLogger] = (
            log.logger("faults") if log is not None else None
        )
        if metrics is not None:
            self._injected_metric = metrics.counter(
                "repro_faults_injected_total",
                "Faults fired by the active plan, by point and kind.",
                ("point", "kind"),
            )
            self._checks_metric = metrics.counter(
                "repro_faults_checks_total",
                "Failure-point checks evaluated (fired or not), by point.",
                ("point",),
            )
            self._armed_metric = metrics.gauge(
                "repro_faults_armed",
                "1 while the fault plan is armed, 0 while disarmed.",
            ).child()
            self._armed_metric.set(1.0)
        else:
            self._injected_metric = None
            self._checks_metric = None
            self._armed_metric = None

    # Arming -------------------------------------------------------------

    @property
    def armed(self) -> bool:
        """Whether checks may fire at all."""
        with self._lock:
            return self._armed

    def arm(self) -> None:
        """Enable firing (the initial state)."""
        with self._lock:
            self._armed = True
        if self._armed_metric is not None:
            self._armed_metric.set(1.0)

    def disarm(self) -> None:
        """Disable firing; checks return clean until re-armed.

        Disarmed checks do **not** advance the decision streams, so a
        workload that only arms faults for its storm phase still replays
        deterministically.
        """
        with self._lock:
            self._armed = False
        if self._armed_metric is not None:
            self._armed_metric.set(0.0)

    # Decisions ----------------------------------------------------------

    def decide(
        self,
        point: str,
        label: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> Optional[FaultDecision]:
        """Evaluate one check at ``point``; None when nothing fires.

        Fired decisions are fully accounted (metrics, log, sequence)
        here, so callers that map the decision themselves (transport,
        web middleware) need no extra bookkeeping.  The caller applies
        the decision's latency/error itself or via :meth:`apply`.
        """
        decision: Optional[FaultDecision] = None
        with self._lock:
            states = self._states.get(point)
            if not self._armed or not states:
                return None
            check_index = self._checks[point]
            self._checks[point] = check_index + 1
            for state in states:
                if state.draw(label):
                    fire_index = self._fired[point]
                    self._fired[point] = fire_index + 1
                    decision = FaultDecision(
                        point=point,
                        spec=state.spec,
                        fire_index=fire_index,
                        check_index=check_index,
                    )
                    sequence = self._sequence[point]
                    if len(sequence) < SEQUENCE_RING_SIZE:
                        sequence.append(
                            (check_index, state.spec.kind.value)
                        )
                    break
        if self._checks_metric is not None:
            self._checks_metric.labels(point).inc()
        if decision is not None:
            self._account(decision, label, trace_id)
        return decision

    def check(
        self,
        point: str,
        label: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> float:
        """Decide and *apply*: raise, slow, or pass through.

        Returns the latency charged (0.0 when nothing fired).  ERROR
        faults raise their typed error; HTTP faults raise
        :class:`~repro.errors.HttpError`; LATENCY faults advance the
        injector's clock (when it has one) and return the charge.
        """
        decision = self.decide(point, label=label, trace_id=trace_id)
        if decision is None:
            return 0.0
        return self.apply(decision)

    def apply(self, decision: FaultDecision) -> float:
        """Apply a fired decision: charge latency, then raise if due."""
        spec = decision.spec
        if spec.latency_s > 0 and self.clock is not None:
            self.clock.advance(spec.latency_s)
        if spec.kind is FaultKind.ERROR:
            error = spec.error or FaultInjectedError
            if error is FaultInjectedError:
                raise FaultInjectedError(decision.point)
            raise error(
                f"injected fault at {decision.point!r} "
                f"(fire #{decision.fire_index})"
            )
        if spec.kind is FaultKind.HTTP:
            raise HttpError(
                spec.status,
                f"injected HTTP {spec.status} at {decision.point!r}",
            )
        return spec.latency_s

    def _account(
        self,
        decision: FaultDecision,
        label: Optional[str],
        trace_id: Optional[str],
    ) -> None:
        if self._injected_metric is not None:
            self._injected_metric.labels(
                decision.point, decision.spec.kind.value
            ).inc()
        logger = self._logger
        if logger is not None:
            if trace_id is None:
                ambient = current_trace()
                trace_id = ambient.trace_id if ambient is not None else None
            logger.warning(
                "fault.injected",
                point=decision.point,
                kind=decision.spec.kind.value,
                label=label,
                fire_index=decision.fire_index,
                check_index=decision.check_index,
                trace_id=trace_id,
            )

    # Introspection ------------------------------------------------------

    def checks_at(self, point: str) -> int:
        """How many checks a point has evaluated."""
        with self._lock:
            return self._checks.get(point, 0)

    def fired_at(self, point: str) -> int:
        """How many faults a point has fired."""
        with self._lock:
            return self._fired.get(point, 0)

    def fired_counts(self) -> Dict[str, int]:
        """``{point: fires}`` snapshot over all armed points."""
        with self._lock:
            return dict(self._fired)

    def sequence(self, point: str) -> List[Tuple[int, str]]:
        """The per-point fire history: (check_index, kind) pairs."""
        with self._lock:
            return list(self._sequence.get(point, []))

    def sequence_digest(self) -> str:
        """SHA-256 over every point's fire history, points sorted.

        Per-point decision streams are pure functions of (seed, check
        index), so this digest is identical across replays of the same
        seed — even when worker threads interleave differently — and is
        the chaos suite's "identical fault sequence" witness.
        """
        hasher = hashlib.sha256()
        with self._lock:
            for point in sorted(self._sequence):
                hasher.update(point.encode())
                for check_index, kind in self._sequence[point]:
                    hasher.update(f":{check_index}:{kind}".encode())
        return hasher.hexdigest()
