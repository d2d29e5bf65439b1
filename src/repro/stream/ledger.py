"""The live :class:`SuspicionLedger`: Chapter-4 verdicts at check-in time.

Folds the event stream into one
:class:`~repro.stream.detectors.FactorTable` and keeps a rolling set of
suspects with the *same* scoring semantics, thresholds, and
:class:`~repro.analysis.detection.SuspicionReport` records as the offline
:class:`~repro.analysis.detection.CheaterDetector` — the ledger is the
"find cheaters Foursquare hasn't found" tool of §4.3 run against the
firehose instead of a crawl snapshot.

A user's report is recomputed in O(1) whenever one of their check-ins
commits; users crossing the reporting bar enter the ledger, users falling
back below it leave.  ``top(k)`` answers "who are the worst offenders
right now" without scanning the population, which is what makes the ledger
usable as an *inline* defense: :class:`repro.defense.integration.
DefendedLbsnService` can consult it on every check-in.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from typing import Dict, List, Optional

from repro.analysis.detection import (
    DetectorConfig,
    SuspicionReport,
    activity_score,
    over_report_bar,
    pattern_score,
    reward_score,
)
from repro.obs.log import LogHub
from repro.obs.metrics import MetricsRegistry
from repro.stream.bus import EventBus
from repro.stream.detectors import MIN_PATTERN_POINTS, FactorTable
from repro.stream.events import CheckInAccepted, CheckInFlagged, StreamEvent


class SuspicionLedger:
    """Top-K live suspect tracking over the event stream.

    Parameters
    ----------
    config:
        The detector's check-in floor (``min_total_checkins``).  The
        factor thresholds and the reporting bar are the module constants
        of :mod:`repro.analysis.detection`, shared with
        :class:`CheaterDetector`, so passing both the same config gives
        the online/offline parity the E19 bench measures.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`.  The ledger exports
        how many check-ins it has scored
        (``repro_ledger_checkins_scored_total``), how many times a user
        newly crossed the reporting bar
        (``repro_ledger_flags_raised_total``), and the current suspect
        count (``repro_ledger_suspects``).
    log:
        Optional :class:`~repro.obs.log.LogHub`.  Each time a user newly
        crosses the reporting bar the ledger emits one ``ledger.flag``
        record carrying the *triggering event's* ``trace_id`` — the last
        hop of the end-to-end check-in → commit → publish → detect → flag
        chain (see :mod:`repro.obs.context`).
    """

    def __init__(
        self,
        config: Optional[DetectorConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        log: Optional[LogHub] = None,
    ) -> None:
        self.config = config or DetectorConfig()
        self.factors = FactorTable()
        self._logger = log.logger("stream.ledger") if log is not None else None
        self._suspects: Dict[int, SuspicionReport] = {}
        #: Trace that raised each live flag (user_id → trace_id).
        self._flag_traces: Dict[int, Optional[str]] = {}
        #: Externally attested suspects (user_id → rule).  Pinned users
        #: stay over the reporting bar regardless of their three-factor
        #: scores: the evidence came from outside the scoring model
        #: (e.g. a honeypot-venue check-in, which no volume threshold
        #: should be able to launder away).  See :meth:`pin`.
        self._pinned: Dict[int, str] = {}
        self._lock = threading.Lock()
        self.events_processed = 0
        if metrics is not None:
            self._scored_metric = metrics.counter(
                "repro_ledger_checkins_scored_total",
                "Check-in events rescored by the suspicion ledger.",
            )
            self._flags_metric = metrics.counter(
                "repro_ledger_flags_raised_total",
                "Times a user newly crossed the ledger's reporting bar.",
            )
            self._suspects_metric = metrics.gauge(
                "repro_ledger_suspects",
                "Users currently over the ledger's reporting bar.",
            )
        else:
            self._scored_metric = None
            self._flags_metric = None
            self._suspects_metric = None

    @property
    def activity(self) -> FactorTable:
        """The factor table, under the name perfbench's per-layer
        ``stream.ledger.users_resident`` metric reads."""
        return self.factors

    # Event intake -------------------------------------------------------

    def on_event(self, event: StreamEvent) -> None:
        """Fold one bus event into the factor table, then rescore."""
        self.factors.on_event(event)
        if isinstance(event, (CheckInAccepted, CheckInFlagged)):
            with self._lock:
                self.events_processed += 1
                self._rescore(event.user_id, trace_id=event.trace_id)
            if self._scored_metric is not None:
                self._scored_metric.inc()

    def attach(
        self, bus: EventBus, name: str = "suspicion-ledger"
    ) -> "SuspicionLedger":
        """Subscribe this ledger to a bus; returns self for chaining."""
        bus.subscribe(name, self.on_event)
        return self

    # Scoring ------------------------------------------------------------

    def score_user(self, user_id: int) -> SuspicionReport:
        """Build the current three-factor report for one user.

        The formulas of :meth:`CheaterDetector.score_user`, fed from
        streaming state instead of crawl rows.
        """
        state = self.factors.users.get(user_id)
        total = 0 if state is None else state.total
        report = SuspicionReport(user_id=user_id, total_checkins=total)
        if total <= 0:
            return report
        report.activity_score = activity_score(state.recent, state.total)
        report.reward_score = reward_score(state.total, state.badges)
        report.city_count = len(state.leaders)
        if state.valid >= MIN_PATTERN_POINTS:
            report.pattern_score = pattern_score(report.city_count)
        return report

    def _reportable(self, report: SuspicionReport) -> bool:
        if report.user_id in self._pinned:
            return True
        if report.total_checkins < self.config.min_total_checkins:
            return False
        return over_report_bar(report)

    def _rescore(
        self, user_id: int, trace_id: Optional[str] = None
    ) -> None:
        report = self.score_user(user_id)
        if self._reportable(report):
            newly_flagged = user_id not in self._suspects
            if newly_flagged:
                if self._flags_metric is not None:
                    self._flags_metric.inc()
                self._flag_traces[user_id] = trace_id
                if self._logger is not None:
                    self._logger.info(
                        "ledger.flag",
                        trace_id=trace_id,
                        user_id=user_id,
                        combined_score=round(report.combined_score, 4),
                        activity_score=round(report.activity_score, 4),
                        reward_score=round(report.reward_score, 4),
                        pattern_score=round(report.pattern_score, 4),
                        total_checkins=report.total_checkins,
                    )
            self._suspects[user_id] = report
        else:
            self._suspects.pop(user_id, None)
            self._flag_traces.pop(user_id, None)
        if self._suspects_metric is not None:
            self._suspects_metric.set(len(self._suspects))

    # External attestation ----------------------------------------------

    def pin(
        self,
        user_id: int,
        rule: str,
        trace_id: Optional[str] = None,
    ) -> None:
        """Force ``user_id`` over the reporting bar on external evidence.

        Defense tiers outside the three-factor scoring model — the
        honeypot registry foremost (:mod:`repro.defense.honeypot`) — call
        this when they hold proof of cheating that no score can express.
        A pinned user is reportable regardless of check-in volume or
        factor scores, survives the lazy rescore-on-read that would
        otherwise evict a low-volume account, and carries ``rule`` as the
        reason plus the flagging event's ``trace_id`` so
        :meth:`flag_trace_id` links the flag back to the exact request.

        Pinning is idempotent: re-pinning an already-pinned user updates
        the rule but raises no second flag.
        """
        with self._lock:
            newly_flagged = user_id not in self._suspects
            self._pinned[user_id] = rule
            if newly_flagged:
                if self._flags_metric is not None:
                    self._flags_metric.inc()
                self._flag_traces[user_id] = trace_id
                report = self.score_user(user_id)
                self._suspects[user_id] = report
                if self._logger is not None:
                    self._logger.info(
                        "ledger.flag",
                        trace_id=trace_id,
                        user_id=user_id,
                        rule=rule,
                        combined_score=round(report.combined_score, 4),
                        total_checkins=report.total_checkins,
                    )
            if self._suspects_metric is not None:
                self._suspects_metric.set(len(self._suspects))

    def pinned_rule(self, user_id: int) -> Optional[str]:
        """The external rule holding this user on the ledger, if any."""
        with self._lock:
            return self._pinned.get(user_id)

    # Read side ----------------------------------------------------------
    #
    # A user's factors can move without any event of *their own* — other
    # users displace them from recent-visitor lists, lowering the activity
    # ratio — so ledger *membership* is refreshed on read: entry is
    # event-driven, exit is checked lazily.  Rescoring is O(1), and the
    # suspect set is tiny relative to the population, so reads stay cheap.

    def is_suspect(self, user_id: int) -> bool:
        """Is this user currently over the reporting bar?"""
        with self._lock:
            if user_id not in self._suspects:
                return False
            self._rescore(user_id)
            return user_id in self._suspects

    def flag_trace_id(self, user_id: int) -> Optional[str]:
        """Trace of the event that raised this user's live flag, if any."""
        with self._lock:
            return self._flag_traces.get(user_id)

    def suspect_ids(self) -> List[int]:
        """All current suspect user-ids (unordered snapshot)."""
        with self._lock:
            for user_id in list(self._suspects):
                self._rescore(user_id)
            return list(self._suspects)

    def suspects(self) -> List[SuspicionReport]:
        """All current suspects, strongest combined score first."""
        with self._lock:
            for user_id in list(self._suspects):
                self._rescore(user_id)
            reports = list(self._suspects.values())
        reports.sort(key=lambda r: r.combined_score, reverse=True)
        return reports

    def top(self, k: int) -> List[SuspicionReport]:
        """The ``k`` worst offenders right now."""
        return self.suspects()[:k]

    def __len__(self) -> int:
        return len(self._suspects)

    # Snapshot hooks -----------------------------------------------------
    #
    # The durability layer (:mod:`repro.durable.snapshot`) persists the
    # ledger as: this state dict + the ``seq`` watermark.  Recovery loads
    # the dict into a *fresh* ledger and replays the WAL suffix — so the
    # dict must capture every accumulator scoring reads, and nothing
    # environment-dependent.

    def state_dict(self) -> dict:
        """JSON-able snapshot of all ledger + factor-table state."""
        with self._lock:
            return {
                "events_processed": self.events_processed,
                "suspects": [
                    dataclasses.asdict(self._suspects[user_id])
                    for user_id in sorted(self._suspects)
                ],
                "flag_traces": [
                    [user_id, self._flag_traces[user_id]]
                    for user_id in sorted(self._flag_traces)
                ],
                "pinned": [
                    [user_id, self._pinned[user_id]]
                    for user_id in sorted(self._pinned)
                ],
                "factors": self.factors.state_dict(),
            }

    def load_state_dict(self, doc: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (replaces all state)."""
        with self._lock:
            self.events_processed = doc["events_processed"]
            self._suspects = {
                report["user_id"]: SuspicionReport(**report)
                for report in doc["suspects"]
            }
            self._flag_traces = {
                user_id: trace for user_id, trace in doc["flag_traces"]
            }
            self._pinned = {user_id: rule for user_id, rule in doc["pinned"]}
            self.factors.load_state_dict(doc["factors"])
        if self._suspects_metric is not None:
            self._suspects_metric.set(len(self._suspects))

    def digest(self) -> str:
        """sha256 over the canonical, *trace-scrubbed* ledger state.

        Trace ids are uuid-per-request and differ between two otherwise
        identical runs, so the crash/replay parity checks compare this
        digest rather than raw state: equal digests ⇔ equal scoring
        state.  (Snapshot round-trips still preserve traces — only the
        digest ignores them.)
        """
        doc = self.state_dict()
        doc.pop("flag_traces")
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()
