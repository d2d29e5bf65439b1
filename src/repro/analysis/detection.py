"""Combined cheater detection: the three identifying factors of Chapter 4.

"(1) above normal level of activity, (2) below normal level of rewards,
and (3) suspicious check-in patterns."  Each factor contributes a score in
[0, 1]; users above a combined threshold are reported as suspects.  This is
the "find cheaters Foursquare hasn't found" future-work tool the thesis
sketches at the end of §4.3.

The factor formulas and the reporting bar are module functions over plain
counts, with their thresholds as module constants: the offline
:class:`CheaterDetector` feeds them crawl rows and the live
:class:`~repro.stream.ledger.SuspicionLedger` feeds them its factor
table, so both score with the same expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.patterns import (
    PatternVerdict,
    analyze_pattern,
)
from repro.crawler.database import CrawlDatabase, UserInfoRow


@dataclass
class SuspicionReport:
    """Per-user factor scores and the combined verdict."""

    user_id: int
    total_checkins: int
    activity_score: float = 0.0
    reward_score: float = 0.0
    pattern_score: float = 0.0
    city_count: int = 0

    @property
    def combined_score(self) -> float:
        """Mean of the three factor scores."""
        return (self.activity_score + self.reward_score + self.pattern_score) / 3.0

    @property
    def strongest_factor(self) -> float:
        """The most incriminating single factor."""
        return max(self.activity_score, self.reward_score, self.pattern_score)


#: recent/total ratio that saturates the activity factor.
SATURATING_RATIO = 0.8
#: Expected badges per 100 check-ins for honest users...
EXPECTED_BADGES_PER_100 = 8.0
#: ...saturating at the catalogue's practical ceiling (the Fig 4.2 curve
#: plateaus near 90 for heavy legitimate users).
BADGE_CEILING = 90.0
#: City count that saturates the pattern factor.
SATURATING_CITY_COUNT = 20
#: Combined score above which a user is reported.
REPORT_THRESHOLD = 0.45
#: A single factor at or above this also reports the user: each of
#: Chapter 4's three signals is individually incriminating.
STRONG_FACTOR_THRESHOLD = 0.8


def activity_score(recent: int, total: int) -> float:
    """Factor 1 — above-normal activity: the recent/total ratio.

    ``total`` must be positive; both scorers return early on zero.
    """
    return min(1.0, (recent / total) / SATURATING_RATIO)


def reward_score(total: int, badges: int) -> float:
    """Factor 2 — below-normal rewards: badge shortfall against a
    saturating expectation (badges plateau for heavy honest users)."""
    expected = max(
        1.0,
        min(BADGE_CEILING, total * EXPECTED_BADGES_PER_100 / 100.0),
    )
    return max(0.0, 1.0 - badges / expected)


def pattern_score(city_count: int) -> float:
    """Factor 3 — suspicious pattern: geographic dispersion."""
    return min(1.0, city_count / SATURATING_CITY_COUNT)


def over_report_bar(report: SuspicionReport) -> bool:
    """Combined score over the bar, or any single factor screaming."""
    if report.combined_score >= REPORT_THRESHOLD:
        return True
    return report.strongest_factor >= STRONG_FACTOR_THRESHOLD


@dataclass
class DetectorConfig:
    """The one per-deployment setting of the three-factor score."""

    #: Minimum total check-ins to be worth scoring at all.
    min_total_checkins: int = 200


class CheaterDetector:
    """Scores users over a crawl database."""

    def __init__(
        self,
        database: CrawlDatabase,
        config: Optional[DetectorConfig] = None,
    ) -> None:
        self.database = database
        self.config = config or DetectorConfig()

    def score_user(self, user: UserInfoRow) -> SuspicionReport:
        """Score one user on all three factors."""
        report = SuspicionReport(
            user_id=user.user_id, total_checkins=user.total_checkins
        )
        if user.total_checkins <= 0:
            return report
        report.activity_score = activity_score(
            user.recent_checkins, user.total_checkins
        )
        report.reward_score = reward_score(
            user.total_checkins, user.total_badges
        )
        pattern = analyze_pattern(self.database, user.user_id)
        report.city_count = pattern.city_count
        if pattern.verdict is not PatternVerdict.INSUFFICIENT_DATA:
            report.pattern_score = pattern_score(pattern.city_count)
        return report

    def find_suspects(self) -> List[SuspicionReport]:
        """All users above the reporting threshold, strongest first."""
        suspects: List[SuspicionReport] = []
        for user in self.database.users():
            if user.total_checkins < self.config.min_total_checkins:
                continue
            report = self.score_user(user)
            if over_report_bar(report):
                suspects.append(report)
        suspects.sort(key=lambda r: r.combined_score, reverse=True)
        return suspects

    def undetected_mayor_holders(
        self, min_mayorships: int = 10
    ) -> List[SuspicionReport]:
        """Suspicious users who currently hold mayorships (§4.3's closing).

        "By the time this work was conducted, all mayors passed the
        scrutiny of the cheater code. So any cheaters we found in this
        group of users were new discoveries."
        """
        reports: List[SuspicionReport] = []
        for user in self.database.select_users(
            lambda u: u.total_mayors >= min_mayorships
        ):
            report = self.score_user(user)
            if over_report_bar(report):
                reports.append(report)
        reports.sort(key=lambda r: r.combined_score, reverse=True)
        return reports
