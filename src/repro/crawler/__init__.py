"""The §3.2 profile crawler: frontier, fetchers, parser, crawl database."""

from repro.crawler.crawler import CrawlStats, MultiThreadedCrawler, crawl_full_site
from repro.crawler.database import (
    CrawlDatabase,
    RecentCheckinRow,
    UserInfoRow,
    VenueInfoRow,
    like_to_regex,
)
from repro.crawler.fetcher import PageFetcher
from repro.crawler.frontier import CrawlMode, IdFrontier
from repro.crawler.parser import (
    ParsedUser,
    ParsedVenue,
    parse_user_page,
    parse_venue_page,
)
from repro.crawler.worker import AppendixAController, WorkerStats

__all__ = [
    "CrawlStats",
    "MultiThreadedCrawler",
    "crawl_full_site",
    "CrawlDatabase",
    "RecentCheckinRow",
    "UserInfoRow",
    "VenueInfoRow",
    "like_to_regex",
    "PageFetcher",
    "CrawlMode",
    "IdFrontier",
    "ParsedUser",
    "ParsedVenue",
    "parse_user_page",
    "parse_venue_page",
    "AppendixAController",
    "WorkerStats",
]

from repro.crawler.snapshots import (
    CrawlSnapshot,
    ObservedCheckIn,
    SnapshotDiff,
    SnapshotStore,
    diff_snapshots,
)

__all__ += [
    "CrawlSnapshot",
    "ObservedCheckIn",
    "SnapshotDiff",
    "SnapshotStore",
    "diff_snapshots",
]
