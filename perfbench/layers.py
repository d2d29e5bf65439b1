"""Which public entry points of each ``repro`` layer the traced run wraps.

The wrappers are installed only while a traced block runs (see
:mod:`perfbench.tracing`); untraced runs call the shipped functions.  Each
probe charges its calls to a layer name; the per-layer metrics of
``BENCHMARK.json`` are built from these names in :mod:`perfbench.report`.

Fine-grained store getters are wrapped only on the crawl, where webserver
handlers are their sole callers: on the check-in path a wrapper would cost
more than the dict lookup it times, so the lookups stay inside their
caller's self time there.
"""

from __future__ import annotations

from typing import List, Optional

from perfbench.tracing import Probe


def _dispatch_layer(parent: Optional[str], args, kwargs) -> str:
    request = args[1]
    return "lbsn.api" if request.path.startswith("/api/") else "lbsn.webserver"


def _ledger_layer(parent: Optional[str], args, kwargs) -> str:
    if parent == "durable.pipeline":
        return "durable.ledger_apply"
    if parent == "durable.replay":
        return "durable.replay.ledger"
    return "stream.ledger"


def _observe_gate(counts, args, kwargs, result) -> None:
    counts["gate.refused"] += bool(result)


def _observe_cheater_code(counts, args, kwargs, result) -> None:
    from repro.lbsn.cheater_code import RuleAction

    counts["cheater_code.history_rows"] += len(kwargs["history"])
    counts["cheater_code.allow"] += result.action is RuleAction.ALLOW


def _observe_mayorship(counts, args, kwargs, result) -> None:
    counts["mayorship.venue_rows"] += len(args[0])
    counts["mayorship.changed"] += result.changed


def _observe_badges(counts, args, kwargs, result) -> None:
    counts["rewards.badges"] += len(result)


def _observe_log(counts, args, kwargs, result) -> None:
    counts["log.kept"] += bool(result)


def _observe_wal_append(counts, args, kwargs, result) -> None:
    counts["wal.bytes"] += result


def _observe_render(counts, args, kwargs, result) -> None:
    counts["webserver.bytes"] += len(result)


def run_probes() -> List[Probe]:
    """Probes for the timed phase of every workload."""
    from repro.crawler import crawler as crawler_module
    from repro.crawler.crawler import MultiThreadedCrawler
    from repro.crawler.database import CrawlDatabase
    from repro.crawler.fetcher import PageFetcher
    from repro.crawler.frontier import IdFrontier
    from repro.defense.honeypot import HoneypotRegistry
    from repro.defense.integration import DefendedLbsnService
    from repro.durable.wal import WalWriter
    from repro.durable.worker import DetectorWorker, PartitionedDetectorPipeline
    from repro.lbsn import service as service_module
    from repro.lbsn.cheater_code import CheaterCode
    from repro.lbsn.rewards import BadgeEngine
    from repro.lbsn.service import LbsnService
    from repro.lbsn.store import DataStore
    from repro.lbsn.webserver import LbsnWebServer
    from repro.obs.context import TraceContext
    from repro.obs.log import StructuredLogger
    from repro.simnet.http import HttpTransport, Router
    from repro.stream.bus import EventBus
    from repro.stream.ledger import SuspicionLedger

    return [
        Probe(HttpTransport, "request", "simnet.http"),
        Probe(Router, "dispatch", _dispatch_layer),
        Probe(TraceContext, "mint", "obs.context.mint"),
        Probe(DefendedLbsnService, "check_in", "defense.integration"),
        Probe(SuspicionLedger, "is_suspect", "defense.ledger_gate", _observe_gate),
        Probe(LbsnService, "check_in", "lbsn.service"),
        Probe(CheaterCode, "evaluate", "lbsn.cheater_code", _observe_cheater_code),
        Probe(service_module, "decide_mayor", "lbsn.mayorship", _observe_mayorship),
        Probe(BadgeEngine, "evaluate", "lbsn.rewards", _observe_badges),
        Probe(DataStore, "add_checkin_committed", "lbsn.store.commit"),
        Probe(StructuredLogger, "debug", "obs.log", _observe_log),
        Probe(StructuredLogger, "info", "obs.log", _observe_log),
        Probe(StructuredLogger, "warning", "obs.log", _observe_log),
        Probe(StructuredLogger, "error", "obs.log", _observe_log),
        Probe(EventBus, "publish", "stream.bus"),
        Probe(SuspicionLedger, "on_event", _ledger_layer),
        Probe(HoneypotRegistry, "on_event", "defense.honeypot"),
        Probe(PartitionedDetectorPipeline, "on_event", "durable.pipeline"),
        Probe(DetectorWorker, "on_event", "durable.pipeline"),
        Probe(WalWriter, "append", "durable.wal.append", _observe_wal_append),
        Probe(WalWriter, "sync", "durable.wal.sync"),
        # The crawl thread's loop: its self time is the crawler's own
        # bookkeeping between the calls below.
        Probe(MultiThreadedCrawler, "_worker", "crawler.worker"),
        Probe(IdFrontier, "next_id", "crawler.frontier"),
        Probe(IdFrontier, "report_hit", "crawler.frontier"),
        Probe(IdFrontier, "report_miss", "crawler.frontier"),
        Probe(PageFetcher, "fetch", "crawler.fetch"),
        Probe(LbsnWebServer, "render_user", "lbsn.webserver.render_user",
              _observe_render),
        Probe(LbsnWebServer, "render_venue", "lbsn.webserver.render_venue",
              _observe_render),
        Probe(crawler_module, "parse_user_page", "crawler.parser.user"),
        Probe(crawler_module, "parse_venue_page", "crawler.parser.venue"),
        Probe(CrawlDatabase, "upsert_user", "crawler.database.upsert"),
        Probe(CrawlDatabase, "upsert_venue", "crawler.database.upsert"),
        Probe(CrawlDatabase, "recompute_derived", "crawler.database.recompute"),
    ]


def store_read_probes() -> List[Probe]:
    """Store getters, wrapped on the crawl only (see the module docstring)."""
    from repro.lbsn.store import DataStore

    return [
        Probe(DataStore, "get_user", "lbsn.store.read"),
        Probe(DataStore, "get_venue", "lbsn.store.read"),
        Probe(DataStore, "get_user_by_username", "lbsn.store.read"),
    ]


def replay_probes() -> List[Probe]:
    """Probes for the cold WAL replay that ends the ``city`` run."""
    from repro.durable import wal as wal_module
    from repro.durable.worker import DetectorWorker
    from repro.stream.ledger import SuspicionLedger

    return [
        Probe(DetectorWorker, "recover", "durable.replay"),
        Probe(wal_module, "decode_event", "durable.wal.decode"),
        Probe(SuspicionLedger, "on_event", _ledger_layer),
    ]


def setup_probes() -> List[Probe]:
    """Coarse probes splitting set-up into generation, replay and refresh."""
    from repro.lbsn.service import LbsnService
    from repro.workload import scenario as scenario_module
    from repro.workload.behavior import BehaviorGenerator, EventReplayer
    from repro.workload.cheaters import CheaterGenerator
    from repro.workload.population import PopulationGenerator
    from repro.workload.venues import VenueGenerator

    def _observe_replay(counts, args, kwargs, result) -> None:
        counts["replay.checkins"] += result.attempted

    return [
        Probe(VenueGenerator, "generate", "workload.generate"),
        Probe(PopulationGenerator, "generate", "workload.generate"),
        Probe(BehaviorGenerator, "events_for", "workload.generate"),
        Probe(CheaterGenerator, "generate", "workload.generate"),
        Probe(scenario_module, "generate_friend_graph", "workload.generate"),
        Probe(EventReplayer, "replay", "workload.replay", _observe_replay),
        Probe(LbsnService, "refresh_all_mayorships", "lbsn.refresh_mayorships"),
    ]
