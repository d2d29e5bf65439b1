"""The docs' metric catalogues are executable documentation.

One row per catalogue in ``CATALOGUES``: the doc, the metric families it
owns, and the exerciser that registers them.  Every row gets the same
two-way parity check between the doc's ``| `repro_…` `` table rows and
the registry.  The plain ``repro metrics`` workload runs once per module:
it is OBSERVABILITY.md's exerciser, and the storm-only families of the
other rows must never leak into it.  The failure-point table, the debug
route table, the structured log event table, the constants the docs
quote, and the anchor and cross-link strings are checked from tables
too.
"""

import ast
import importlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple

import pytest

from repro.adversary.ring import WITNESS_WINDOW_S
from repro.analysis.detection import DetectorConfig
from repro.defense.honeypot import RULE_HONEYPOT, HoneypotRegistry
from repro.durable.snapshot import SNAPSHOT_VERSION, SnapshotStore
from repro.durable.wal import MAX_RECORD_BYTES, SEGMENT_MAGIC, WalReader, WalWriter
from repro.durable.worker import DetectorWorker, RecoveryCoordinator
from repro.errors import FaultInjectedError
from repro.faults import (
    FAILURE_POINTS,
    BackoffPolicy,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    retry_call,
)
from repro.faults.plan import (
    STORM_COMMIT_FAILURE,
    STORM_LATENCY_PROBABILITY,
    STORM_LATENCY_S,
    STORM_WEB_FAILURE,
    FaultSpec,
)
from repro.faults.points import POINT_DURABLE_WORKER
from repro.geo.coordinates import GeoPoint
from repro.lbsn.service import LbsnService
from repro.lbsn.webserver import LbsnWebServer
from repro.obs.log import LogHub
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import SamplingProfiler
from repro.simnet.clock import SimClock
from repro.simnet.http import Router
from repro.stream import detectors
from repro.stream.events import CheckInAccepted

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"

ABQ = GeoPoint(35.0844, -106.6504)


def documented_metrics(text):
    """Metric names of a doc's ``| `repro_…` `` table rows."""
    names = set()
    for line in text.splitlines():
        match = re.match(r"\| `(repro_[a-z0-9_]+)`", line)
        if match:
            names.add(match.group(1))
    return names


def exercise_resilience(metrics, root):
    """Injector, a tripped breaker, and one recovered retry."""
    clock = SimClock()
    FaultInjector(FaultPlan.standard_storm(seed=1), clock=clock, metrics=metrics)
    breaker = CircuitBreaker(
        name="doc", failure_threshold=1, now_fn=clock.now, metrics=metrics
    )
    breaker.record_failure()
    breaker.allow()
    state = {"calls": 0}

    def flaky():
        state["calls"] += 1
        if state["calls"] < 2:
            raise FaultInjectedError("doc")
        return True

    retry_call(flaky, BackoffPolicy(), metrics=metrics, op="doc")


def exercise_durable(metrics, root):
    """WAL write + torn-tail replay, worker crash + recovery, snapshots."""
    events = [
        CheckInAccepted(
            seq, float(seq) * 60.0, user_id=seq % 5, venue_id=seq % 3,
            venue_location=GeoPoint(40.0, -74.0),
            reported_location=GeoPoint(40.0, -74.0),
            checkin_id=seq, points=3,
        )
        for seq in range(30)
    ]
    wal_dir = root / "wal"
    with WalWriter(wal_dir, metrics=metrics) as writer:
        for event in events:
            writer.append(event)
    segment = sorted(wal_dir.glob("*.wal"))[-1]
    segment.write_bytes(segment.read_bytes()[:-3])
    WalReader(wal_dir, metrics=metrics).read_all()

    plan = FaultPlan(seed=3).add(
        FaultSpec(
            point=POINT_DURABLE_WORKER,
            probability=1.0,
            max_fires=1,
            only_labels=("partition-00",),
        )
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detectors, "MAX_USERS", 64)
        patch.setattr(detectors, "MAX_VENUES", 64)
        worker = DetectorWorker(
            0,
            root / "shards",
            config=DetectorConfig(min_total_checkins=10),
            snapshot_every=10,
            metrics=metrics,
            faults=FaultInjector(plan),
        )
        for event in events:
            worker.on_event(event)  # first applied event crashes the worker
        assert worker.crashed
        worker.recover()
        worker.close()

    store = SnapshotStore(root / "snaps", metrics=metrics)
    store.write(worker.ledger, seq=events[-1].seq)
    store.load(events[-1].seq)


def exercise_honeypots(metrics, root):
    """Seed traps into a small service and trip one."""
    service = LbsnService()
    for index in range(10):
        service.create_venue(
            name=f"anchor-{index}",
            location=GeoPoint(ABQ.latitude + index * 0.01, ABQ.longitude),
        )
    honeypots = HoneypotRegistry(service, metrics=metrics)
    trap = honeypots.seed(density=0.01, seed=1, count=2)[0]
    honeypots.on_event(
        CheckInAccepted(
            seq=1,
            timestamp=0.0,
            user_id=7,
            venue_id=trap,
            venue_location=ABQ,
            reported_location=ABQ,
        )
    )


@dataclass(frozen=True)
class Catalogue:
    """One doc's metric table and what registers its rows."""

    doc: str
    #: The metric families the doc owns.
    prefixes: Tuple[str, ...]
    #: Each must start at least one registered name.
    covers: Tuple[str, ...]
    #: Registers the families; None means the plain metrics workload.
    exercise: Optional[Callable[[MetricsRegistry, Path], None]] = None


CATALOGUES = [
    Catalogue(
        "OBSERVABILITY.md",
        prefixes=("repro_",),
        covers=(
            "repro_lbsn_checkins_total",
            "repro_bus_published_total",
            "repro_crawler_pages_fetched_total",
        ),
    ),
    Catalogue(
        "RESILIENCE.md",
        prefixes=("repro_faults_", "repro_retry_", "repro_breaker_"),
        covers=("repro_faults_", "repro_retry_", "repro_breaker_"),
        exercise=exercise_resilience,
    ),
    Catalogue(
        "DURABILITY.md",
        prefixes=("repro_wal_", "repro_snapshot_", "repro_durable_"),
        covers=("repro_wal_", "repro_snapshot_", "repro_durable_"),
        exercise=exercise_durable,
    ),
    Catalogue(
        "ADVERSARY.md",
        prefixes=("repro_honeypot_",),
        covers=("repro_honeypot_",),
        exercise=exercise_honeypots,
    ),
]

#: The catalogues whose families only a storm registers.
STORM_CATALOGUES = [row for row in CATALOGUES if row.exercise is not None]


def _doc_id(row):
    return Path(row.doc).stem


@pytest.fixture(scope="module")
def plain_names():
    """Every name the plain ``repro metrics`` workload registers."""
    from repro.cli import run_metrics_workload

    registry, _, _ = run_metrics_workload(scale=0.0002, seed=5)
    return set(registry.names())


@pytest.fixture(scope="module", params=CATALOGUES, ids=_doc_id)
def catalogue(request):
    return request.param


@pytest.fixture(scope="module")
def registered(catalogue, request, tmp_path_factory):
    """The names in the catalogue's families that its exerciser registers."""
    if catalogue.exercise is None:
        names = request.getfixturevalue("plain_names")
    else:
        metrics = MetricsRegistry()
        catalogue.exercise(metrics, tmp_path_factory.mktemp("docs-parity"))
        names = metrics.names()
    return {name for name in names if name.startswith(catalogue.prefixes)}


@pytest.fixture(scope="module")
def documented(catalogue):
    return documented_metrics((DOCS / catalogue.doc).read_text())


class TestMetricParity:
    def test_every_registered_metric_is_documented(
        self, catalogue, registered, documented
    ):
        missing = registered - documented
        assert not missing, (
            f"metrics registered but absent from docs/{catalogue.doc}: "
            f"{sorted(missing)}"
        )

    def test_every_documented_metric_is_registered(
        self, catalogue, registered, documented
    ):
        stale = documented - registered
        assert not stale, (
            f"metrics documented in docs/{catalogue.doc} but never "
            f"registered by its exerciser: {sorted(stale)}"
        )

    def test_exerciser_covers_every_family(self, catalogue, registered):
        for family in catalogue.covers:
            assert any(name.startswith(family) for name in registered), family

    @pytest.mark.parametrize("row", STORM_CATALOGUES, ids=_doc_id)
    def test_table_lists_only_owned_families(self, row):
        """Ledger, bus and other shared families belong to OBSERVABILITY.md."""
        documented = documented_metrics((DOCS / row.doc).read_text())
        foreign = {name for name in documented if not name.startswith(row.prefixes)}
        assert not foreign, sorted(foreign)

    @pytest.mark.parametrize("row", STORM_CATALOGUES, ids=_doc_id)
    def test_plain_metrics_workload_leaks_no_families(self, row, plain_names):
        """OBSERVABILITY.md's catalogue must not grow with a storm layer."""
        leaked = {name for name in plain_names if name.startswith(row.prefixes)}
        assert not leaked, (
            f"docs/{row.doc} families leaked into the plain metrics "
            f"workload (this breaks the OBSERVABILITY.md catalogue): "
            f"{sorted(leaked)}"
        )


def documented_points():
    """Failure point names of RESILIENCE.md's ``| `layer.point` |`` rows."""
    text = (DOCS / "RESILIENCE.md").read_text()
    return set(re.findall(r"^\| `([a-z]+\.[a-z_]+)` \|", text, re.M))


class TestFailurePointTable:
    def test_every_point_is_documented(self):
        missing = set(FAILURE_POINTS) - documented_points()
        assert not missing, (
            f"failure points wired in code but absent from "
            f"docs/RESILIENCE.md: {sorted(missing)}"
        )

    def test_every_documented_point_exists(self):
        stale = documented_points() - set(FAILURE_POINTS)
        assert not stale, (
            f"failure points documented in docs/RESILIENCE.md but not in "
            f"repro.faults.points.FAILURE_POINTS: {sorted(stale)}"
        )

    def test_catalogue_is_complete(self):
        # The five original layers plus the durable-worker kill point.
        assert set(FAILURE_POINTS) == {
            "crawler.fetch",
            "durable.worker",
            "simnet.request",
            "stream.subscriber",
            "store.commit",
            "web.request",
        }


class TestDebugRouteTable:
    def test_documented_routes_are_the_installed_routes(self):
        """OBSERVABILITY.md's ``| `GET /debug/…` |`` rows list exactly the
        debug routes a fully instrumented web server installs."""
        text = (DOCS / "OBSERVABILITY.md").read_text()
        documented = set(re.findall(r"^\| `(GET /debug/[^`]*)` \|", text, re.M))
        metrics = MetricsRegistry()
        service = LbsnService(metrics=metrics, log=LogHub(metrics=metrics))
        router = Router()
        LbsnWebServer(service, profiler=SamplingProfiler()).install_routes(router)
        installed = {
            f"{method} {pattern.pattern}"
            for method, pattern, _ in router._routes
            if pattern.pattern.startswith("/debug/")
        }
        assert documented == installed


@pytest.fixture(scope="module")
def logging_literals():
    """Event and logger-name literals of every logging call in src/repro.

    Returns ``(events, loggers)``: the first string argument of each
    ``.debug/.info/.warning/.error("…")`` call, and each name passed to
    ``.logger("…")``.  Events built at run time (f-strings) are not
    literals and are not seen.
    """
    events, loggers = set(), set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            if node.func.attr in ("debug", "info", "warning", "error"):
                events.add(node.args[0].value)
            elif node.func.attr == "logger":
                loggers.add(node.args[0].value)
    return events, loggers


def documented_log_events():
    """``(logger, event)`` cells of OBSERVABILITY.md's log event table."""
    text = (DOCS / "OBSERVABILITY.md").read_text()
    section = text.split("## Structured log events", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|", section, re.M)


class TestLogEventTable:
    def test_table_rows_are_emitted_by_created_loggers(self, logging_literals):
        events, loggers = logging_literals
        rows = documented_log_events()
        assert rows, "docs/OBSERVABILITY.md lost its log event table"
        stale_events = {event for _, event in rows} - events
        assert not stale_events, (
            f"log events documented in docs/OBSERVABILITY.md but never "
            f"emitted under src/repro: {sorted(stale_events)}"
        )
        stale_loggers = {logger for logger, _ in rows} - loggers
        assert not stale_loggers, (
            f"loggers documented in docs/OBSERVABILITY.md but never "
            f"created under src/repro: {sorted(stale_loggers)}"
        )

    def test_every_emitted_event_is_documented(self, logging_literals):
        events, _ = logging_literals
        docs = "\n".join(path.read_text() for path in DOCS.glob("*.md"))
        missing = {event for event in events if f"`{event}`" not in docs}
        assert not missing, (
            f"log events emitted under src/repro but named in no "
            f"docs/*.md: {sorted(missing)}"
        )


#: Strings a file must contain, one case per claim: the load-bearing
#: claims of each doc, stated by name, and the links that point readers
#: at them.
ANCHORS = {
    "docs/RESILIENCE.md": {
        "storm-rates": (
            "5% commit contention",
            "10% web 5xx",
            "40 ms on 10% of requests",
        ),
    },
    "docs/DURABILITY.md": {
        "failure-point": ("`durable.worker`", "RESILIENCE.md"),
        "record-format": (SEGMENT_MAGIC.decode(), "1 MiB"),
        "snapshot-version": (f'"version": {SNAPSHOT_VERSION}',),
        "cli-verbs": ("repro snapshot", "repro wal-replay --verify"),
        "coordinator": (RecoveryCoordinator.__name__,),
    },
    "docs/ADVERSARY.md": {
        "pin-rule": ("`RULE_HONEYPOT`",),
        "core-classes": (
            "`RingCoordinator`",
            "`HoneypotRegistry",
            "`SuspicionLedger",
            "`DefendedLbsnService`",
            "`CheckInScheduler`",
        ),
        "pinning-contract": (
            ".pin(",
            "pinned_rule()",
            "flag_trace_id()",
            "min_total_checkins",
        ),
        "visibility-law": ("visibility law", "GeneratedVenues"),
        "witness-window": ("120 s *witness window*", "`WITNESS_WINDOW_S`"),
        "cli-verbs": ("repro adversary", "--verify"),
        "proof-suites": (
            "tests/test_adversary_ring.py",
            "tests/test_adversary_workload.py",
            "tests/test_stream_ledger_pin.py",
            "benchmarks/bench_e26_adversary.py",
        ),
        "knobs": ("REPRO_E26_SCALE", "REPRO_E26_RINGS", "REPRO_E26_HONEST"),
    },
    "docs/ARCHITECTURE.md": {
        "adversary-link": ("docs/ADVERSARY.md", "repro.adversary"),
    },
    "EXPERIMENTS.md": {
        "e26-entry": ("## E26 ", "docs/ADVERSARY.md", "E26_adversary.txt"),
        "e19-lru-bounds": ("`MAX_USERS = 100_000`", "`MAX_VENUES = 200_000`"),
    },
    "DESIGN.md": {"e26-bench": ("benchmarks/bench_e26_adversary.py", "E26")},
    "README.md": {"adversary-verb": ("repro adversary",)},
}

ANCHOR_CASES = [
    pytest.param(path, anchors, id=f"{Path(path).stem}-{claim}")
    for path, claims in ANCHORS.items()
    for claim, anchors in claims.items()
]


def toolkit_bullets():
    """``(module, text)`` of RESILIENCE.md's ``* **`repro.faults.…`**`` list."""
    text = (DOCS / "RESILIENCE.md").read_text()
    return re.findall(
        r"^\* \*\*`(repro\.faults\.\w+)`\*\* — (.*?)(?=^\* |^$)",
        text,
        re.M | re.S,
    )


class TestDocAnchors:
    @pytest.mark.parametrize("path, anchors", ANCHOR_CASES)
    def test_anchors_present(self, path, anchors):
        text = (REPO / path).read_text()
        missing = [anchor for anchor in anchors if anchor not in text]
        assert not missing, f"{path} lost: {missing}"

    def test_quoted_constants_match_code(self):
        # DURABILITY.md's "1 MiB" record cap; ADVERSARY.md's pin rule literal.
        assert MAX_RECORD_BYTES == 1 << 20
        assert RULE_HONEYPOT == "honeypot-venue"
        # RESILIENCE.md's fixed storm rates; ADVERSARY.md's witness window.
        assert STORM_COMMIT_FAILURE == 0.05
        assert STORM_WEB_FAILURE == 0.10
        assert (STORM_LATENCY_S, STORM_LATENCY_PROBABILITY) == (0.04, 0.10)
        assert WITNESS_WINDOW_S == 120.0
        # EXPERIMENTS.md §E19's factor-table LRU bounds.
        assert detectors.MAX_USERS == 100_000
        assert detectors.MAX_VENUES == 200_000

    def test_toolkit_names_resolve(self):
        """Each class RESILIENCE.md's module list names lives in the
        module its bullet is about."""
        bullets = toolkit_bullets()
        assert [module for module, _ in bullets] == [
            "repro.faults.plan",
            "repro.faults.injector",
            "repro.faults.retry",
            "repro.faults.breaker",
        ]
        for module, text in bullets:
            names = re.findall(r"`([A-Z][A-Za-z0-9]*)`", text)
            assert names, f"the {module} bullet names no class"
            namespace = importlib.import_module(module)
            stale = [name for name in names if not hasattr(namespace, name)]
            assert not stale, (
                f"docs/RESILIENCE.md names {stale} under {module}, "
                f"which has no such attribute"
            )
