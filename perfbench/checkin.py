"""The ``city`` and ``regulars`` workloads: check-ins through the deployed stack.

Stack (the E26 deployment, reached over HTTP)::

    HttpTransport (non-blocking) -> Router -> LbsnApiServer (bearer tokens)
      -> DefendedLbsnService (ledger gate, trusting verifier)
      -> LbsnService (MetricsRegistry, LogHub, trace minting) -> DataStore
      -> EventBus: PartitionedDetectorPipeline (durable tap, 4 partitions,
         WAL with fsync_every=64), SuspicionLedger, HoneypotRegistry

Both workloads are closed loops with one client and no think time.  Before
each timed request, outside the timed call, the benchmark moves the simulated
clock to the request's scheduled time.  The program only ever sees the
generated schedule; every request carries the outcome the generator
predicts for it, and the run fails if the service answers otherwise.
"""

from __future__ import annotations

import gc
import random
import shutil
import statistics
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from perfbench import layers, report
from perfbench.common import (
    Result,
    digest_lines,
    make_run_dir,
    peak_rss_mb,
    population_config,
)
from perfbench.hostspeed import HostSpeed
from perfbench.stats import percentile, windowed_percentile
from perfbench.tracing import SpanTracer, wrapped_targets

#: Ledger reporting bar of the E26 deployment (the parity suites use 100).
DETECTOR_MIN_TOTAL = 100
PARTITIONS = 4
HONEYPOT_DENSITY = 0.01
#: Requests whose outcomes every run drives and digests, however fast the
#: host: repeated runs of one seed print identical outcome digests.
GATE_REQUESTS = 2_000
#: Requests per throughput window (the reported rate is the window median).
WINDOW = 250
#: Requests per window of the reported 99th percentile.
TAIL_WINDOW = 2_000
#: Requests per alternating untraced/traced block in a traced run.
TRACE_BLOCK = 500
SETUP_REPEATS = 3

CITY_SCALE = 0.0005
REGULARS_USERS = 30
REGULARS_VENUES = 12
REGULARS_CHECKINS_PER_DAY = 4
#: Venues each regular frequents, assigned round-robin so that every venue
#: is a favorite of 12 or 13 users whatever the seed: the window depth, and
#: with it the cost of a check-in, then does not hang on the draw.
REGULARS_FAVORITES = 5
REGULARS_HISTORY_DAYS = 60
REGULARS_TIMED_DAYS = 400
REGULARS_CITY = "Lincoln, NE"

DAY = 86_400.0
MINUTE = 60.0

VALID, FLAGGED, REJECTED = "valid", "flagged", "rejected"


@dataclass(frozen=True)
class Request:
    """One scheduled check-in and the outcome the generator predicts."""

    ts: float
    user_id: int
    venue_id: int
    lat: float
    lng: float
    kind: str
    status: str
    rule: Optional[str] = None

    def line(self) -> str:
        return (
            f"{self.ts!r},{self.user_id},{self.venue_id},{self.lat!r},"
            f"{self.lng!r},{self.kind},{self.status},{self.rule}"
        )


# ---------------------------------------------------------------------------
# The deployed stack
# ---------------------------------------------------------------------------


class CheckinStack:
    """Service, bus and subscribers wired as E26 deploys them."""

    def __init__(self, wal_dir) -> None:
        from repro.analysis.detection import DetectorConfig
        from repro.defense.honeypot import HoneypotRegistry
        from repro.durable.worker import PartitionedDetectorPipeline
        from repro.lbsn.service import LbsnService
        from repro.obs.log import LogHub
        from repro.obs.metrics import MetricsRegistry
        from repro.stream.bus import EventBus
        from repro.stream.ledger import SuspicionLedger

        self.wal_dir = wal_dir
        self.detector_config = DetectorConfig(min_total_checkins=DETECTOR_MIN_TOTAL)
        self.metrics = MetricsRegistry()
        self.log = LogHub(metrics=self.metrics)
        self.service = LbsnService(metrics=self.metrics, log=self.log)
        self.bus = EventBus(metrics=self.metrics, log=self.log)
        self.service.event_bus = self.bus
        self.pipeline = PartitionedDetectorPipeline(
            PARTITIONS,
            wal_dir,
            config=self.detector_config,
            metrics=self.metrics,
            log=self.log,
        ).attach(self.bus)
        self.ledger = SuspicionLedger(
            config=self.detector_config, metrics=self.metrics, log=self.log
        ).attach(self.bus)
        self.honeypots = HoneypotRegistry(
            self.service, ledger=self.ledger, metrics=self.metrics, log=self.log
        ).attach(self.bus)
        self.bus_errors = 0

    def open_api(self) -> None:
        """Put the defended service behind the HTTP API, issue tokens."""
        from repro.adversary.workload import TrustingVerifier
        from repro.defense.integration import DefendedLbsnService
        from repro.lbsn.api import LbsnApiServer
        from repro.lbsn.webserver import LbsnWebServer
        from repro.simnet.http import HttpTransport, Router
        from repro.simnet.network import Network

        self.defended = DefendedLbsnService(
            self.service,
            TrustingVerifier(),
            physical_locator=lambda user_id: None,
            suspicion_ledger=self.ledger,
            metrics=self.metrics,
            log=self.log,
        )
        network = Network(seed=7)
        router = Router()
        LbsnWebServer(self.service).install_routes(router)
        self.api = LbsnApiServer(self.defended)
        self.api.install_routes(router)
        self.transport = HttpTransport(router, network, clock=self.service.clock)
        self.egress = network.create_egress()
        self.auth = {
            user.user_id: "Bearer " + self.api.tokens.issue(user.user_id)
            for user in self.service.store.iter_users()
        }

    def rebind_subscribers(self) -> None:
        """Re-subscribe the bus subscribers in their original order.

        The bus keeps the bound method each subscriber handed it, so a
        wrapper installed (or removed) on the class reaches the bus only
        through a fresh subscription.  Delivery errors of the old
        subscriptions are carried over into :attr:`bus_errors`.
        """
        self.bus_errors += self.subscriber_errors()
        for name in self.bus.subscriber_names():
            self.bus.unsubscribe(name)
        self.pipeline.attach(self.bus)
        self.ledger.attach(self.bus)
        self.honeypots.attach(self.bus)

    def subscriber_errors(self) -> int:
        return sum(
            self.bus.stats_of(name).errors for name in self.bus.subscriber_names()
        )

    def close(self) -> None:
        self.pipeline.close()
        self.bus.close()


# ---------------------------------------------------------------------------
# city
# ---------------------------------------------------------------------------


@dataclass
class Plan:
    """A built workload: the stack, its schedule, and what to check."""

    stack: CheckinStack
    schedule: List[Request]
    honest: List[int]
    venues: List[int]


def _jitter(rng: random.Random, lat: float, lng: float) -> Tuple[float, float]:
    """An honest GPS fix: within ~30 m of the venue."""
    return lat + rng.uniform(-0.0003, 0.0003), lng + rng.uniform(-0.0003, 0.0003)


def setup_city(seed: int, wal_dir) -> Tuple[CheckinStack, object]:
    """Everything ``setup_s`` times for ``city``: stack, world, traps, API."""
    from repro.workload import build_world

    stack = CheckinStack(wal_dir)
    world = build_world(
        scale=CITY_SCALE,
        seed=seed,
        service=stack.service,
        population_config=population_config(),
    )
    stack.honeypots.seed(density=HONEYPOT_DENSITY, seed=seed + 11)
    stack.open_api()
    return stack, world


def city_schedule(stack: CheckinStack, world, seed: int) -> Plan:
    """Metro-local honest itineraries plus a seeded cheating minority.

    Every request's outcome follows from the cheater-code rules:

    * honest steps are >= 65 min apart at a different venue of the
      user's home metro, from accounts under the ledger's reporting bar
      even after the run -> valid;
    * a remote spoof jump 10 min after a valid check-in, to a venue
      >= 500 km away -> flagged ``super-human-speed``;
    * a rapid-fire burst: four plaza venues within 90 m, 60 s apart ->
      valid, valid, valid, flagged ``rapid-fire-checkins``;
    * the same venue again 20 min later -> rejected ``frequent-checkins``;
    * a GPS fix 5.5 km from the claimed venue -> rejected
      ``gps-verification``;
    * ring accounts (shared crawl intelligence) check in at a honeypot ->
      valid, and the trap pins them, so every later attempt is refused by
      the ledger gate -> rejected ``stream-suspicion-ledger``.

    The schedule starts four simulated days after the world's horizon:
    no great-circle hop from an account's last world check-in can then
    look super-human.
    """
    from repro.adversary.workload import enumerate_targets
    from repro.defense.integration import RULE_STREAM_SUSPECT
    from repro.geo.distance import haversine_m
    from repro.geo.regions import US_CITIES
    from repro.lbsn.cheater_code import (
        RULE_FREQUENT,
        RULE_RAPID_FIRE,
        RULE_SUPERHUMAN,
    )
    from repro.lbsn.models import VenueCategory
    from repro.lbsn.service import RULE_GPS_VERIFICATION

    rng = random.Random(f"perfbench-city-{seed}")
    service = stack.service
    store = service.store
    start = world.horizon_s + 4 * DAY
    centers = {city.name: city.center for city in US_CITIES}
    pools = {
        name: ids
        for name, ids in world.venues.venue_ids_by_city.items()
        if name in centers and len(ids) >= 6
    }
    location = {venue.venue_id: venue.location for venue in store.iter_venues()}
    excluded = {spec.user_id for spec in world.roster.all_specs()}
    excluded.update(stack.ledger.suspect_ids())
    eligible = []
    for spec in world.population.specs:
        user = store.require_user(spec.user_id)
        if (
            spec.user_id not in excluded
            and spec.home_city.name in pools
            and user.flagged_checkins == 0
            and user.total_checkins <= 40
        ):
            eligible.append((spec.user_id, spec.home_city.name, user.total_checkins))
    rng.shuffle(eligible)
    if len(eligible) < 200:
        raise RuntimeError(f"world too small for city: {len(eligible)} eligible users")

    def remote_venue(home: str) -> int:
        far = [
            name
            for name in sorted(pools)
            if haversine_m(centers[home], centers[name]) >= 500_000.0
        ]
        return rng.choice(pools[rng.choice(far)])

    # Rapid-fire needs four venues inside a 180 m square; the generated
    # world is too sparse for that, so set-up opens a food-court plaza of
    # five venues in each of the eight busiest metros.
    metros = sorted(pools, key=lambda name: (-len(pools[name]), name))[:8]
    plazas: Dict[str, List[int]] = {}
    for metro in metros:
        anchor = location[rng.choice(pools[metro])]
        plaza = []
        for index in range(5):
            venue = service.create_venue(
                name=f"Food court stand {index + 1}, {metro}",
                location=type(anchor)(
                    anchor.latitude + 0.0002 * index, anchor.longitude + 0.0001
                ),
                city=metro,
                category=VenueCategory.RESTAURANT,
            )
            location[venue.venue_id] = venue.location
            plaza.append(venue.venue_id)
        plazas[metro] = plaza

    requests: List[Request] = []

    def honest_step(user_id, home, ts, previous) -> Request:
        venue_id = rng.choice(pools[home])
        while venue_id == previous:
            venue_id = rng.choice(pools[home])
        lat, lng = _jitter(rng, location[venue_id].latitude, location[venue_id].longitude)
        return Request(ts, user_id, venue_id, lat, lng, "honest", VALID)

    # Ring accounts: three rings of four, each sweeping a honeypot as a
    # convoy early in the run, then probing crawl targets until the end.
    traps = stack.honeypots.honeypot_ids()
    targets = [target.venue_id for target in enumerate_targets(service)]
    horizon = start + 7 * DAY
    cursor = 0
    for ring_index in range(3):
        members = [eligible[cursor + k][0] for k in range(4)]
        cursor += 4
        trap = traps[rng.randrange(len(traps))]
        hit_at = start + (ring_index + 1) * 3_600.0
        for offset, user_id in enumerate(members):
            ts = hit_at + 30.0 * offset
            trap_at = location[trap]
            requests.append(Request(
                ts, user_id, trap, trap_at.latitude, trap_at.longitude,
                "ring_trap", VALID,
            ))
            ts += rng.uniform(2, 4) * 3_600.0
            while ts < horizon:
                target = rng.choice(targets)
                requests.append(Request(
                    ts, user_id, target, location[target].latitude,
                    location[target].longitude, "ring_refused", REJECTED,
                    RULE_STREAM_SUSPECT,
                ))
                ts += rng.uniform(2, 4) * 3_600.0

    # Cheaters: accounts of the plaza metros, one episode in four steps.
    cheater_pool = [entry for entry in eligible[cursor:] if entry[1] in plazas]
    cheaters = cheater_pool[:60]
    cheater_ids = {entry[0] for entry in cheaters}
    episodes = ("spoof", "rapid", "repeat", "off_radius")
    for index, (user_id, home, total) in enumerate(cheaters):
        ts = start + rng.uniform(0, 6 * 3_600.0)
        recorded = total
        previous = None
        step = 0
        while ts < horizon and recorded < DETECTOR_MIN_TOTAL - 10:
            request = honest_step(user_id, home, ts, previous)
            requests.append(request)
            recorded += 1
            previous = request.venue_id
            episode = None
            if step == 1:
                episode = episodes[index % len(episodes)]
            elif step > 1 and rng.random() < 0.25:
                episode = rng.choice(episodes)
            step += 1
            if episode == "spoof":
                target = remote_venue(home)
                at = location[target]
                requests.append(Request(
                    ts + 10 * MINUTE, user_id, target, at.latitude, at.longitude,
                    "spoof", FLAGGED, RULE_SUPERHUMAN,
                ))
                recorded += 1
                ts += 10 * MINUTE
            elif episode == "rapid":
                ts += rng.uniform(65, 120) * MINUTE
                burst = rng.sample(plazas[home], 4)
                for position, venue_id in enumerate(burst):
                    at = location[venue_id]
                    last = position == 3
                    requests.append(Request(
                        ts + 60.0 * position, user_id, venue_id,
                        at.latitude, at.longitude, "rapid",
                        FLAGGED if last else VALID,
                        RULE_RAPID_FIRE if last else None,
                    ))
                recorded += 4
                previous = burst[-1]
                ts += 180.0
            elif episode == "repeat":
                requests.append(Request(
                    ts + 20 * MINUTE, user_id, request.venue_id,
                    request.lat, request.lng, "repeat", REJECTED, RULE_FREQUENT,
                ))
            elif episode == "off_radius":
                at = location[request.venue_id]
                requests.append(Request(
                    ts + 20 * MINUTE, user_id, request.venue_id,
                    at.latitude + 0.05, at.longitude, "off_radius", REJECTED,
                    RULE_GPS_VERIFICATION,
                ))
            ts += rng.uniform(65, 180) * MINUTE

    # Honest users: everyone else, each under the ledger's bar.
    honest_ids = []
    for user_id, home, total in eligible[cursor:]:
        if user_id in cheater_ids:
            continue
        honest_ids.append(user_id)
        ts = start + rng.uniform(0, 6 * 3_600.0)
        previous = None
        for _ in range(DETECTOR_MIN_TOTAL - 5 - total):
            request = honest_step(user_id, home, ts, previous)
            requests.append(request)
            previous = request.venue_id
            ts += rng.uniform(65, 180) * MINUTE
            if ts >= horizon:
                break

    requests.sort(key=lambda request: (request.ts, request.user_id))
    return Plan(
        stack=stack,
        schedule=requests,
        honest=sorted(honest_ids),
        venues=[],
    )


# ---------------------------------------------------------------------------
# regulars
# ---------------------------------------------------------------------------


def _regulars_days(rng, users, location, first_day, days):
    """``days`` of the cohort's routine: four stops a day per user."""
    requests = []
    for day in range(first_day, first_day + days):
        for user_id, favorites in users:
            ts = day * DAY + 8 * 3_600.0 + rng.uniform(0, 3_600.0)
            previous = None
            for _ in range(REGULARS_CHECKINS_PER_DAY):
                venue_id = rng.choice(favorites)
                while venue_id == previous:
                    venue_id = rng.choice(favorites)
                lat, lng = _jitter(
                    rng, location[venue_id].latitude, location[venue_id].longitude
                )
                requests.append(
                    Request(ts, user_id, venue_id, lat, lng, "regular", VALID)
                )
                previous = venue_id
                ts += rng.uniform(65, 150) * MINUTE
    requests.sort(key=lambda request: (request.ts, request.user_id))
    return requests


def setup_regulars(seed: int, wal_dir) -> Tuple[CheckinStack, dict]:
    """Everything ``setup_s`` times for ``regulars``.

    A cohort of regulars and their venue set in one metro, then 60 days of
    their routine replayed through the stack, so every venue's mayorship
    window and every user's history already hold hundreds of rows.
    """
    from repro.geo.coordinates import GeoPoint
    from repro.geo.regions import city_by_name
    from repro.lbsn.models import VenueCategory
    from repro.workload.behavior import CheckInEvent, EventReplayer

    rng = random.Random(f"perfbench-regulars-{seed}")
    stack = CheckinStack(wal_dir)
    service = stack.service
    center = city_by_name(REGULARS_CITY).center
    venues = []
    for index in range(REGULARS_VENUES):
        venue = service.create_venue(
            name=f"Regular spot {index + 1}",
            location=GeoPoint(
                center.latitude + rng.uniform(-0.01, 0.01),
                center.longitude + rng.uniform(-0.01, 0.01),
            ),
            city=REGULARS_CITY,
            category=VenueCategory.RESTAURANT,
        )
        venues.append(venue.venue_id)
    location = {venue_id: service.store.require_venue(venue_id).location
                for venue_id in venues}
    users = []
    for index in range(REGULARS_USERS):
        user = service.register_user(
            f"Regular {index + 1}", username=f"regular{index + 1}",
            home_city=REGULARS_CITY,
        )
        favorites = [
            venues[(index * REGULARS_FAVORITES + k) % len(venues)]
            for k in range(REGULARS_FAVORITES)
        ]
        users.append((user.user_id, favorites))
    stack.honeypots.seed(density=HONEYPOT_DENSITY, seed=seed + 11)
    history = _regulars_days(rng, users, location, 1, REGULARS_HISTORY_DAYS)
    EventReplayer(service).replay(
        CheckInEvent(request.ts, request.user_id, request.venue_id)
        for request in history
    )
    stack.open_api()
    cohort = {
        "rng": rng,
        "users": users,
        "venues": venues,
        "location": location,
    }
    return stack, cohort


def regulars_schedule(stack: CheckinStack, cohort: dict) -> Plan:
    """The cohort's routine continued day after day, all of it valid."""
    schedule = _regulars_days(
        cohort["rng"], cohort["users"], cohort["location"],
        1 + REGULARS_HISTORY_DAYS, REGULARS_TIMED_DAYS,
    )
    return Plan(
        stack=stack,
        schedule=schedule,
        honest=[user_id for user_id, _ in cohort["users"]],
        venues=list(cohort["venues"]),
    )


# ---------------------------------------------------------------------------
# Driving
# ---------------------------------------------------------------------------


@dataclass
class Drive:
    """Raw observations of the timed phase."""

    responses: list
    latencies: List[float]
    #: (start, end) ``perf_counter`` times of each full window of requests.
    windows: List[Tuple[float, float]]
    untraced_ops: int = 0
    untraced_wall: float = 0.0
    traced_ops: int = 0
    traced_wall: float = 0.0
    lock_hold: Tuple[float, int] = (0.0, 0)
    fsyncs: int = 0
    exhausted: bool = False


def _timed_block(plan, begin, end, deadline, drive, gate_hook):
    """Drive ``schedule[begin:end]`` until ``deadline`` (past the gate)."""
    stack = plan.stack
    schedule = plan.schedule
    auth = stack.auth
    request = stack.transport.request
    egress = stack.egress
    advance = stack.service.clock.advance_to
    clock = time.perf_counter
    latencies = drive.latencies
    responses = drive.responses
    windows = drive.windows
    index = begin
    window_start = clock()
    started = window_start
    while index < end:
        if index >= GATE_REQUESTS and window_start >= deadline:
            break
        item = schedule[index]
        advance(item.ts)
        headers = {"Authorization": auth[item.user_id]}
        params = {
            "venue_id": str(item.venue_id),
            "ll_lat": repr(item.lat),
            "ll_lng": repr(item.lng),
        }
        before = clock()
        try:
            response = request("POST", "/api/checkin", egress, headers, params)
        except Exception as exc:  # noqa: BLE001 - a raising request is a
            response = exc  # failed one; it is counted, not fatal.
        after = clock()
        latencies.append(after - before)
        responses.append(response)
        index += 1
        if index % WINDOW == 0:
            windows.append((window_start, after))
            window_start = after
        if index == GATE_REQUESTS:
            gate_hook()
            window_start = clock()
        if index % WINDOW == 0 and index >= GATE_REQUESTS and after >= deadline:
            break
    return index, clock() - started


def drive(plan: Plan, seconds: float, tracer: Optional[SpanTracer], gate_hook) -> Drive:
    """The closed loop: untraced, or alternating untraced/traced blocks."""
    result = Drive(responses=[], latencies=[], windows=[])
    stack = plan.stack
    lock_family = stack.metrics.get("repro_store_lock_hold_seconds")
    total = len(plan.schedule)
    gc.collect()
    deadline = time.perf_counter() + seconds
    index = 0
    traced = False
    while index < total:
        end = total if tracer is None else min(total, index + TRACE_BLOCK)
        if traced:
            tracer.install()
            stack.rebind_subscribers()
            hold_sum, hold_count = lock_family.sum, lock_family.count
            fsyncs = sum(w.wal.fsyncs for w in stack.pipeline.workers)
        reached, wall = _timed_block(plan, index, end, deadline, result, gate_hook)
        if traced:
            tracer.uninstall()
            stack.rebind_subscribers()
            result.traced_ops += reached - index
            result.traced_wall += wall
            result.lock_hold = (
                result.lock_hold[0] + lock_family.sum - hold_sum,
                result.lock_hold[1] + lock_family.count - hold_count,
            )
            result.fsyncs += sum(w.wal.fsyncs for w in stack.pipeline.workers) - fsyncs
        else:
            result.untraced_ops += reached - index
            result.untraced_wall += wall
        finished = reached < end
        index = reached
        if finished or time.perf_counter() >= deadline and index >= GATE_REQUESTS:
            break
        traced = tracer is not None and not traced
    result.exhausted = index >= total
    return result


# ---------------------------------------------------------------------------
# Checks and metrics
# ---------------------------------------------------------------------------


def _outcomes(drive_result: Drive, plan: Plan, res: Result):
    """Per-request (status, body) and the label comparison."""
    from repro.lbsn.api import parse_kv

    statuses = []
    mismatches = 0
    first_mismatch = None
    for item, response in zip(plan.schedule, drive_result.responses):
        if isinstance(response, Exception):
            res.failed += 1
            statuses.append(("raised", {}))
            continue
        body = parse_kv(response.body)
        status = body.get("status", "")
        if response.status >= 500 or status not in (VALID, FLAGGED, REJECTED):
            res.failed += 1
        statuses.append((status, body))
        if status != item.status:
            mismatches += 1
            if first_mismatch is None:
                first_mismatch = (item, response.status, response.body[:120])
    res.check(
        mismatches == 0,
        f"{mismatches} responses differ from the schedule's predicted "
        f"outcome (first: {first_mismatch})",
    )
    return statuses


def schedule_digest(schedule: List[Request]) -> str:
    """Digest of every scheduled request and its predicted outcome."""
    return digest_lines(item.line() for item in schedule)


def outcome_digest(statuses, count: int) -> str:
    """Digest of the first ``count`` responses, trace ids left out."""
    lines = []
    for status, body in statuses[:count]:
        lines.append(
            f"{status}|{body.get('points')}|{body.get('badges')}|"
            f"{body.get('mayor')}|{body.get('special')}|{body.get('warnings')}"
        )
    return digest_lines(lines)


def _rule_counts(plan: Plan, driven: int) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for item in plan.schedule[:driven]:
        key = f"{item.status}:{item.rule}"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def _snapshot_counters(stack: CheckinStack) -> dict:
    counters = stack.service.counters
    return {
        "valid": counters.valid,
        "flagged": counters.flagged,
        "rejected": counters.rejected,
        "by_rule": dict(counters.flagged_by_rule),
        "ledger_refused": stack.defended.stats.ledger_refused,
    }


def _check_counters(res: Result, before: dict, after: dict, expected: Dict[str, int]):
    """Service and defense tallies must equal the predicted outcomes."""
    from repro.defense.integration import RULE_STREAM_SUSPECT

    refused = expected.get(f"{REJECTED}:{RULE_STREAM_SUSPECT}", 0)
    want = {"valid": 0, "flagged": 0, "rejected": 0}
    want_rules: Dict[str, int] = {}
    for key, count in expected.items():
        status, rule = key.split(":", 1)
        if rule == RULE_STREAM_SUSPECT:
            continue
        want[status] += count
        if rule != "None":
            want_rules[rule] = want_rules.get(rule, 0) + count
    got = {name: after[name] - before[name] for name in want}
    got_rules = {
        rule: after["by_rule"].get(rule, 0) - before["by_rule"].get(rule, 0)
        for rule in set(after["by_rule"]) | set(want_rules)
    }
    got_rules = {rule: count for rule, count in got_rules.items() if count}
    res.check(got == want, f"service outcome counts {got} != predicted {want}")
    res.check(
        got_rules == want_rules,
        f"per-rule counts {got_rules} != predicted {want_rules}",
    )
    res.check(
        after["ledger_refused"] - before["ledger_refused"] == refused,
        f"ledger refusals {after['ledger_refused'] - before['ledger_refused']} "
        f"!= predicted {refused}",
    )


def _end_to_end(
    res: Result,
    drive_result: Drive,
    setups: List[Tuple[float, float]],
    rss_mb: float,
    speed: HostSpeed,
) -> None:
    """Timings at reference speed, window by window; raw ones as detail."""
    latencies = drive_result.latencies
    windows = drive_result.windows
    rates, means = [], []
    for index, (start, end) in enumerate(windows):
        slowdown = speed.slowdown(start, end)
        window = latencies[index * WINDOW:(index + 1) * WINDOW]
        rates.append(WINDOW * slowdown / (end - start))
        means.append(1e6 * sum(window) / (WINDOW * slowdown))
    res.metric(
        "setup_s",
        statistics.median(
            (end - start) / speed.slowdown(start, end) for start, end in setups
        ),
        "s",
    )
    res.metric("ops_per_s", statistics.median(rates), "1/s")
    res.metric("op_mean_us", statistics.median(means), "us")
    res.metric("peak_rss_mb", rss_mb, "MB")
    latencies_us = [value * 1e6 for value in latencies]
    res.detail.update({
        "host_slowdown": speed.slowdown(windows[0][0], windows[-1][1]),
        "setup_runs_s": [end - start for start, end in setups],
        "raw_ops_per_s": statistics.median(
            WINDOW / (end - start) for start, end in windows
        ),
        "raw_op_p50_us": percentile(latencies_us, 50),
        "raw_op_p99_us": windowed_percentile(latencies_us, 99, TAIL_WINDOW),
        "latency_samples": len(latencies_us),
        "peak_rss_mb_at_end": peak_rss_mb(),
    })


def run(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    """Build, drive, check and measure one ``city`` or ``regulars`` run."""
    from repro.durable.worker import cold_replay_digests

    res = Result(workload=workload, seed=seed, trace=trace)
    run_dir = make_run_dir(workload)
    setup = setup_city if workload == "city" else setup_regulars
    setups: List[Tuple[float, float]] = []
    setup_tracer = SpanTracer(layers.setup_probes()) if trace else None
    speed = HostSpeed()
    sampling = ExitStack()
    try:
        if not trace:
            sampling.enter_context(speed)
        repeats = 1 if trace else SETUP_REPEATS
        for attempt in range(repeats):
            wal_dir = run_dir / f"wal-{attempt}"
            if setup_tracer is not None:
                setup_tracer.install()
            started = time.perf_counter()
            try:
                stack, world = setup(seed, wal_dir)
            finally:
                if setup_tracer is not None:
                    setup_tracer.uninstall()
            setups.append((started, time.perf_counter()))
            if attempt < repeats - 1:
                stack.close()
                del stack, world
                shutil.rmtree(wal_dir)
                gc.collect()

        if workload == "city":
            plan = city_schedule(stack, world, seed)
        else:
            plan = regulars_schedule(stack, world)
        res.detail["schedule_requests"] = len(plan.schedule)
        res.detail["schedule_digest"] = schedule_digest(plan.schedule)

        run_probes = layers.run_probes()
        res.check(
            not wrapped_targets(run_probes),
            f"untraced run sees wrappers: {wrapped_targets(run_probes)}",
        )
        tracer = SpanTracer(run_probes) if trace else None
        gate_state: Dict[str, object] = {}

        def gate_hook() -> None:
            gate_state["rewards"] = _rewards_digest(stack, plan.honest)
            gate_state["rss_mb"] = peak_rss_mb()

        before = _snapshot_counters(stack)
        observed = drive(plan, seconds, tracer, gate_hook)
        sampling.close()
        after = _snapshot_counters(stack)
        driven = len(observed.responses)
        res.attempted = driven
        res.detail["driven_requests"] = driven
        res.check(not observed.exhausted, "schedule exhausted before the run ended")

        statuses = _outcomes(observed, plan, res)
        expected = _rule_counts(plan, driven)
        res.detail["outcomes"] = expected
        _check_counters(res, before, after, expected)
        res.detail["outcome_digest"] = outcome_digest(statuses, GATE_REQUESTS)
        res.detail["rewards_digest"] = gate_state.get("rewards")
        stack.bus_errors += stack.subscriber_errors()
        res.check(stack.bus_errors == 0, f"{stack.bus_errors} subscriber errors")

        if workload == "city":
            _check_city(res, plan, driven)
        else:
            _check_mayors(res, plan)

        live = stack.pipeline.digests()
        replay_events = sum(w.wal.appended for w in stack.pipeline.workers)
        stack.close()
        replay_tracer = None
        replay_wall = None
        if workload == "city":
            started = time.perf_counter()
            cold = cold_replay_digests(
                stack.wal_dir, PARTITIONS, config=stack.detector_config
            )
            replay_wall = time.perf_counter() - started
            res.check(
                cold == live,
                "cold WAL replay digests differ from the live pipeline's",
            )
            res.detail["replay_events"] = replay_events
            res.detail["replay_events_per_s"] = replay_events / replay_wall
            if trace:
                replay_tracer = SpanTracer(layers.replay_probes()).install()
                try:
                    cold_replay_digests(
                        stack.wal_dir, PARTITIONS, config=stack.detector_config
                    )
                finally:
                    replay_tracer.uninstall()
        res.detail["pipeline_digest"] = type(stack.pipeline).combine(live)

        if trace:
            report.checkin_layers(
                res, plan, observed, tracer, setup_tracer, replay_tracer,
                replay_events, replay_wall,
            )
            tracer.write(run_dir.parent / f"spans-{workload}.tsv")
        else:
            _end_to_end(res, observed, setups, gate_state["rss_mb"], speed)
    finally:
        sampling.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    return res


def _rewards_digest(stack: CheckinStack, user_ids: List[int]) -> str:
    store = stack.service.store
    lines = []
    for user_id in user_ids:
        user = store.require_user(user_id)
        lines.append(
            f"{user_id}|{user.points}|{user.valid_checkins}|"
            f"{user.mayorship_count}|{','.join(sorted(user.badges))}"
        )
    return digest_lines(lines)


def _check_city(res: Result, plan: Plan, driven: int) -> None:
    """Traps pinned their visitors; no honest account was flagged."""
    from repro.defense.honeypot import RULE_HONEYPOT

    stack = plan.stack
    hits = {item.user_id for item in plan.schedule[:driven] if item.kind == "ring_trap"}
    res.check(bool(hits), "no ring account reached a honeypot")
    for user_id in sorted(hits):
        res.check(
            stack.ledger.pinned_rule(user_id) == RULE_HONEYPOT
            and stack.honeypots.flag_of(user_id) is not None,
            f"ring account {user_id} hit a trap but is not pinned",
        )
    flagged = set(stack.honeypots.flagged_accounts()) | set(stack.ledger.suspect_ids())
    wrongly = sorted(flagged & set(plan.honest))
    res.check(not wrongly, f"honest accounts flagged: {wrongly[:10]}")
    kinds = {item.kind for item in plan.schedule[:GATE_REQUESTS]}
    res.check(
        kinds >= {"honest", "spoof", "rapid", "repeat", "off_radius",
                  "ring_trap", "ring_refused"},
        f"gate prefix misses request kinds: {sorted(kinds)}",
    )


def _check_mayors(res: Result, plan: Plan) -> None:
    """Each venue's mayor equals an offline recomputation of its history."""
    from repro.lbsn.mayorship import MAYORSHIP_WINDOW_DAYS, decide_mayor
    from repro.lbsn.models import CheckInStatus
    from repro.simnet.clock import day_index

    store = plan.stack.service.store
    for venue_id in plan.venues:
        venue = store.require_venue(venue_id)
        history = store.checkins_at_venue(venue_id)
        valid = [c for c in history if c.status is CheckInStatus.VALID]
        if not valid:
            res.check(venue.mayor_id is None, f"venue {venue_id} has a mayor but no check-ins")
            continue
        now = valid[-1].timestamp
        days: Dict[int, set] = {}
        for checkin in valid:
            if checkin.timestamp >= now - MAYORSHIP_WINDOW_DAYS * DAY:
                days.setdefault(checkin.user_id, set()).add(day_index(checkin.timestamp))
        best = max(len(found) for found in days.values())
        mayor_days = len(days.get(venue.mayor_id, ()))
        offline = decide_mayor(history, now, venue.mayor_id)
        res.check(
            mayor_days == best and offline.mayor_id == venue.mayor_id,
            f"venue {venue_id}: mayor {venue.mayor_id} with {mayor_days} days, "
            f"offline says {offline.mayor_id}, best {best} days",
        )


