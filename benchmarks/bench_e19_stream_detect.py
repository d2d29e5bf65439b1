"""E19 (extension) — §4.3 + Ch. 5: the streaming detection pipeline.

Two measurements on the ``repro.stream`` subsystem:

1. **Bus fan-out throughput** — publishing to 4 inline subscribers must
   sustain >= 50,000 events/s (median of 5 rounds), every subscriber
   seeing every event with no errors in every round (the acceptance bar
   for running the ledger inline with the check-in pipeline).
2. **Online/offline parity** — a full seeded world streamed through the
   live :class:`SuspicionLedger` flags >= 90% of the users the offline
   :class:`CheaterDetector` flags on a crawl of the *same* world with the
   *same* :class:`DetectorConfig`.
"""

import statistics
import time

from repro.analysis.detection import CheaterDetector, DetectorConfig
from repro.crawler import crawl_full_site
from repro.geo.coordinates import GeoPoint
from repro.lbsn.service import LbsnService
from repro.stream import CheckInAccepted, EventBus, SuspicionLedger
from repro.workload import build_web_stack, build_world

from conftest import BENCH_SCALE, BENCH_SEED

SOMEWHERE = GeoPoint(40.8136, -96.7026)  # Lincoln, NE

FANOUT_EVENTS = 100_000
FANOUT_SUBSCRIBERS = 4
ROUNDS = 5  # timed fan-out rounds; the report quotes their median
THROUGHPUT_FLOOR = 50_000  # events/s, the acceptance bar, on the median
PARITY_BAR = 0.9  # share of offline suspects the live ledger must flag


def _event(i: int) -> CheckInAccepted:
    return CheckInAccepted(
        seq=-1,
        timestamp=float(i),
        user_id=i % 997,
        venue_id=i % 4999,
        venue_location=SOMEWHERE,
        reported_location=SOMEWHERE,
    )


def test_e19_bus_fanout_throughput(report_out, benchmark):
    """Inline fan-out to 4 subscribers: >= 50k events/s, every event seen.

    One round takes about 0.2 s, so a single round is mostly host noise:
    ``ROUNDS`` rounds are timed and the report quotes their median.
    """
    events = [_event(i) for i in range(FANOUT_EVENTS)]

    def sink(event):
        pass

    def fan_out():
        bus = EventBus()
        for k in range(FANOUT_SUBSCRIBERS):
            bus.subscribe(f"sink-{k}", sink)
        start = time.perf_counter()
        for event in events:
            event.seq = -1  # re-arm for the next round
            bus.publish(event)
        elapsed = time.perf_counter() - start
        stats = [bus.stats_of(f"sink-{k}") for k in range(FANOUT_SUBSCRIBERS)]
        bus.close()
        return elapsed, bus.published, stats

    runs = benchmark.pedantic(
        lambda: [fan_out() for _ in range(ROUNDS)], rounds=1, iterations=1
    )
    rates = [published / elapsed for elapsed, published, _ in runs]
    rate = statistics.median(rates)
    elapsed = statistics.median(elapsed for elapsed, _, _ in runs)
    rows = [
        f"published {FANOUT_EVENTS} events to {FANOUT_SUBSCRIBERS} "
        f"inline subscribers, {ROUNDS} rounds: median {elapsed:.3f} s",
        f"fan-out throughput: median {rate:,.0f} events/s "
        f"(min {min(rates):,.0f}, max {max(rates):,.0f}; "
        f"{rate * FANOUT_SUBSCRIBERS:,.0f} deliveries/s; "
        f"floor {THROUGHPUT_FLOOR:,} events/s)",
        f"per-subscriber, worst of {ROUNDS} rounds: "
        + ", ".join(
            f"delivered={min(stats[k].delivered for _, _, stats in runs)} "
            f"errors={max(stats[k].errors for _, _, stats in runs)}"
            for k in range(FANOUT_SUBSCRIBERS)
        ),
    ]
    report_out(
        "E19_bus_throughput",
        rows,
        summary={
            "events": FANOUT_EVENTS,
            "subscribers": FANOUT_SUBSCRIBERS,
            "rounds": ROUNDS,
            "events_per_s": round(rate),
            "events_per_s_min": round(min(rates)),
            "events_per_s_max": round(max(rates)),
            "events_per_s_floor": THROUGHPUT_FLOOR,
            "deliveries_per_s": round(rate * FANOUT_SUBSCRIBERS),
        },
    )
    for _, published, stats in runs:
        assert published == FANOUT_EVENTS
        for s in stats:
            assert s.delivered == published
            assert s.errors == 0
    assert rate >= THROUGHPUT_FLOOR, f"{rate:,.0f} events/s < 50k floor"


def test_e19_online_offline_parity(report_out, benchmark):
    """The live ledger flags >= 90% of the offline detector's suspects."""
    config = DetectorConfig(min_total_checkins=150)

    def stream_world():
        bus = EventBus()
        ledger = SuspicionLedger(config=config).attach(bus)
        service = LbsnService(event_bus=bus)
        start = time.perf_counter()
        world = build_world(
            scale=BENCH_SCALE, seed=BENCH_SEED, service=service
        )
        elapsed = time.perf_counter() - start
        return world, bus, ledger, elapsed

    world, bus, ledger, elapsed = benchmark.pedantic(
        stream_world, rounds=1, iterations=1
    )
    live_rate = ledger.events_processed / elapsed

    stack = build_web_stack(world, seed=7)
    database, _, _ = crawl_full_site(
        stack.transport, [stack.network.create_egress()]
    )
    offline = CheaterDetector(database, config).find_suspects()
    offline_ids = {r.user_id for r in offline}
    online_ids = set(ledger.suspect_ids())
    overlap = offline_ids & online_ids
    parity = len(overlap) / len(offline_ids) if offline_ids else 1.0

    planted = {world.roster.mega_cheater.user_id} | {
        c.user_id for c in world.roster.caught_cheaters
    }
    rows = [
        f"world scale={BENCH_SCALE} seed={BENCH_SEED}: "
        f"{ledger.events_processed} check-in events through the bus "
        f"({live_rate:,.0f} events/s incl. full service pipeline)",
        f"offline suspects (crawl + CheaterDetector): {len(offline_ids)}",
        f"online suspects (live SuspicionLedger):     {len(online_ids)}",
        f"overlap: {len(overlap)}/{len(offline_ids)} "
        f"-> parity {parity:.0%} (bar: {PARITY_BAR:.0%})",
        f"planted cheaters flagged online: "
        f"{len(planted & online_ids)}/{len(planted)}",
        "(same DetectorConfig on both sides: the ledger is the offline "
        "Chapter-4 detector recomputed incrementally at check-in time)",
    ]
    report_out(
        "E19_stream_detect",
        rows,
        summary={
            "offline_suspects": len(offline_ids),
            "online_suspects": len(online_ids),
            "overlap": len(overlap),
            "parity": round(parity, 3),
            "parity_bar": PARITY_BAR,
            "planted_cheaters": len(planted),
            "planted_flagged_online": len(planted & online_ids),
            "events_streamed": ledger.events_processed,
            "events_per_s": round(live_rate),
        },
    )
    assert bus.published > 0
    assert offline_ids, "bench world must contain offline suspects"
    assert parity >= PARITY_BAR
    assert world.roster.mega_cheater.user_id in online_ids
