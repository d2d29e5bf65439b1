"""E20 (extension) — the observability tax on the check-in hot path.

The :mod:`repro.obs` layer instruments every stage of the check-in
pipeline: the ``checkin.commit`` tracing span, outcome/denial counters,
store entity gauges, and lock-hold histograms.  All of it is wired through
optional constructor injection, so a service built *without* a registry
pays nothing but a few ``is None`` checks.

This experiment quantifies the cost when the registry *is* attached: the
same deterministic check-in workload runs against a bare
:class:`LbsnService` and an instrumented one, interleaved round for round
so thermal/background drift hits both sides equally.  The acceptance bar
is **< 5% throughput overhead** (best-of-rounds on both sides).

Environment knobs (CI smoke mode uses the first and last):

* ``REPRO_E20_CHECKINS`` — check-ins per round (default 4000).
* ``REPRO_E20_ROUNDS`` — interleaved rounds per side (default 5).
* ``REPRO_E20_MAX_OVERHEAD`` — acceptance bar (default 0.05).  Shared CI
  runners are noisy; the smoke job loosens this rather than asserting a
  tight bound on unreliable hardware.
"""

import gc
import os
import statistics
import time

from repro.geo.coordinates import GeoPoint
from repro.lbsn.service import LbsnService
from repro.obs import MetricsRegistry

CHECKINS = int(os.environ.get("REPRO_E20_CHECKINS", "4000"))
ROUNDS = int(os.environ.get("REPRO_E20_ROUNDS", "5"))
MAX_OVERHEAD = float(os.environ.get("REPRO_E20_MAX_OVERHEAD", "0.05"))

USERS = 10
VENUES_PER_USER = 3  # rotated so the same-venue gap beats the 1-hour rule
BASE_TS = 1_280_000_000.0  # 2010-07, the thesis's crawl summer
CHECKIN_SPACING_S = 1_800.0  # one check-in per user per half hour


def _build_service(metrics):
    """A tiny city: three venues per user, all within a few hundred meters.

    The per-user venues sit ~330 m apart — inside GPS-verification range,
    below the speed rule's 2-mile floor, and rotated on a 90-minute cycle
    so every attempt lands on the *valid* (reward) path: the expensive one,
    which is exactly where observability overhead must stay invisible.
    """
    service = LbsnService(metrics=metrics)
    venues = []
    for i in range(USERS):
        service.register_user(f"bench-user-{i}")
        cluster = []
        for j in range(VENUES_PER_USER):
            cluster.append(
                service.create_venue(
                    f"bench-venue-{i}-{j}",
                    GeoPoint(40.0 + i * 0.05 + j * 0.003, -96.0),
                )
            )
        venues.append(cluster)
    return service, venues


def _run_checkins(service, venues, checkins: int) -> float:
    """Drive ``checkins`` deterministic check-ins; returns their wall time.

    The collector is paused for the timed region (after a full collect) so
    GC pauses landing on one side or the other don't masquerade as
    observability overhead; both sides are measured identically.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(checkins):
            user_index = i % USERS
            round_index = i // USERS
            venue = venues[user_index][round_index % VENUES_PER_USER]
            service.check_in(
                user_id=user_index + 1,
                venue_id=venue.venue_id,
                reported_location=venue.location,
                timestamp=BASE_TS
                + round_index * CHECKIN_SPACING_S
                + user_index,
            )
        return time.perf_counter() - start
    finally:
        gc.enable()


def test_e20_obs_overhead(report_out, benchmark):
    """Instrumented check-in throughput within 5% of the bare service.

    Methodology: ``ROUNDS`` back-to-back (bare, instrumented) pairs; the
    overhead is the **median of the per-pair time ratios**.  Pairing
    adjacent runs cancels slow machine drift, and the median discards the
    rounds where a scheduler hiccup landed on one side — ``min(bare) vs
    min(instr)`` would compare two different noise draws instead.
    """

    def compare():
        pair_ratios, bare_times, instr_times = [], [], []
        registry = None
        tracer = None
        for _ in range(ROUNDS):
            service, venues = _build_service(metrics=None)
            bare_s = _run_checkins(service, venues, CHECKINS)
            registry = MetricsRegistry()
            service, venues = _build_service(metrics=registry)
            instr_s = _run_checkins(service, venues, CHECKINS)
            tracer = service.tracer
            bare_times.append(bare_s)
            instr_times.append(instr_s)
            pair_ratios.append(instr_s / bare_s)
        return pair_ratios, bare_times, instr_times, registry, tracer

    pair_ratios, bare_times, instr_times, registry, tracer = (
        benchmark.pedantic(compare, rounds=1, iterations=1)
    )
    bare_rate = CHECKINS / min(bare_times)
    instr_rate = CHECKINS / min(instr_times)
    overhead = statistics.median(pair_ratios) - 1.0

    snapshot = registry.snapshot()
    statuses = {
        labels[0]: int(count)
        for labels, count in snapshot["repro_lbsn_checkins_total"].items()
    }
    span_count = tracer.span_count
    rows = [
        f"workload: {CHECKINS} check-ins across {USERS} users "
        f"x {VENUES_PER_USER} venues, {ROUNDS} paired rounds",
        f"bare service:         {bare_rate:,.0f} check-ins/s "
        f"(best {min(bare_times):.3f} s)",
        f"instrumented service: {instr_rate:,.0f} check-ins/s "
        f"(best {min(instr_times):.3f} s)",
        "per-pair ratios: "
        + ", ".join(f"{ratio:.3f}" for ratio in pair_ratios),
        f"observability overhead (median of pair ratios): {overhead:+.1%} "
        f"(bar: < {MAX_OVERHEAD:.0%})",
        f"instrumented side exported {len(registry.names())} metric "
        f"families; outcomes {statuses}",
        f"checkin.commit spans recorded: {span_count}",
    ]
    report_out(
        "E20_obs_overhead",
        rows,
        summary={
            "checkins": CHECKINS,
            "rounds": ROUNDS,
            "bare_checkins_per_s": round(bare_rate),
            "instrumented_checkins_per_s": round(instr_rate),
            "overhead_median_pair_ratio": round(overhead, 4),
            "max_overhead_bar": MAX_OVERHEAD,
            "metric_families": len(registry.names()),
            "spans": span_count,
        },
    )

    # The registry saw every check-in of the last instrumented round.
    assert sum(statuses.values()) == CHECKINS
    assert span_count == CHECKINS
    assert overhead < MAX_OVERHEAD, (
        f"observability overhead {overhead:.1%} exceeds "
        f"{MAX_OVERHEAD:.0%} bar"
    )
