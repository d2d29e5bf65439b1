"""E24 (extension) — the profiler's own tax, and whether it finds a hotspot.

Two claims, one experiment:

1. **Overhead** — running the sampling profiler at its default rate
   (97 Hz) while the check-in hot path executes costs **< 5%**
   throughput, measured on E20's tiny-city workload with E20's
   methodology: interleaved (bare, profiled) rounds, GC paused in the
   timed region, overhead = median of the per-pair time ratios.
2. **Attribution** — a planted hot function with a distinctive name
   burns CPU on a worker thread; the profiler must name it in the top-3
   of the hotspot table (ranked by self samples) and in the collapsed
   export.

Environment knobs (CI smoke mode uses all three):

* ``REPRO_E24_CHECKINS`` — check-ins per round (default 4000).
* ``REPRO_E24_ROUNDS`` — interleaved rounds per side (default 15: single
  pair ratios on a shared 2-vCPU host span 0.65–1.7, so the median of
  five pairs cannot resolve a 5% bar).
* ``REPRO_E24_MAX_OVERHEAD`` — acceptance bar (default 0.05).  Shared
  CI runners are noisy; the smoke job loosens this rather than
  asserting a tight bound on unreliable hardware.
"""

import os
import statistics
import threading

from bench_e20_obs_overhead import (
    USERS,
    VENUES_PER_USER,
    _build_service,
    _run_checkins,
)

from repro.obs import SamplingProfiler

CHECKINS = int(os.environ.get("REPRO_E24_CHECKINS", "4000"))
ROUNDS = int(os.environ.get("REPRO_E24_ROUNDS", "15"))
MAX_OVERHEAD = float(os.environ.get("REPRO_E24_MAX_OVERHEAD", "0.05"))

ATTRIBUTION_SAMPLES = 300


def _e24_planted_hotspot(release: threading.Event) -> int:
    """The needle the profiler must find: a pure-CPU spin, no builtin
    frames between the loop and the arithmetic, so samples leaf here."""
    acc = 1
    while not release.is_set():
        for i in range(4096):
            acc = (acc * 31 + i) % 1_000_003
    return acc


def test_e24_profiler_overhead_and_attribution(report_out, benchmark):
    # -- 1. overhead: interleaved bare/profiled pairs -----------------
    def compare():
        pair_ratios, bare_times, prof_times = [], [], []
        for _ in range(ROUNDS):
            service, venues = _build_service(metrics=None)
            bare_s = _run_checkins(service, venues, CHECKINS)
            service, venues = _build_service(metrics=None)
            profiler = SamplingProfiler()  # default 97 Hz
            profiler.start()
            try:
                prof_s = _run_checkins(service, venues, CHECKINS)
            finally:
                profiler.stop()
            bare_times.append(bare_s)
            prof_times.append(prof_s)
            pair_ratios.append(prof_s / bare_s)
        return pair_ratios, bare_times, prof_times, profiler

    pair_ratios, bare_times, prof_times, profiler = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    bare_rate = CHECKINS / min(bare_times)
    prof_rate = CHECKINS / min(prof_times)
    overhead = statistics.median(pair_ratios) - 1.0
    last_round = profiler.snapshot()

    # -- 2. attribution: the planted hot function ---------------------
    hotspot_profiler = SamplingProfiler()
    release = threading.Event()
    ready = threading.Event()

    def burn():
        ready.set()
        _e24_planted_hotspot(release)

    worker = threading.Thread(target=burn, name="e24-hot", daemon=True)
    worker.start()
    assert ready.wait(timeout=10.0)
    try:
        for _ in range(ATTRIBUTION_SAMPLES):
            hotspot_profiler.sample_once()
    finally:
        release.set()
        worker.join(timeout=10.0)
    snapshot = hotspot_profiler.snapshot()
    top3 = snapshot.top(3)
    top3_names = [name for name, _, _ in top3]
    planted_rank = next(
        (
            rank
            for rank, name in enumerate(top3_names, start=1)
            if "_e24_planted_hotspot" in name
        ),
        None,
    )
    collapsed = snapshot.collapsed()

    rows = [
        f"workload: {CHECKINS} check-ins across {USERS} users "
        f"x {VENUES_PER_USER} venues, {ROUNDS} paired rounds, "
        f"profiler at default {profiler.hz:g} Hz",
        f"bare service:     {bare_rate:,.0f} check-ins/s "
        f"(best {min(bare_times):.3f} s)",
        f"profiled service: {prof_rate:,.0f} check-ins/s "
        f"(best {min(prof_times):.3f} s)",
        "per-pair ratios: "
        + ", ".join(f"{ratio:.3f}" for ratio in pair_ratios),
        f"profiler overhead (median of pair ratios): {overhead:+.1%} "
        f"(bar: < {MAX_OVERHEAD:.0%})",
        f"last profiled round: {last_round.samples} sampling passes, "
        f"{len(last_round.stacks)} unique stacks, "
        f"{last_round.dropped} dropped",
        f"planted-hotspot attribution: {ATTRIBUTION_SAMPLES} passes, "
        f"top-3 by self samples: {top3_names}",
        f"planted function rank: {planted_rank} "
        f"(self={top3[planted_rank - 1][1] if planted_rank else 0} samples)",
        f"collapsed export: {len(collapsed.splitlines())} folded stacks, "
        f"planted frame present: {'_e24_planted_hotspot' in collapsed}",
    ]
    report_out(
        "E24_profiler",
        rows,
        summary={
            "checkins": CHECKINS,
            "rounds": ROUNDS,
            "profiler_hz": profiler.hz,
            "bare_checkins_per_s": round(bare_rate),
            "profiled_checkins_per_s": round(prof_rate),
            "overhead_median_pair_ratio": round(overhead, 4),
            "max_overhead_bar": MAX_OVERHEAD,
            "planted_hotspot_rank": planted_rank,
        },
    )

    assert last_round.samples > 0, "profiler never sampled the workload"
    assert planted_rank is not None and planted_rank <= 3, (
        f"planted hot function missing from top-3: {top3_names}"
    )
    assert "_e24_planted_hotspot" in collapsed
    assert overhead < MAX_OVERHEAD, (
        f"profiler overhead {overhead:.1%} exceeds {MAX_OVERHEAD:.0%} bar"
    )
