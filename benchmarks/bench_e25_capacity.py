"""E25 (extension) — store capacity: group commit vs per-check-in commits.

The paper crawled 1.89 M users and 5.6 M venues through Foursquare's
production write path; repro's single-lock :class:`DataStore` serialises
every committed check-in behind one RLock, one sequencer hit, and one
histogram observation.  E25 measures what group commit
(``add_checkins_committed``: one lock acquisition and one contiguous seq
block per batch) buys over per-check-in ``add_checkin_committed`` calls
on the same store at 8 concurrent writers.

Acceptance bars (asserted):

1. **Throughput**: the median sustained check-ins/s of ``single-batch``
   is ``>= REPRO_E25_MIN_SPEEDUP`` (default 3.0) times the median of
   ``single``, same corpus, same 8-writer schedule.
2. **Seq contract**: every round ends with ``watermark == total
   check-ins`` — dense allocation, no burned slots, batched or not.

Reported (not asserted): per mode, the median and min–max throughput
over ``REPRO_E25_ROUNDS`` rounds and the median p50/p99 per-commit-call
latency (plus the per-check-in p99 quotient for the batched mode); and
a large-corpus phase — the store populated towards the paper's 1.89 M
users / 5.6 M venues — reporting populate time and p99 commit latency
at that size.  Peak RSS grows linearly with the corpus (about 0.9 GB
at 10 % and 2.7 GB at 30 % of the paper's), so the full corpus needs
about 9 GB; the output states which fraction actually ran.

Environment knobs (CI smoke mode shrinks all of these):

* ``REPRO_E25_USERS`` / ``REPRO_E25_VENUES`` — comparison corpus
  (default 18,900 / 56,000 — 1 % of the paper's).
* ``REPRO_E25_WRITERS`` — writer threads (default 8).
* ``REPRO_E25_CHECKINS_PER_WRITER`` — schedule length (default 6,000).
* ``REPRO_E25_BATCH`` — group-commit batch size (default 256, the
  measured sweet spot).
* ``REPRO_E25_ROUNDS`` — rounds per mode (default 3).
* ``REPRO_E25_MIN_SPEEDUP`` — bar 1's ratio (default 3.0).
* ``REPRO_E25_FULL_USERS`` / ``REPRO_E25_FULL_VENUES`` /
  ``REPRO_E25_FULL_CHECKINS_PER_WRITER`` — the large-corpus phase
  (defaults 1,890,000 / 5,600,000 / 4,000); set the first to 0 to skip
  the phase entirely.
"""

import dataclasses
import os
import statistics

from repro.workload.capacity import (
    FULL_SCALE_USERS,
    FULL_SCALE_VENUES,
    MODES,
    CapacityConfig,
    build_corpus,
    build_store,
    run_capacity,
)


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


USERS = _env_int("REPRO_E25_USERS", 18_900)
VENUES = _env_int("REPRO_E25_VENUES", 56_000)
WRITERS = _env_int("REPRO_E25_WRITERS", 8)
CHECKINS = _env_int("REPRO_E25_CHECKINS_PER_WRITER", 6_000)
BATCH = _env_int("REPRO_E25_BATCH", 256)
ROUNDS = _env_int("REPRO_E25_ROUNDS", 3)
MIN_SPEEDUP = float(os.environ.get("REPRO_E25_MIN_SPEEDUP", "3.0"))
FULL_USERS = _env_int("REPRO_E25_FULL_USERS", FULL_SCALE_USERS)
FULL_VENUES = _env_int("REPRO_E25_FULL_VENUES", FULL_SCALE_VENUES)
FULL_CHECKINS = _env_int("REPRO_E25_FULL_CHECKINS_PER_WRITER", 4_000)


def _median(results, field: str) -> float:
    return statistics.median(getattr(result, field) for result in results)


def _fmt(mode: str, results) -> str:
    rates = [result.checkins_per_s for result in results]
    return (
        f"{mode:<13s} {statistics.median(rates):>9,.0f} ci/s "
        f"[{min(rates):,.0f}–{max(rates):,.0f}]  "
        f"p50 {_median(results, 'p50_call_s') * 1e6:>7.1f} us  "
        f"p99 {_median(results, 'p99_call_s') * 1e6:>8.1f} us  "
        f"p99/ci {_median(results, 'per_checkin_p99_s') * 1e6:>7.1f} us"
    )


def test_e25_capacity(report_out, benchmark):
    config = CapacityConfig(
        users=USERS,
        venues=VENUES,
        writers=WRITERS,
        checkins_per_writer=CHECKINS,
        batch_size=BATCH,
    )
    corpus = build_corpus(config)
    rows = [
        "E25 — store capacity: group commit vs per-check-in commits, "
        "one single-lock DataStore",
        (
            f"corpus {config.users:,} users / {config.venues:,} venues; "
            f"{config.writers} writers x {config.checkins_per_writer:,} "
            f"check-ins; batch={config.batch_size}; "
            f"median [min–max] of {ROUNDS} rounds"
        ),
        "",
    ]

    # Phase 1: the two-mode comparison, ROUNDS rounds each -------------
    runs = {mode: [] for mode in MODES}
    for mode in MODES:
        for round_index in range(ROUNDS):
            if mode == "single-batch" and round_index == 0:
                # One round under pytest-benchmark for its timing table.
                result = benchmark.pedantic(
                    lambda: run_capacity(config, mode, corpus=corpus),
                    rounds=1,
                    iterations=1,
                )
            else:
                result = run_capacity(config, mode, corpus=corpus)
            # Bar 2: dense seq allocation, batched or not.
            assert result.watermark == result.total_checkins, (
                f"{mode}: watermark {result.watermark} != "
                f"{result.total_checkins} committed check-ins"
            )
            runs[mode].append(result)
    for mode in MODES:
        rows.append(_fmt(mode, runs[mode]))

    # Bar 1: the headline ratio of medians.
    median_rate = {
        mode: _median(runs[mode], "checkins_per_s") for mode in MODES
    }
    ratio = median_rate["single-batch"] / median_rate["single"]
    rows.append("")
    rows.append(
        f"speedup (single-batch / single, medians): {ratio:.2f}x "
        f"(bar: >= {MIN_SPEEDUP:.1f}x)"
    )
    assert ratio >= MIN_SPEEDUP, (
        f"single-batch is {ratio:.2f}x the per-check-in path "
        f"({median_rate['single-batch']:,.0f} vs "
        f"{median_rate['single']:,.0f} ci/s medians); bar is "
        f"{MIN_SPEEDUP:.1f}x"
    )

    # Phase 2: p99 commit latency at a large corpus --------------------
    summary = {
        "users": config.users,
        "venues": config.venues,
        "writers": config.writers,
        "batch_size": config.batch_size,
        "rounds": ROUNDS,
        "speedup": round(ratio, 2),
        "min_speedup_bar": MIN_SPEEDUP,
        "single_checkins_per_s": round(median_rate["single"]),
        "single_batch_checkins_per_s": round(median_rate["single-batch"]),
        "single_batch_p99_call_us": round(
            _median(runs["single-batch"], "p99_call_s") * 1e6, 1
        ),
    }
    if FULL_USERS > 0:
        full_config = dataclasses.replace(
            config,
            users=FULL_USERS,
            venues=FULL_VENUES,
            checkins_per_writer=FULL_CHECKINS,
        )
        users, venues = build_corpus(full_config)
        store, populate_seconds = build_store(users, venues)
        del users, venues
        full = run_capacity(
            full_config,
            "single-batch",
            store=store,
            populate_seconds=populate_seconds,
        )
        assert full.watermark == full.total_checkins
        fraction = full_config.users / FULL_SCALE_USERS
        rows.append("")
        rows.append(
            f"large-corpus phase: {full_config.users:,} users / "
            f"{full_config.venues:,} venues, {fraction:.0%} of the "
            f"paper's {FULL_SCALE_USERS:,} / {FULL_SCALE_VENUES:,} "
            f"(populate {full.populate_seconds:.1f}s, one round)"
        )
        if fraction < 1.0:
            rows.append(
                "full paper corpus not run: unverified at 1.89 M / 5.6 M"
            )
        rows.append(_fmt("single-batch", [full]))
        rows.append(
            f"p99 commit latency at this corpus: "
            f"{full.p99_call_s * 1e3:.2f} ms per {full.batch_size}-batch "
            f"call ({full.per_checkin_p99_s * 1e6:.1f} us per check-in), "
            f"{full.checkins_per_s:,.0f} ci/s sustained"
        )
        summary.update(
            {
                "full_users": full_config.users,
                "full_venues": full_config.venues,
                "full_corpus_fraction": round(fraction, 2),
                "full_populate_seconds": round(full.populate_seconds, 1),
                "full_single_batch_checkins_per_s": round(
                    full.checkins_per_s
                ),
                "full_p99_call_ms": round(full.p99_call_s * 1e3, 3),
                "full_p99_per_checkin_us": round(
                    full.per_checkin_p99_s * 1e6, 1
                ),
            }
        )

    report_out("E25_capacity", rows, summary=summary)
