"""E25 (extension) — store capacity: per-check-in commits at 8 writers.

The paper crawled 1.89 M users and 5.6 M venues through Foursquare's
production write path; repro's single-lock :class:`DataStore` serialises
every committed check-in behind one RLock, one seq-counter bump, and one
histogram observation.  E25 measures the sustained check-ins/s and the
per-commit latency of ``add_checkin_committed`` — the service's commit
path — at 8 concurrent writers.

Acceptance bar (asserted): **seq contract** — every round ends with
``watermark == total check-ins``: dense allocation, no burned slots.

Reported (not asserted): the median and min–max throughput over
``REPRO_E25_ROUNDS`` rounds and the median p50/p99 per-commit latency;
and a large-corpus phase — the store populated towards the paper's
1.89 M users / 5.6 M venues — reporting populate time and p99 commit
latency per check-in at that size.  Peak RSS grows linearly with the
corpus (about 0.9 GB at 10 % and 2.7 GB at 30 % of the paper's), so the
full corpus needs about 9 GB; the output states which fraction actually
ran.

Environment knobs (CI smoke mode shrinks all of these):

* ``REPRO_E25_USERS`` / ``REPRO_E25_VENUES`` — comparison corpus
  (default 18,900 / 56,000 — 1 % of the paper's).
* ``REPRO_E25_WRITERS`` — writer threads (default 8).
* ``REPRO_E25_CHECKINS_PER_WRITER`` — schedule length (default 6,000).
* ``REPRO_E25_ROUNDS`` — rounds (default 3).
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
ROUNDS = _env_int("REPRO_E25_ROUNDS", 3)
FULL_USERS = _env_int("REPRO_E25_FULL_USERS", FULL_SCALE_USERS)
FULL_VENUES = _env_int("REPRO_E25_FULL_VENUES", FULL_SCALE_VENUES)
FULL_CHECKINS = _env_int("REPRO_E25_FULL_CHECKINS_PER_WRITER", 4_000)


def _median(results, field: str) -> float:
    return statistics.median(getattr(result, field) for result in results)


def _fmt(results) -> str:
    rates = [result.checkins_per_s for result in results]
    return (
        f"{results[0].writers} writers {statistics.median(rates):>9,.0f} ci/s "
        f"[{min(rates):,.0f}–{max(rates):,.0f}]  "
        f"p50 {_median(results, 'p50_call_s') * 1e6:>7.1f} us  "
        f"p99 {_median(results, 'p99_call_s') * 1e6:>8.1f} us per commit"
    )


def _assert_dense(result) -> None:
    assert result.watermark == result.total_checkins, (
        f"watermark {result.watermark} != "
        f"{result.total_checkins} committed check-ins"
    )


def test_e25_capacity(report_out, benchmark):
    config = CapacityConfig(
        users=USERS,
        venues=VENUES,
        writers=WRITERS,
        checkins_per_writer=CHECKINS,
    )
    corpus = build_corpus(config)
    rows = [
        "E25 — store capacity: one add_checkin_committed per check-in, "
        "one single-lock DataStore",
        (
            f"corpus {config.users:,} users / {config.venues:,} venues; "
            f"{config.writers} writers x {config.checkins_per_writer:,} "
            f"check-ins; median [min–max] of {ROUNDS} rounds"
        ),
        "",
    ]

    # Phase 1: ROUNDS rounds on the comparison corpus -------------------
    runs = []
    for round_index in range(ROUNDS):
        if round_index == 0:
            # One round under pytest-benchmark for its timing table.
            result = benchmark.pedantic(
                lambda: run_capacity(config, corpus=corpus),
                rounds=1,
                iterations=1,
            )
        else:
            result = run_capacity(config, corpus=corpus)
        _assert_dense(result)
        runs.append(result)
    rows.append(_fmt(runs))
    rows.append(
        f"dense seq: watermark == committed check-ins in all {ROUNDS} rounds"
    )

    summary = {
        "users": config.users,
        "venues": config.venues,
        "writers": config.writers,
        "rounds": ROUNDS,
        "checkins_per_s": round(_median(runs, "checkins_per_s")),
        "p50_commit_us": round(_median(runs, "p50_call_s") * 1e6, 1),
        "p99_commit_us": round(_median(runs, "p99_call_s") * 1e6, 1),
    }

    # Phase 2: p99 commit latency at a large corpus --------------------
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
            full_config, store=store, populate_seconds=populate_seconds
        )
        _assert_dense(full)
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
        rows.append(_fmt([full]))
        rows.append(
            f"p99 commit latency at this corpus: "
            f"{full.p99_call_s * 1e6:.1f} us per check-in, "
            f"{full.checkins_per_s:,.0f} ci/s sustained"
        )
        summary.update(
            {
                "full_users": full_config.users,
                "full_venues": full_config.venues,
                "full_corpus_fraction": round(fraction, 2),
                "full_populate_seconds": round(full.populate_seconds, 1),
                "full_checkins_per_s": round(full.checkins_per_s),
                "full_p99_commit_us": round(full.p99_call_s * 1e6, 1),
            }
        )

    report_out("E25_capacity", rows, summary=summary)
