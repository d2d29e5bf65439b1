"""E25 (extension) — the paper-scale store: footprint per row and commits.

The paper crawled 1.89 M users and 5.6 M venues through Foursquare's
production write path; repro's single-lock :class:`DataStore` serialises
every committed check-in behind one RLock, one seq-counter bump, and one
histogram observation.  E25 measures what one row costs to hold, and the
sustained check-ins/s and per-commit latency of ``add_checkin_committed``
— the service's commit path — at 8 concurrent writers, first on a 1 %
corpus and then on the paper's full one.

Acceptance bars (asserted):

* **seq contract** — every round ends with ``watermark == total
  check-ins``: dense allocation, no burned slots.
* **footprint** — heap bytes per user and per venue, each row plus its
  store indexes, stay under :data:`USER_BYTES_BAR` and
  :data:`VENUE_BYTES_BAR`.  The bars sit 10–17 % above the values
  recorded on the default corpus (257 B and 508 B), so one per-row
  container allocated up front again (an empty list adds 56 B, an empty
  set 216 B) or a user row that loses its slots fails them.

Reported (not asserted): bytes per committed check-in; the median and
min–max throughput over ``REPRO_E25_ROUNDS`` rounds and the median
p50/p99 per-commit latency; and the paper-scale phase — the store
populated with 1.89 M users / 5.6 M venues, reporting populate time, the
resident growth of corpus plus store (next to what the per-row footprint
predicts), the process's peak RSS, and commit latency at that size.  That
phase peaks at about 4 GB of RSS.

Environment knobs (CI smoke mode shrinks all of these):

* ``REPRO_E25_USERS`` / ``REPRO_E25_VENUES`` — comparison corpus
  (default 18,900 / 56,000 — 1 % of the paper's), also the corpus the
  footprint is measured on.
* ``REPRO_E25_WRITERS`` — writer threads (default 8).
* ``REPRO_E25_CHECKINS_PER_WRITER`` — schedule length (default 6,000).
* ``REPRO_E25_ROUNDS`` — rounds (default 3).
* ``REPRO_E25_FULL_USERS`` / ``REPRO_E25_FULL_VENUES`` /
  ``REPRO_E25_FULL_CHECKINS_PER_WRITER`` — the paper-scale phase
  (defaults 1,890,000 / 5,600,000 / 4,000); set the first to 0 to skip
  the phase entirely.
"""

import dataclasses
import os
import resource
import statistics

from repro.workload.capacity import (
    FULL_SCALE_USERS,
    FULL_SCALE_VENUES,
    CapacityConfig,
    build_corpus,
    build_store,
    iter_users,
    iter_venues,
    measure_footprint,
    resident_bytes,
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

#: Footprint bars in heap bytes per row.  Corpora of 1,000-30,000 users
#: measure 252-279 B per user and 480-536 B per venue on CPython 3.11.
USER_BYTES_BAR = 300
VENUE_BYTES_BAR = 560


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
        "E25 — the paper-scale store: heap bytes per row, and one "
        "add_checkin_committed per check-in on one single-lock DataStore",
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

    # Footprint per row on the comparison corpus ------------------------
    footprint = measure_footprint(config)
    rows.append("")
    rows.append(
        f"footprint (traced heap, each row plus its store indexes, "
        f"{footprint.checkins:,} committed check-ins): "
        f"{footprint.bytes_per_user:,.0f} B per user, "
        f"{footprint.bytes_per_venue:,.0f} B per venue, "
        f"{footprint.bytes_per_checkin:,.0f} B per check-in"
    )
    assert footprint.bytes_per_user < USER_BYTES_BAR, (
        f"{footprint.bytes_per_user:.0f} B per user >= {USER_BYTES_BAR}"
    )
    assert footprint.bytes_per_venue < VENUE_BYTES_BAR, (
        f"{footprint.bytes_per_venue:.0f} B per venue >= {VENUE_BYTES_BAR}"
    )
    rows.append(
        f"footprint bar: user < {USER_BYTES_BAR} B, "
        f"venue < {VENUE_BYTES_BAR} B"
    )

    summary = {
        "users": config.users,
        "venues": config.venues,
        "writers": config.writers,
        "rounds": ROUNDS,
        "checkins_per_s": round(_median(runs, "checkins_per_s")),
        "p50_commit_us": round(_median(runs, "p50_call_s") * 1e6, 1),
        "p99_commit_us": round(_median(runs, "p99_call_s") * 1e6, 1),
        "bytes_per_user": round(footprint.bytes_per_user),
        "bytes_per_venue": round(footprint.bytes_per_venue),
        "bytes_per_checkin": round(footprint.bytes_per_checkin),
    }

    # Phase 2: the paper-scale corpus -----------------------------------
    if FULL_USERS > 0:
        full_config = dataclasses.replace(
            config,
            users=FULL_USERS,
            venues=FULL_VENUES,
            checkins_per_writer=FULL_CHECKINS,
        )
        before = resident_bytes()
        store, populate_seconds = build_store(
            iter_users(full_config.users), iter_venues(full_config.venues)
        )
        resident_gb = (resident_bytes() - before) / 1e9
        predicted_gb = (
            full_config.users * footprint.bytes_per_user
            + full_config.venues * footprint.bytes_per_venue
        ) / 1e9
        full = run_capacity(
            full_config, store=store, populate_seconds=populate_seconds
        )
        _assert_dense(full)
        peak_rss_gb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e9
        )
        fraction = full_config.users / FULL_SCALE_USERS
        rows.append("")
        rows.append(
            f"paper-scale phase: {full_config.users:,} users / "
            f"{full_config.venues:,} venues, {fraction:.0%} of the "
            f"paper's {FULL_SCALE_USERS:,} / {FULL_SCALE_VENUES:,} "
            f"(populate {full.populate_seconds:.1f}s, one round)"
        )
        rows.append(
            f"corpus + store resident {resident_gb:.2f} GB "
            f"(footprint x rows predicts {predicted_gb:.2f} GB); "
            f"peak RSS {peak_rss_gb:.2f} GB"
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
                "full_resident_gb": round(resident_gb, 2),
                "full_peak_rss_gb": round(peak_rss_gb, 2),
                "full_checkins_per_s": round(full.checkins_per_s),
                "full_p99_commit_us": round(full.p99_call_s * 1e6, 1),
            }
        )

    report_out("E25_capacity", rows, summary=summary)
