"""E26 (extension) — coordinated rings vs. the honeypot-venue defense.

The thesis's cheater is one account on one emulator; the follow-on
literature's is a *ring* — 3–5 accounts on one device, firing in quick
succession so every account "witnesses" the others.  The per-user
cheater code is structurally blind to a convoy (constant offsets keep
each account inside the §2.3 envelope), and naive proximity
corroboration is *defeated* by it (1.0 by construction).  The honeypot
tier exploits the one thing a ring cannot hide: its target list comes
from exhaustive venue enumeration, so venues no honest itinerary can
contain still get visited.

This experiment sweeps honeypot density and ring size at the paper's
1:100 scale (``scale=0.01``: ~19 k users, ~56 k venues, the §3.4 easy-
target pool lands at the thesis's "~1000 venues") and commits the
catch-rate / false-positive scoreboard.

Acceptance bars (all asserted):

1. **Catch rate** ≥ 90% at every density ≥ 1%, for every swept ring
   size (the seeded default cells all reach 100%).
2. **False positives** = 0 honest accounts flagged in *every* cell —
   the visibility law, measured rather than assumed.
3. **Blindness of the old defenses** — per-user cheater code detects 0
   ring check-ins and naive corroboration reads 1.0 in every cell.
4. **Inline enforcement** — every caught account's next check-in
   through :class:`DefendedLbsnService` is refused.
5. **Determinism** — rerunning the headline cell reproduces identical
   catch and false-positive digests.

Everything runs on the simulated clock — zero wall-clock sleeps.

Environment knobs (CI smoke mode shrinks the world):

* ``REPRO_E26_SCALE`` — world scale (default 0.01, the paper's 1:100).
* ``REPRO_E26_RINGS`` — rings per cell (default 3).
* ``REPRO_E26_HONEST`` — honest control accounts per cell (default 50).
"""

import os

from repro.adversary import AdversaryConfig, run_adversary
from repro.adversary.ring import WITNESS_WINDOW_S

SCALE = float(os.environ.get("REPRO_E26_SCALE", "0.01"))
RINGS = int(os.environ.get("REPRO_E26_RINGS", "3"))
HONEST = int(os.environ.get("REPRO_E26_HONEST", "50"))

SEED = 42
#: Densities swept at the default ring size (0.0 is the no-defense
#: control: the ring sweeps unopposed).
DENSITIES = (0.0, 0.005, 0.01, 0.02)
#: Ring sizes swept at the headline density (the literature's 3–5).
RING_SIZES = (3, 4, 5)
HEADLINE_DENSITY = 0.01
HEADLINE_RING_SIZE = 4


def _config(**overrides) -> AdversaryConfig:
    base = dict(
        scale=SCALE,
        seed=SEED,
        rings=RINGS,
        ring_size=HEADLINE_RING_SIZE,
        honeypot_density=HEADLINE_DENSITY,
        honest_accounts=HONEST,
    )
    base.update(overrides)
    return AdversaryConfig(**base)


def _cell_row(label: str, report) -> str:
    return (
        f"{label}: catch {report.catch_rate:.3f} "
        f"({len(report.flagged_ring_accounts)}/{len(report.ring_accounts)}), "
        f"fp {report.false_positive_rate:.3f} "
        f"({len(report.flagged_honest_accounts)}/"
        f"{len(report.honest_accounts)}), "
        f"{report.honeypots_seeded} traps "
        f"({report.honeypot_targets} in pool of {report.target_pool}), "
        f"corroboration {report.ring_corroboration:.2f}, "
        f"refused {report.post_flag_refusals}/{report.post_flag_attempts}, "
        f"{report.wall_seconds:.1f}s"
    )


def _assert_cell(report, density: float) -> None:
    # Bar 2: the visibility law holds in every cell.
    assert report.false_positive_rate == 0.0
    assert report.flagged_honest_accounts == []
    # Bar 3: the defenses the ring is built to beat stay beaten.
    assert report.ring_corroboration == 1.0
    for ring_report in report.ring_reports:
        assert ring_report.detected == 0
    if density >= 0.01:
        # Bar 1: the honeypot tier catches at the committed bar.
        assert report.catch_rate >= 0.9
        # Bar 4: caught accounts are refused inline.
        assert report.post_flag_refusals == len(
            report.flagged_ring_accounts
        )


def test_e26_adversary(report_out, benchmark):
    """Density × ring-size sweep, determinism-checked; all bars asserted."""
    headline = benchmark.pedantic(
        lambda: run_adversary(_config()),
        rounds=1,
        iterations=1,
    )
    _assert_cell(headline, HEADLINE_DENSITY)

    density_cells = []
    for density in DENSITIES:
        if density == HEADLINE_DENSITY:
            report = headline
        else:
            report = run_adversary(_config(honeypot_density=density))
        _assert_cell(report, density)
        density_cells.append((density, report))

    size_cells = []
    for ring_size in RING_SIZES:
        if ring_size == HEADLINE_RING_SIZE:
            report = headline
        else:
            report = run_adversary(_config(ring_size=ring_size))
        _assert_cell(report, HEADLINE_DENSITY)
        size_cells.append((ring_size, report))

    # Bar 5: the headline cell replays to identical digests.
    replay_identical = (
        run_adversary(_config()).replay_checks() == headline.replay_checks()
    )
    assert replay_identical

    no_defense = density_cells[0][1]
    rows = [
        f"world: scale {SCALE} (target pool {headline.target_pool} "
        f"easy mayor-specials — the thesis's '~1000 venues'), seed {SEED}",
        f"adversary: {RINGS} rings, {HONEST} honest control accounts, "
        f"witness window {WITNESS_WINDOW_S:.0f}s; "
        f"per-user cheater code detections in every cell: 0; "
        f"naive corroboration in every cell: 1.00",
        f"no-defense control (density 0): ring sweeps unopposed, "
        f"catch {no_defense.catch_rate:.3f}, "
        f"{no_defense.honeypots_seeded} traps",
        "-- density sweep (ring size "
        f"{HEADLINE_RING_SIZE}) --",
    ]
    rows.extend(
        _cell_row(f"density {density:.3f}", report)
        for density, report in density_cells
    )
    rows.append(
        f"-- ring-size sweep (density {HEADLINE_DENSITY:.3f}) --"
    )
    rows.extend(
        _cell_row(f"ring size {ring_size}", report)
        for ring_size, report in size_cells
    )
    rows.extend(
        [
            f"determinism: replay catch digest identical="
            f"{replay_identical}, fp digest identical={replay_identical}",
            f"catch digest: {headline.catch_digest[:16]}…",
            f"fp digest: {headline.fp_digest[:16]}…",
            f"headline wall time (simulated clocks only): "
            f"{headline.wall_seconds:.1f} s",
        ]
    )
    report_out(
        "E26_adversary",
        rows,
        summary={
            "scale": SCALE,
            "rings": RINGS,
            "honest_accounts": HONEST,
            "target_pool": headline.target_pool,
            "density_sweep": {
                str(density): {
                    "catch_rate": round(report.catch_rate, 4),
                    "false_positive_rate": round(
                        report.false_positive_rate, 4
                    ),
                    "honeypots_seeded": report.honeypots_seeded,
                    "honeypot_targets": report.honeypot_targets,
                    "inline_refusals": report.post_flag_refusals,
                }
                for density, report in density_cells
            },
            "ring_size_sweep": {
                str(ring_size): {
                    "catch_rate": round(report.catch_rate, 4),
                    "false_positive_rate": round(
                        report.false_positive_rate, 4
                    ),
                }
                for ring_size, report in size_cells
            },
            "corroboration_defeated": True,
            "per_user_rule_detections": 0,
            "replay_digest_identical": replay_identical,
            "catch_digest": headline.catch_digest,
            "fp_digest": headline.fp_digest,
            "headline_wall_seconds": round(headline.wall_seconds, 3),
        },
    )
