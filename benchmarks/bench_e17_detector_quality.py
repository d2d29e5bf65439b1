"""E17 (extension) — §6.2.2: how good is the combined cheater detector?

The simulator knows which accounts cheat, so the three-factor detector's
precision/recall tradeoff is measurable — the evaluation the thesis's
future-work section calls for.
"""

from repro.analysis.detection import CheaterDetector, DetectorConfig
from repro.analysis.evaluation import (
    best_f1,
    format_sweep_table,
    score_population,
    threshold_sweep,
)


def test_e17_detector_tradeoff_curve(
    bench_world, bench_crawl, report_out, benchmark
):
    database, _, _ = bench_crawl

    def evaluate():
        detector = CheaterDetector(
            database, DetectorConfig(min_total_checkins=150)
        )
        reports = score_population(detector)
        cheaters = {
            spec.user_id for spec in bench_world.roster.caught_cheaters
        }
        cheaters.add(bench_world.roster.mega_cheater.user_id)
        sweep = threshold_sweep(
            reports,
            cheaters,
            thresholds=[t / 20.0 for t in range(2, 17)],
        )
        return reports, cheaters, sweep

    reports, cheaters, sweep = benchmark.pedantic(
        evaluate, rounds=1, iterations=1
    )
    rows = [
        f"scored users: {len(reports)}   planted cheaters among them: "
        f"{len(cheaters)}",
        "",
    ]
    rows += format_sweep_table(sweep)
    best = best_f1(sweep)
    rows.append(
        f"\nbest F1 = {best.f1:.2f} at threshold {best.threshold:.2f} "
        f"(precision {best.precision:.2f}, recall {best.recall:.2f}, "
        f"FPR {best.false_positive_rate:.3f})"
    )
    rows.append(
        "(the three public-data factors separate the planted cheaters "
        "from thousands of organic heavy users — the §6.2.2 'find the "
        "ones the cheater code missed' program, quantified)"
    )
    report_out("E17_detector_quality", rows)
    assert best.f1 >= 0.6
    assert best.false_positive_rate < 0.05
