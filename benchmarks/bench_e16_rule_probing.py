"""E16 (extension) — reproducing the thesis's reverse-engineering itself.

§2.3's rules were learned "through experiments"; the RuleProber automates
that methodology.  The bench probes services configured with different
(hidden) thresholds and reports discovered vs. actual, plus the number of
disposable probe accounts each discovery costs.
"""

from repro.attack.probing import RuleProber
from repro.lbsn.cheater_code import CheaterCode, CheaterCodeConfig
from repro.lbsn.service import LbsnService


def probe_configuration(hold_s, speed_mps):
    service = LbsnService()
    service.cheater_code = CheaterCode(
        CheaterCodeConfig(
            same_venue_interval_s=hold_s, max_speed_mps=speed_mps
        )
    )
    prober = RuleProber(service)
    envelope = prober.probe_all()
    probes_used = service.store.user_count()
    return envelope, probes_used


def test_e16_probe_accuracy(report_out, benchmark):
    configurations = [
        ("Foursquare-like", 3_600.0, 67.0),
        ("strict", 7_200.0, 20.0),
        ("lenient", 900.0, 300.0),
    ]

    def sweep():
        return [
            (label, hold, speed, *probe_configuration(hold, speed))
            for label, hold, speed in configurations
        ]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        "service          actual hold  probed hold  actual speed  "
        "probed speed  probe accounts",
    ]
    for label, hold, speed, envelope, probes in results:
        rows.append(
            f"{label:<16} {hold:>11.0f}  {envelope.same_venue_hold_s:>11.0f}"
            f"  {speed:>12.0f}  {envelope.safe_speed_mps:>12.1f}"
            f"  {probes:>14}"
        )
    rows.append(
        "(each hidden threshold recovered within the probe resolution "
        "using a few dozen disposable accounts — the §2.3 experiments, "
        "automated)"
    )
    report_out("E16_rule_probing", rows)

    for label, hold, speed, envelope, probes in results:
        assert hold <= envelope.same_venue_hold_s <= hold * 1.1, label
        assert speed * 0.85 <= envelope.safe_speed_mps <= speed, label
        assert probes < 200, label
