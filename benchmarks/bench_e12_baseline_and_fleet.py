"""E12 (extension) — baseline comparison and attack scale-up.

Two questions the thesis raises but does not quantify:

* §2.2: the Autosquare-style naive bot "obviously does not work now" — how
  badly does it fail vs the §3.3 scheduler on identical targets?
* §3.3: "attackers need to be able to control a large number of users" —
  how does a fleet of per-user-compliant accounts scale the attack?
"""

from repro.attack.campaign import CheatingCampaign
from repro.attack.fleet import AttackFleet
from repro.attack.naive import NaiveAutoCheckinBot, NaiveBotConfig
from repro.attack.spoofing import build_emulator_attacker
from repro.attack.targeting import VenueProfileAnalyzer
from repro.crawler import crawl_full_site
from repro.workload import build_web_stack, build_world


def world_and_targets(seed, count=24):
    world = build_world(scale=0.001, seed=seed)
    stack = build_web_stack(world, seed=seed + 1)
    database, _, _ = crawl_full_site(
        stack.transport, [stack.network.create_egress()]
    )
    analyzer = VenueProfileAnalyzer(database)
    targets = analyzer.uncontested_mayor_specials(max_visitors=2)[:count]
    return world, targets


def test_e12_naive_vs_scheduler(report_out, benchmark):
    def head_to_head():
        world, targets = world_and_targets(seed=71)
        service = world.service
        _, _, naive_channel = build_emulator_attacker(service)
        naive = NaiveAutoCheckinBot(
            service.clock, naive_channel, NaiveBotConfig(interval_s=120.0)
        ).run(targets)
        _, _, smart_channel = build_emulator_attacker(service)
        smart = CheatingCampaign(service.clock, smart_channel).harvest(targets)
        return naive, smart

    naive, smart = benchmark.pedantic(head_to_head, rounds=1, iterations=1)
    rows = [
        f"{'':<22} attempts  rewarded  detected  mayorships",
        f"{'naive bot (2-min)':<22} {naive.attempts:>8}  {naive.rewarded:>8}"
        f"  {naive.detected:>8}  {naive.mayorships_won:>10}",
        f"{'§3.3 scheduler':<22} {smart.attempts:>8}  {smart.rewarded:>8}"
        f"  {smart.detected:>8}  {smart.mayorships_won:>10}",
        "(paper: the basic method 'obviously does not work now'; the "
        "scheduled attack passes cleanly)",
    ]
    report_out("E12_naive_vs_scheduler", rows)
    assert naive.detected > smart.detected
    assert smart.detected == 0
    assert smart.rewarded > naive.rewarded


def test_e12_fleet_scaling(report_out, benchmark):
    def sweep():
        results = []
        for accounts in (1, 2, 4, 8):
            world, targets = world_and_targets(seed=72)
            fleet = AttackFleet(world.service, accounts=accounts)
            report = fleet.sweep(targets)
            results.append((accounts, report))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = ["accounts  rewarded  detected  mayorships  makespan(h)"]
    for accounts, report in results:
        rows.append(
            f"{accounts:>8}  {report.rewarded:>8}  {report.detected:>8}  "
            f"{report.mayorships_won:>10}  {report.makespan_s / 3_600.0:>10.1f}"
        )
    rows.append(
        "(the per-user cheater code cannot see across accounts: the same "
        "target list clears in a fraction of the time, still undetected)"
    )
    report_out("E12_fleet_scaling", rows)
    single = results[0][1]
    eight = results[-1][1]
    assert eight.detected == 0
    assert eight.makespan_s < single.makespan_s
    assert eight.rewarded >= single.rewarded
