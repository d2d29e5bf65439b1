"""E18 (extension) — §1.1: "The methods may also apply to other similar LBSs."

Bolts a Gowalla-style item economy onto the same substrate and runs the
UNCHANGED spoofing + scheduler stack against it: the attack transfers with
zero code changes, only the loot differs.  Also checks the ID-clock
account-age inference (§4.3) the analyses share across services.
"""

from repro.analysis.growth import growth_model_from_crawl
from repro.attack.scheduler import CheckInScheduler
from repro.attack.spoofing import build_emulator_attacker
from repro.attack.tour import TourPlanner, VenueCatalog
from repro.lbsn.items import ItemSystem, farm_items
from repro.simnet.clock import SECONDS_PER_DAY
from repro.workload import build_world


def test_e18_item_farming_transfer(report_out, benchmark):
    def raid():
        world = build_world(scale=0.0005, seed=140)
        service = world.service
        system = ItemSystem(service, seed=7, seeded_fraction=0.3)
        _, _, channel = build_emulator_attacker(service)
        scheduler = CheckInScheduler(service.clock)
        planner = TourPlanner(VenueCatalog.from_service(service))
        summary = farm_items(
            system, channel, scheduler, planner, max_targets=25
        )
        return world, summary

    world, summary = benchmark.pedantic(raid, rounds=1, iterations=1)
    by_rarity = {}
    for item in summary["items"]:
        by_rarity[item.rarity.name] = by_rarity.get(item.rarity.name, 0) + 1
    rows = [
        "Gowalla-style item farm with the unchanged Foursquare attack stack:",
        f"  check-in attempts: {summary['attempts']}",
        f"  detections: {summary['detected']}",
        f"  items collected: {len(summary['items'])} "
        f"({', '.join(f'{k}:{v}' for k, v in sorted(by_rarity.items()))})",
        f"  collection score: {summary['score']}",
        "(same spoofing channel, same T = D x 5 min scheduler, different "
        "reward economy — the paper's cross-LBS claim, demonstrated)",
    ]
    report_out("E18_gowalla_transfer", rows)
    assert summary["detected"] == 0
    assert len(summary["items"]) == summary["attempts"]


def test_e18_id_clock_ages(bench_world, bench_crawl, report_out, benchmark):
    database, _, _ = bench_crawl

    def infer():
        service_age = bench_world.horizon_s / SECONDS_PER_DAY
        model = growth_model_from_crawl(database, service_age_days=service_age)
        mega = bench_world.roster.mega_cheater.user_id
        organic_old = min(u.user_id for u in database.users())
        return model, mega, organic_old, service_age

    model, mega, oldest, service_age = benchmark(infer)
    rows = [
        "the §4.3 ID clock (user IDs as registration dates):",
        f"  service age: {service_age:.0f} days, max user id "
        f"{model.max_user_id}",
        f"  oldest account (id {oldest}): "
        f"~{model.registration_age_days(oldest):.0f} days old",
        f"  mega cheater (id {mega}): "
        f"~{model.registration_age_days(mega):.0f} days old "
        "-> 'used the service for less than one year' (§4.3's inference)",
    ]
    report_out("E18_id_clock", rows)
    assert model.account_younger_than(mega, days=365.0)
