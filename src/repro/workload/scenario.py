"""World builder: one call that assembles the full simulated ecosystem.

``build_world`` wires every substrate together the way the thesis found it
live in August 2010: a service with venues across the US, a user population
with the measured activity distribution, the injected cheater personas, and
the whole corpus replayed through the real check-in pipeline.

``build_web_stack`` then exposes that world over the simulated HTTP
transport — the crawler's target.

``storm_schedule`` and ``SCENARIO_MIN_TOTAL_CHECKINS`` are what the seeded
chaos, durable and adversary workloads share on top of a built world: the
post-horizon check-in storm and the ledger's reporting bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.errors import ReproError
from repro.lbsn.api import LbsnApiServer
from repro.lbsn.models import Venue
from repro.lbsn.service import LbsnService
from repro.lbsn.webserver import LbsnWebServer
from repro.simnet.clock import SECONDS_PER_DAY
from repro.simnet.http import HttpTransport, Router
from repro.simnet.network import Network
from repro.workload.behavior import (
    DEFAULT_HORIZON_DAYS,
    BehaviorGenerator,
    EventReplayer,
    ReplayReport,
)
from repro.workload.cheaters import CheaterGenerator, PersonaRoster
from repro.workload.population import (
    FULL_SCALE_USERS,
    GeneratedPopulation,
    PopulationConfig,
    PopulationGenerator,
)
from repro.workload.social import SocialGraph, generate_friend_graph
from repro.workload.venues import (
    GeneratedVenues,
    VenueGenerator,
    VenueGeneratorConfig,
)

#: Venues on real Foursquare at crawl time; ``scale`` multiplies it.
FULL_SCALE_VENUES = 5_600_000

#: Ledger reporting bar of the seeded chaos, durable and adversary
#: workloads and of the streamed-world parity suites.
SCENARIO_MIN_TOTAL_CHECKINS = 100


@dataclass
class World:
    """Everything the experiments need, in one bundle."""

    service: LbsnService
    venues: GeneratedVenues
    population: GeneratedPopulation
    roster: PersonaRoster
    replay: ReplayReport
    horizon_s: float
    scale: float
    social: Optional[SocialGraph] = None


@dataclass
class WebStack:
    """The world's public web surface: site + API over simulated HTTP."""

    network: Network
    router: Router
    transport: HttpTransport
    webserver: LbsnWebServer
    apiserver: LbsnApiServer


def build_world(
    scale: float = 0.001,
    seed: int = 42,
    horizon_days: float = DEFAULT_HORIZON_DAYS,
    include_personas: bool = True,
    persona_activity: Optional[float] = None,
    population_config: Optional[PopulationConfig] = None,
    venue_config: Optional[VenueGeneratorConfig] = None,
    service: Optional[LbsnService] = None,
) -> World:
    """Build and populate a complete simulated world.

    Parameters
    ----------
    scale:
        Fraction of the thesis's corpus (1.89 M users / 5.6 M venues).
        The default 0.001 gives ~1,890 users and ~5,600 venues — a few
        seconds of generation.  Benches use 0.005-0.01.
    persona_activity:
        Scale of per-persona check-in volume.  Defaults to ``100 * scale``
        clamped to [0.02, 1.0], so at scale 0.01 personas run at the
        thesis's literal volumes (5,000-12,500 attempts each).
    """
    if scale <= 0:
        raise ReproError(f"scale must be positive: {scale}")
    service = service or LbsnService()
    user_count = max(10, int(FULL_SCALE_USERS * scale))
    venue_count = max(30, int(FULL_SCALE_VENUES * scale))
    horizon_s = horizon_days * SECONDS_PER_DAY

    venue_generator = VenueGenerator(service, config=venue_config, seed=seed)
    venues = venue_generator.generate(venue_count)

    population_generator = PopulationGenerator(
        service, config=population_config, seed=seed + 1
    )
    population = PopulationGenerator.generate(population_generator, user_count)

    behavior = BehaviorGenerator(venues, horizon_days=horizon_days, seed=seed + 2)
    events: list = []
    for spec in population.specs:
        events.extend(behavior.events_for(spec))

    roster = PersonaRoster()
    if include_personas:
        activity = persona_activity
        if activity is None:
            activity = min(1.0, max(0.02, 100.0 * scale))
        cheaters = CheaterGenerator(
            service, population_generator, venues, horizon_s, seed=seed + 3
        )
        roster, persona_events = cheaters.generate(scale_activity=activity)
        events.extend(persona_events)

    social = generate_friend_graph(
        service, population.specs + roster.all_specs(), seed=seed + 4
    )

    replay = EventReplayer(service).replay(events)
    if service.clock.now() < horizon_s:
        service.clock.advance_to(horizon_s)
    # Mayors age out of the 60-day window; settle the final state the
    # crawler and analyses will see.
    service.refresh_all_mayorships()
    return World(
        service=service,
        venues=venues,
        population=population,
        roster=roster,
        replay=replay,
        horizon_s=horizon_s,
        scale=scale,
        social=social,
    )


def build_web_stack(
    world: World,
    seed: int = 7,
    show_whos_been_here: bool = True,
    visitor_obfuscator=None,
    blocking: bool = False,
    faults=None,
) -> WebStack:
    """Expose a world's website and API over the simulated network.

    Pass ``blocking=True`` for experiments that measure crawler throughput:
    requests then really sleep their sampled round-trip times, so thread
    counts matter the way they did against the live site.

    Pass a :class:`~repro.faults.FaultInjector` as ``faults`` to arm the
    HTTP surface: the transport checks ``simnet.request`` (loss/latency)
    and the web server's fault middleware checks ``web.request``
    (injected 5xx/timeouts, observability routes exempt).
    """
    network = Network(seed=seed)
    router = Router()
    webserver = LbsnWebServer(
        world.service,
        show_whos_been_here=show_whos_been_here,
        visitor_obfuscator=visitor_obfuscator,
        faults=faults,
    )
    webserver.install_routes(router)
    apiserver = LbsnApiServer(world.service)
    apiserver.install_routes(router)
    transport = HttpTransport(
        router,
        network,
        clock=world.service.clock,
        blocking=blocking,
        faults=faults,
    )
    if faults is not None:
        transport.add_middleware(webserver.fault_middleware())
    return WebStack(
        network=network,
        router=router,
        transport=transport,
        webserver=webserver,
        apiserver=apiserver,
    )


def storm_schedule(
    world: World, checkins: int, gap_s: float
) -> Iterator[Tuple[int, Venue, float]]:
    """The seeded post-horizon check-in storm: ``(user_id, venue, ts)``.

    Users are taken round-robin in ID order; venues stride by 7 in ID
    order so one user's consecutive attempts land at different venues
    (the rapid-fire rule would refuse repeats).  Timestamps are pinned
    absolutely, one day past the horizon, never ``clock.now()``: retry
    and crawl backoff advance the clock by fault-dependent amounts, and
    committed rows must not move with them.  Yields nothing when the
    world has no users or no venues.
    """
    store = world.service.store
    users = sorted(user.user_id for user in store.iter_users())
    venues = sorted(venue.venue_id for venue in store.iter_venues())
    if not users or not venues:
        return
    base_ts = world.horizon_s + SECONDS_PER_DAY
    for index in range(checkins):
        venue = store.require_venue(venues[(index * 7) % len(venues)])
        yield users[index % len(users)], venue, base_ts + index * gap_s
