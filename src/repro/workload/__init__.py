"""Synthetic world generation calibrated to the thesis's measurements."""

from repro.workload.behavior import (
    DEFAULT_HORIZON_DAYS,
    MIN_EVENT_GAP_S,
    BehaviorGenerator,
    CheckInEvent,
    EventReplayer,
    ReplayReport,
)
from repro.workload.chaos import (
    VICTIM_SUBSCRIBER,
    ChaosConfig,
    ChaosReport,
    committed_state_digest,
    run_chaos,
)
from repro.workload.cheaters import (
    CAUGHT_CHEATER_COUNT,
    FARMER_TARGET_MAYORSHIPS,
    FARMER_TOTAL_CHECKINS,
    POWER_USER_COUNT,
    TOP_CHEATER_CHECKINS,
    CheaterGenerator,
    PersonaRoster,
)
from repro.workload.population import (
    FULL_SCALE_USERS,
    LIGHT_CHECKIN_FRACTION,
    USERNAME_FRACTION,
    ZERO_CHECKIN_FRACTION,
    GeneratedPopulation,
    Persona,
    PopulationConfig,
    PopulationGenerator,
    UserSpec,
)
from repro.workload.scenario import (
    FULL_SCALE_VENUES,
    WebStack,
    World,
    build_web_stack,
    build_world,
)
from repro.workload.venues import (
    CHAINS,
    GeneratedVenues,
    VenueGenerator,
    VenueGeneratorConfig,
)

__all__ = [
    "DEFAULT_HORIZON_DAYS",
    "MIN_EVENT_GAP_S",
    "BehaviorGenerator",
    "CheckInEvent",
    "EventReplayer",
    "ReplayReport",
    "CAUGHT_CHEATER_COUNT",
    "FARMER_TARGET_MAYORSHIPS",
    "FARMER_TOTAL_CHECKINS",
    "POWER_USER_COUNT",
    "TOP_CHEATER_CHECKINS",
    "CheaterGenerator",
    "PersonaRoster",
    "FULL_SCALE_USERS",
    "LIGHT_CHECKIN_FRACTION",
    "USERNAME_FRACTION",
    "ZERO_CHECKIN_FRACTION",
    "GeneratedPopulation",
    "Persona",
    "PopulationConfig",
    "PopulationGenerator",
    "UserSpec",
    "FULL_SCALE_VENUES",
    "WebStack",
    "World",
    "build_web_stack",
    "build_world",
    "CHAINS",
    "GeneratedVenues",
    "VenueGenerator",
    "VenueGeneratorConfig",
]

from repro.workload.social import (
    SocialGraph,
    SocialGraphConfig,
    generate_friend_graph,
)

__all__ += ["SocialGraph", "SocialGraphConfig", "generate_friend_graph"]
__all__ += [
    "VICTIM_SUBSCRIBER",
    "ChaosConfig",
    "ChaosReport",
    "committed_state_digest",
    "run_chaos",
]

from repro.workload.capacity import (
    CapacityConfig,
    CapacityResult,
    run_capacity,
)

__all__ += [
    "CapacityConfig",
    "CapacityResult",
    "run_capacity",
]
