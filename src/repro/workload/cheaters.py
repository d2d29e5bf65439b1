"""Injected cheater and power-user personas (§3.4, §4.2, §4.3).

The thesis treats its extreme accounts as individually identifiable cases,
so these personas are injected at fixed counts regardless of world scale:

* **6 power users** — ≥5000 valid check-ins concentrated in one city, each
  mayor of tens of venues (§4.2's first group of the ≥5000 club).
* **5 caught cheaters** — up to 12,500 check-in attempts teleporting across
  the country; almost all trip the super-human-speed rule, so they have
  huge totals, few badges, no mayorships, and barely any recent-visitor
  appearances (§4.2's second group; one of them is the global check-in
  leader).
* **1 mega cheater** — the Fig 4.3 profile: a spoofing user who works the
  rules correctly and "visits" 30+ cities including Alaska and Europe
  within a year, landing in the recent-visitor lists of many venues.
* **1 mayor farmer** — §3.4's user with 865 mayorships from only 1265
  check-ins, harvested from small-town venues nobody else visits.

The paper's literal figures are pinned as constants rather than derived,
because they are *individually reported* numbers, not distributions:
:data:`POWER_USER_COUNT` (6) + :data:`CAUGHT_CHEATER_COUNT` (5) make up
§4.2's "11 users have checked in at least 5,000 times" split by whether
their mayorship lists survived; :data:`TOP_CHEATER_CHECKINS` (12,500)
is the global check-in leader's total; and
:data:`FARMER_TARGET_MAYORSHIPS` / :data:`FARMER_TOTAL_CHECKINS`
(865 / 1,265) reproduce §3.4's mayor farmer exactly — E8 and E9 assert
these same constants back out of the finished world.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.geo.regions import EUROPEAN_CITIES, US_CITIES, city_by_name
from repro.lbsn.service import LbsnService
from repro.simnet.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.workload.behavior import CheckInEvent
from repro.workload.population import Persona, PopulationGenerator, UserSpec
from repro.workload.venues import GeneratedVenues

#: §4.2: "11 users have checked in at least 5,000 times", split 6 / 5.
POWER_USER_COUNT = 6
CAUGHT_CHEATER_COUNT = 5
#: §4.2: the highest total among all users.
TOP_CHEATER_CHECKINS = 12_500
#: §3.4: "a user on Foursquare is the mayor of 865 venues but with a total
#: number of check-ins of only 1265".
FARMER_TARGET_MAYORSHIPS = 865
FARMER_TOTAL_CHECKINS = 1_265


@dataclass
class PersonaRoster:
    """The injected accounts, grouped by role."""

    power_users: List[UserSpec] = field(default_factory=list)
    caught_cheaters: List[UserSpec] = field(default_factory=list)
    mega_cheater: Optional[UserSpec] = None
    mayor_farmer: Optional[UserSpec] = None

    def all_specs(self) -> List[UserSpec]:
        """Every persona spec."""
        specs = list(self.power_users) + list(self.caught_cheaters)
        if self.mega_cheater is not None:
            specs.append(self.mega_cheater)
        if self.mayor_farmer is not None:
            specs.append(self.mayor_farmer)
        return specs


class CheaterGenerator:
    """Registers persona accounts and synthesizes their event streams."""

    def __init__(
        self,
        service: LbsnService,
        population: PopulationGenerator,
        venues: GeneratedVenues,
        horizon_s: float,
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.service = service
        self.population = population
        self.venues = venues
        self.horizon_s = horizon_s
        #: Every draw comes from this instance — never the module-level
        #: ``random`` functions — so two generators built with the same
        #: seed (or handed the same ``rng``) emit byte-identical event
        #: streams; ring replay and the E26 digests depend on it.
        self._rng = rng if rng is not None else random.Random(seed)

    def generate(
        self, scale_activity: float = 1.0
    ) -> Tuple[PersonaRoster, List[CheckInEvent]]:
        """Create all personas and their events.

        ``scale_activity`` scales per-persona check-in volumes for small
        test worlds (persona *counts* stay fixed; see the module docstring).
        """
        if scale_activity <= 0:
            raise ReproError(f"scale_activity must be positive: {scale_activity}")
        roster = PersonaRoster()
        events: List[CheckInEvent] = []
        for index in range(POWER_USER_COUNT):
            spec, user_events = self._power_user(index, scale_activity)
            roster.power_users.append(spec)
            events.extend(user_events)
        for index in range(CAUGHT_CHEATER_COUNT):
            spec, user_events = self._caught_cheater(index, scale_activity)
            roster.caught_cheaters.append(spec)
            events.extend(user_events)
        roster.mega_cheater, mega_events = self._mega_cheater(scale_activity)
        events.extend(mega_events)
        roster.mayor_farmer, farmer_events = self._mayor_farmer(scale_activity)
        events.extend(farmer_events)
        return roster, events

    # Power users ----------------------------------------------------------

    def _power_user(
        self, index: int, scale_activity: float
    ) -> Tuple[UserSpec, List[CheckInEvent]]:
        """A hyperactive but honest-looking account in one city.

        Checks into a rotating roster of neighbourhood venues many times a
        day, spaced far beyond every cheater-code trigger; ends up mayor of
        tens of venues because nobody else matches the daily cadence.
        """
        home = US_CITIES[index % len(US_CITIES)]
        target = int(max(100, (5_200 + 350 * index) * scale_activity))
        spec = self.population.register_persona(
            Persona.POWER_USER, home, target, display_name=f"Power User {index + 1}"
        )
        pool = self._city_pool(home.name)
        roster_size = min(len(pool), max(10, 40 + 8 * index))
        roster = self._rng.sample(pool, roster_size)

        events: List[CheckInEvent] = []
        per_day = 14.0
        start = max(0.0, self.horizon_s - (target / per_day) * SECONDS_PER_DAY)
        timestamp = start
        venue_cursor = self._rng.randrange(roster_size)
        while len(events) < target and timestamp < self.horizon_s:
            venue_cursor = (venue_cursor + 1) % roster_size
            events.append(
                CheckInEvent(timestamp, spec.user_id, roster[venue_cursor])
            )
            # ~14/day: 45-140 minute spacing through the waking day.
            timestamp += self._rng.uniform(45.0, 140.0) * 60.0
        return spec, events

    # Caught cheaters ----------------------------------------------------------

    def _caught_cheater(
        self, index: int, scale_activity: float
    ) -> Tuple[UserSpec, List[CheckInEvent]]:
        """A brute-force teleporter the cheater code catches.

        Checks into venues in random cities nationwide at sub-hour
        intervals; nearly every attempt trips the super-human-speed rule,
        so the total climbs while rewards stay flat (§4.2).
        """
        home = US_CITIES[(index * 3 + 1) % len(US_CITIES)]
        if index == 0:
            target = int(max(120, TOP_CHEATER_CHECKINS * scale_activity))
        else:
            target = int(max(100, (5_600 + 900 * index) * scale_activity))
        spec = self.population.register_persona(
            Persona.CAUGHT_CHEATER,
            home,
            target,
            display_name=f"Brute Cheater {index + 1}",
        )
        city_pools = [
            (name, pool)
            for name, pool in self.venues.venue_ids_by_city.items()
            if pool
        ]
        if not city_pools:
            city_pools = [("anywhere", self.venues.venue_ids)]

        events: List[CheckInEvent] = []
        # Pace the campaign to finish just inside the horizon (the top
        # cheater needs ~25 attempts/day to reach 12,500).
        horizon_days = self.horizon_s / SECONDS_PER_DAY
        per_day = max(18.0, target / max(1.0, horizon_days * 0.9))
        mean_gap_s = SECONDS_PER_DAY / per_day
        start = max(0.0, self.horizon_s - (target / per_day) * SECONDS_PER_DAY)
        timestamp = start
        while len(events) < target and timestamp < self.horizon_s:
            _, pool = city_pools[self._rng.randrange(len(city_pools))]
            events.append(
                CheckInEvent(timestamp, spec.user_id, self._rng.choice(pool))
            )
            timestamp += self._rng.uniform(0.7, 1.3) * mean_gap_s
        return spec, events

    # The Fig 4.3 mega cheater ------------------------------------------------

    def _mega_cheater(
        self, scale_activity: float
    ) -> Tuple[UserSpec, List[CheckInEvent]]:
        """A careful spoofing cheater touring 30+ cities in under a year.

        Stays days per "visited" city and keeps check-ins spaced, so the
        cheater code passes them; the geographic scatter (US coast to
        coast, Alaska, Europe) is the Fig 4.3 signature.
        """
        home = city_by_name("New York, NY")
        tour: List[str] = []
        for city in US_CITIES:
            tour.append(city.name)
        tour.extend(["Alaska", "Hawaii"])
        for city in EUROPEAN_CITIES:
            tour.append(city.name)
        self._rng.shuffle(tour)

        target = int(max(150, 2_200 * scale_activity))
        spec = self.population.register_persona(
            Persona.MEGA_CHEATER, home, target, display_name="Globe Trotter"
        )
        start = max(0.0, self.horizon_s - 350.0 * SECONDS_PER_DAY)
        events: List[CheckInEvent] = []
        timestamp = start
        cursor = 0
        # City coverage is the persona's defining trait (Fig 4.3: "over 30
        # different cities"), so the per-city stay shrinks with the target
        # rather than the tour shrinking: even a low-activity variant still
        # touches the whole tour list.
        per_city = max(2, target // len(tour))
        while len(events) < target and timestamp < self.horizon_s:
            city_name = tour[cursor % len(tour)]
            cursor += 1
            pool = self.venues.venue_ids_by_city.get(city_name) or self._city_pool(
                city_name
            )
            for _ in range(per_city):
                if len(events) >= target or timestamp >= self.horizon_s:
                    break
                events.append(
                    CheckInEvent(timestamp, spec.user_id, self._rng.choice(pool))
                )
                timestamp += self._rng.uniform(2.0, 6.0) * SECONDS_PER_HOUR
            # Inter-city travel gap long enough for any distance on Earth
            # at the speed threshold.
            timestamp += self._rng.uniform(2.0, 4.0) * SECONDS_PER_DAY
        return spec, events

    # The §3.4 mayor farmer -----------------------------------------------------

    def _mayor_farmer(
        self, scale_activity: float
    ) -> Tuple[UserSpec, List[CheckInEvent]]:
        """One check-in per deserted venue, harvested along a country snake.

        Visits small-town venues (which organic users almost never touch)
        once each over the final weeks before the crawl, so a single
        check-in wins each mayorship and all of them are still inside the
        60-day window at analysis time.
        """
        home = city_by_name("Lincoln, NE")
        distinct_target = int(max(30, FARMER_TARGET_MAYORSHIPS * scale_activity))
        total_target = int(max(40, FARMER_TOTAL_CHECKINS * scale_activity))
        spec = self.population.register_persona(
            Persona.MAYOR_FARMER, home, total_target, display_name="Mayor Farmer"
        )
        pool = list(self.venues.small_town_venue_ids)
        if not pool:
            pool = list(self.venues.venue_ids)
        # Farm the deserted venues NEAREST home: the campaign must fit
        # inside the 60-day mayorship window, so total travel distance —
        # not venue count — is the binding constraint.
        from repro.geo.distance import haversine_m

        def distance_from_home(venue_id: int) -> float:
            venue = self.service.store.get_venue(venue_id)
            if venue is None:
                return float("inf")
            return haversine_m(home.center, venue.location)

        pool.sort(key=distance_from_home)
        targets = pool[: min(distinct_target, len(pool))]
        targets = self._snake_order(targets)

        # Repeats (total - distinct) are a SECOND geographic sweep over a
        # prefix of the same snake: revisits land many hours after the
        # first pass (no frequent-rule rejections) and hops stay short, so
        # the whole campaign fits inside the 60-day mayorship window.
        plan: List[int] = list(targets)
        repeats = max(0, total_target - len(targets))
        plan.extend(targets[: min(repeats, len(targets))])

        # Hop gaps are distance-aware: at a simulated 45 m/s (~100 mph,
        # comfortably under the speed-rule threshold) plus a minimum dwell,
        # so no hop along the snake trips the super-human-speed rule.
        gaps: List[float] = []
        total_span = 0.0
        previous_location = None
        for venue_id in plan:
            venue = self.service.store.get_venue(venue_id)
            gap = 20.0 * 60.0
            if previous_location is not None and venue is not None:
                from repro.geo.distance import haversine_m

                gap += haversine_m(previous_location, venue.location) / 45.0
            if venue is not None:
                previous_location = venue.location
            gaps.append(gap)
            total_span += gap
        start = max(0.0, self.horizon_s - total_span - 2.0 * SECONDS_PER_DAY)
        events: List[CheckInEvent] = []
        timestamp = start
        for venue_id, gap in zip(plan, gaps):
            timestamp += gap
            if timestamp >= self.horizon_s:
                break
            events.append(CheckInEvent(timestamp, spec.user_id, venue_id))
        return spec, events

    # Helpers ---------------------------------------------------------------

    def _city_pool(self, city_name: str) -> List[int]:
        pool = self.venues.venue_ids_by_city.get(city_name)
        if pool:
            return pool
        if self.venues.small_town_venue_ids:
            return self.venues.small_town_venue_ids
        if not self.venues.venue_ids:
            raise ReproError("world has no venues")
        return self.venues.venue_ids

    def _snake_order(self, venue_ids: Sequence[int]) -> List[int]:
        """Order venues in 2-degree latitude bands, alternating east/west.

        Keeps consecutive visits geographically adjacent so the farmer's
        implied travel speed stays plausible.
        """
        located = []
        for venue_id in venue_ids:
            venue = self.service.store.get_venue(venue_id)
            if venue is not None:
                located.append((venue.location, venue_id))
        bands: Dict[int, List[Tuple[float, int]]] = {}
        for location, venue_id in located:
            band = int(location.latitude // 2)
            bands.setdefault(band, []).append((location.longitude, venue_id))
        ordered: List[int] = []
        for rank, band in enumerate(sorted(bands)):
            row = sorted(bands[band], reverse=(rank % 2 == 1))
            ordered.extend(venue_id for _, venue_id in row)
        return ordered
