"""Friend-graph generation.

User profiles expose "a list of friends" (§3.2), and the thesis's §5.2
cites Heatherly et al. and Zheleva & Getoor on inferring private
information from public social data.  The generator builds a
homophily-biased friendship graph — most edges inside a home city, a few
across — which the privacy analysis then tries to *recover* from
co-location observations alone.

The thesis publishes no friend-graph statistics (profiles only *show*
the list), so :class:`SocialGraphConfig` is calibrated for plausibility
rather than to printed numbers — and that difference is deliberately
visible in the defaults: ``mean_degree`` = 4.0 friends per active user,
``same_city_bias`` = 0.85 (the homophily that makes co-location a
usable friendship signal in E13), and ``inactive_degree_factor`` = 0.15
(§4.2's 36.3% never-checked-in accounts are mostly abandoned sign-ups,
so they carry proportionally few edges).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.lbsn.service import LbsnService
from repro.workload.population import UserSpec


@dataclass
class SocialGraphConfig:
    """Shape of the friendship graph."""

    #: Average friends per user with any activity.
    mean_degree: float = 4.0
    #: Probability an edge stays within the home city (homophily).
    same_city_bias: float = 0.85
    #: Inactive (zero-check-in) accounts rarely have friends.
    inactive_degree_factor: float = 0.15


@dataclass
class SocialGraph:
    """The generated friendship edges (symmetric)."""

    edges: Set[Tuple[int, int]]

    @property
    def edge_count(self) -> int:
        """Number of friendship edges."""
        return len(self.edges)

    def are_friends(self, user_a: int, user_b: int) -> bool:
        """Symmetric membership test."""
        key = (min(user_a, user_b), max(user_a, user_b))
        return key in self.edges

    def degree(self, user_id: int) -> int:
        """Number of friends of one user."""
        return sum(1 for a, b in self.edges if user_id in (a, b))


def generate_friend_graph(
    service: LbsnService,
    specs: Sequence[UserSpec],
    config: Optional[SocialGraphConfig] = None,
    seed: int = 0,
) -> SocialGraph:
    """Create friendships and write them onto the user records.

    Edges are sampled per user: mostly to users in the same home city,
    occasionally across cities, scaled down hard for inactive accounts.
    """
    config = config or SocialGraphConfig()
    if config.mean_degree < 0:
        raise ReproError(f"mean degree must be non-negative: {config.mean_degree}")
    rng = random.Random(seed)
    by_city: Dict[str, List[UserSpec]] = {}
    for spec in specs:
        by_city.setdefault(spec.home_city.name, []).append(spec)
    all_specs = list(specs)
    edges: Set[Tuple[int, int]] = set()

    for spec in specs:
        expected = config.mean_degree / 2.0  # each edge adds to two users
        if spec.target_checkins == 0:
            expected *= config.inactive_degree_factor
        count = _poisson(rng, expected)
        local = by_city.get(spec.home_city.name, [])
        for _ in range(count):
            if local and rng.random() < config.same_city_bias and len(local) > 1:
                other = rng.choice(local)
            else:
                other = rng.choice(all_specs)
            if other.user_id == spec.user_id:
                continue
            edges.add(
                (
                    min(spec.user_id, other.user_id),
                    max(spec.user_id, other.user_id),
                )
            )

    for user_a, user_b in edges:
        first = service.store.get_user(user_a)
        second = service.store.get_user(user_b)
        if first is not None and second is not None:
            first.add_friend(user_b)
            second.add_friend(user_a)
    return SocialGraph(edges=edges)


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's Poisson sampler (small lambda)."""
    if lam <= 0:
        return 0
    import math

    threshold = math.exp(-lam)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count
