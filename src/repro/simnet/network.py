"""Simulated IP network: endpoints, NAT/proxy/Tor aggregation, latency.

Two chapters of the thesis need an IP layer: §5.1's address-mapping defense
geolocates the client's IP, and §5.2's crawl-control discussion reasons about
blocking IPs behind NATs, proxies, and Tor.  This module models just enough:
every client egress has an :class:`IpAddress`, an egress *kind* (direct, NAT,
proxy, Tor exit), a registered geolocation, and a latency distribution.

Latency calibration: ``Egress.base_latency_s`` defaults to 20 ms one-way
(typical 2010 broadband to a nearby datacenter), doubled into an RTT and
scaled by ``LatencyModel.KIND_MULTIPLIER`` — direct ×1.0, NAT ×1.1,
public proxy ×6.0, Tor ×25.0 — with ±20% uniform jitter.  The proxy and
Tor multipliers are not measured in the thesis; they encode its
*qualitative* §5.2 claims ("crawling behind a public proxy cannot
achieve enough performance", Tor "suffers from limited performance") at
magnitudes consistent with contemporaneous Tor performance studies, and
the E11 crawl-control bench turns them into the reproduced throughput
collapse.  Crawler throughput experiments (E2) therefore reproduce the
*scaling shape* — throughput ∝ threads until transport saturation — not
2010 hardware's absolute pages/hour.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.errors import NetworkError
from repro.geo.coordinates import GeoPoint


class EgressKind(Enum):
    """How a client's traffic reaches the server."""

    DIRECT = "direct"
    NAT = "nat"
    PROXY = "proxy"
    TOR = "tor"


@dataclass(frozen=True)
class IpAddress:
    """A dotted-quad IPv4 address used as an opaque identity."""

    value: str

    def __post_init__(self) -> None:
        parts = self.value.split(".")
        if len(parts) != 4:
            raise NetworkError(f"malformed IPv4 address: {self.value!r}")
        for part in parts:
            if not part.isdigit() or not 0 <= int(part) <= 255:
                raise NetworkError(f"malformed IPv4 address: {self.value!r}")

    def __str__(self) -> str:
        return self.value


@dataclass
class Egress:
    """An egress point: the IP the server sees, plus who shares it."""

    ip: IpAddress
    kind: EgressKind
    #: Where this egress physically is (None when unregistered/unknown).
    location: Optional[GeoPoint] = None
    #: Client identifiers sharing this egress (NATs aggregate a few hosts,
    #: proxies many — Casado & Freedman's observation cited in §5.2).
    clients: List[str] = field(default_factory=list)
    #: Mean one-way latency in (simulated) seconds for traffic via here.
    base_latency_s: float = 0.02

    def add_client(self, client_id: str) -> None:
        """Attach a client to this egress."""
        if client_id not in self.clients:
            self.clients.append(client_id)


class IpAllocator:
    """Deterministic allocator of unique IPv4 addresses from a seed."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._used: set = set()
        self._lock = threading.Lock()

    def allocate(self) -> IpAddress:
        """Return a fresh, never-before-returned address."""
        with self._lock:
            while True:
                candidate = "{}.{}.{}.{}".format(
                    self._rng.randint(1, 223),
                    self._rng.randint(0, 255),
                    self._rng.randint(0, 255),
                    self._rng.randint(1, 254),
                )
                if candidate not in self._used:
                    self._used.add(candidate)
                    return IpAddress(candidate)


class GeoIpRegistry:
    """IP-to-location database, the substrate of the address-mapping defense.

    Real GeoIP data is coarse; the registry models that with a configurable
    error radius the defense must tolerate.
    """

    def __init__(self, typical_error_m: float = 25_000.0) -> None:
        self._locations: Dict[str, GeoPoint] = {}
        self._lock = threading.Lock()
        self.typical_error_m = typical_error_m

    def register(self, ip: IpAddress, location: GeoPoint) -> None:
        """Record where an IP is located."""
        with self._lock:
            self._locations[ip.value] = location

    def locate(self, ip: IpAddress) -> Optional[GeoPoint]:
        """Best-known location of ``ip``, or None when unmapped."""
        with self._lock:
            return self._locations.get(ip.value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._locations)


class LatencyModel:
    """Sampled per-request latency: base + jitter, Tor much slower.

    The §5.2 observation that "crawling behind a public proxy cannot achieve
    enough performance" and Tor "suffers from limited performance" is
    reproduced by the multipliers here; the E11 bench measures the resulting
    throughput collapse.
    """

    KIND_MULTIPLIER = {
        EgressKind.DIRECT: 1.0,
        EgressKind.NAT: 1.1,
        EgressKind.PROXY: 6.0,
        EgressKind.TOR: 25.0,
    }

    def __init__(self, seed: int = 0, jitter_fraction: float = 0.2) -> None:
        if not 0.0 <= jitter_fraction < 1.0:
            raise NetworkError(
                f"jitter fraction must be in [0, 1), got {jitter_fraction}"
            )
        self._rng = random.Random(seed)
        self._jitter = jitter_fraction

    def sample_rtt_s(self, egress: Egress) -> float:
        """One round-trip time sample for a request through ``egress``.

        Takes no lock: ``Random.uniform`` makes one ``Random.random()``
        call, which is atomic on its own.
        """
        base = 2.0 * egress.base_latency_s * self.KIND_MULTIPLIER[egress.kind]
        jitter = self._rng.uniform(-self._jitter, self._jitter)
        return max(1e-4, base * (1.0 + jitter))


class Network:
    """The network fabric: allocates egresses and samples request latency."""

    def __init__(self, seed: int = 0) -> None:
        self._ips = IpAllocator(seed=seed)
        self.geoip = GeoIpRegistry()
        self.latency = LatencyModel(seed=seed + 1)
        self._egresses: Dict[str, Egress] = {}
        self._lock = threading.Lock()

    def create_egress(
        self,
        kind: EgressKind = EgressKind.DIRECT,
        location: Optional[GeoPoint] = None,
        register_geoip: bool = True,
    ) -> Egress:
        """Allocate a new egress point with a fresh IP."""
        ip = self._ips.allocate()
        egress = Egress(ip=ip, kind=kind, location=location)
        if register_geoip and location is not None:
            self.geoip.register(ip, location)
        with self._lock:
            self._egresses[ip.value] = egress
        return egress

    def egress_for_ip(self, ip: IpAddress) -> Optional[Egress]:
        """Reverse lookup of an egress by its IP."""
        with self._lock:
            return self._egresses.get(ip.value)
