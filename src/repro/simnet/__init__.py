"""Simulation substrate: controllable clock, IDs, IP network, HTTP layer."""

from repro.simnet.clock import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_MINUTE,
    SIM_EPOCH_LABEL,
    ClockError,
    SimClock,
    day_index,
)
from repro.simnet.http import (
    HTTP_FORBIDDEN,
    HTTP_NOT_FOUND,
    HTTP_OK,
    HTTP_TOO_MANY_REQUESTS,
    HTTP_UNAUTHORIZED,
    HttpRequest,
    HttpResponse,
    HttpTransport,
    Router,
)
from repro.simnet.ids import IdExhaustedError, SequentialIdAllocator
from repro.simnet.network import (
    Egress,
    EgressKind,
    GeoIpRegistry,
    IpAddress,
    IpAllocator,
    LatencyModel,
    Network,
)

__all__ = [
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_MINUTE",
    "SIM_EPOCH_LABEL",
    "ClockError",
    "SimClock",
    "day_index",
    "HTTP_FORBIDDEN",
    "HTTP_NOT_FOUND",
    "HTTP_OK",
    "HTTP_TOO_MANY_REQUESTS",
    "HTTP_UNAUTHORIZED",
    "HttpRequest",
    "HttpResponse",
    "HttpTransport",
    "Router",
    "IdExhaustedError",
    "SequentialIdAllocator",
    "Egress",
    "EgressKind",
    "GeoIpRegistry",
    "IpAddress",
    "IpAllocator",
    "LatencyModel",
    "Network",
]
