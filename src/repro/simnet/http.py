"""A minimal simulated HTTP layer.

The crawler in §3.2 "sent HTTP Get to this URL and got the HTML source code
from the server's response".  We reproduce that boundary faithfully: the web
server renders real HTML strings, the crawler issues :class:`HttpRequest`
objects through a :class:`HttpTransport`, and everything in between (status
codes, middleware such as the crawl-control defense, injected faults) is
observable.  A blocking transport sleeps each request's sampled round-trip;
a non-blocking one charges no latency at all.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Pattern, Tuple

from repro.errors import HttpError, NetworkError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind
from repro.faults.points import POINT_SIMNET_REQUEST
from repro.simnet.network import Egress, Network

HTTP_OK = 200
HTTP_FOUND = 302
HTTP_BAD_REQUEST = 400
HTTP_UNAUTHORIZED = 401
HTTP_FORBIDDEN = 403
HTTP_NOT_FOUND = 404
HTTP_TOO_MANY_REQUESTS = 429
HTTP_SERVER_ERROR = 500
HTTP_GATEWAY_TIMEOUT = 504


@dataclass(frozen=True)
class HttpRequest:
    """One GET/POST request as seen by the server."""

    method: str
    path: str
    client_ip: str
    headers: Dict[str, str] = field(default_factory=dict)
    params: Dict[str, str] = field(default_factory=dict)
    #: Simulated time the request arrived (filled by the transport).
    timestamp: float = 0.0

    def header(self, name: str, default: str = "") -> str:
        """Case-insensitive header lookup."""
        for key, value in self.headers.items():
            if key.lower() == name.lower():
                return value
        return default


@dataclass
class HttpResponse:
    """The server's reply: status, body, headers."""

    status: int = HTTP_OK
    body: str = ""
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True for 2xx statuses."""
        return 200 <= self.status < 300

    def raise_for_status(self) -> "HttpResponse":
        """Raise :class:`HttpError` on non-2xx, else return self."""
        if not self.ok:
            raise HttpError(self.status, f"HTTP {self.status} for request")
        return self


Handler = Callable[[HttpRequest, "re.Match[str]"], HttpResponse]
Middleware = Callable[[HttpRequest], Optional[HttpResponse]]


class Router:
    """Regex-based path router, like any small web framework."""

    def __init__(self) -> None:
        self._routes: List[Tuple[str, Pattern[str], Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        """Register ``handler`` for ``method`` requests matching ``pattern``.

        ``pattern`` is a full-match regular expression over the path.
        """
        self._routes.append((method.upper(), re.compile(pattern), handler))

    def dispatch(self, request: HttpRequest) -> HttpResponse:
        """Route a request; 404 when nothing matches."""
        for method, pattern, handler in self._routes:
            if method != request.method.upper():
                continue
            match = pattern.fullmatch(request.path)
            if match:
                return handler(request, match)
        return HttpResponse(status=HTTP_NOT_FOUND, body="Not Found")


class HttpTransport:
    """Connects clients to a :class:`Router` through the simulated network.

    Middleware (e.g. the crawl-control defense) runs before routing and may
    short-circuit with its own response — that is how login walls and IP
    blocks are injected without the server handlers knowing.
    """

    def __init__(
        self,
        router: Router,
        network: Network,
        clock=None,
        blocking: bool = False,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self._router = router
        self._network = network
        self._clock = clock
        self._middleware: List[Middleware] = []
        #: Optional fault injector consulted once per request at
        #: ``simnet.request``: LATENCY faults add to the round-trip a
        #: blocking transport sleeps, ERROR faults raise (``spec.error`` or
        #: :class:`~repro.errors.NetworkError` — packet loss), HTTP
        #: faults short-circuit into a response with ``spec.status``.
        self.faults = faults
        #: When True, each request really sleeps its sampled round-trip
        #: time, so multi-threaded clients overlap network waits exactly as
        #: they would against a remote server — the effect the E2 crawler
        #: thread-scaling experiment measures.
        self.blocking = blocking

    def add_middleware(self, middleware: Middleware) -> None:
        """Install a pre-routing hook (first installed runs first)."""
        self._middleware.append(middleware)

    def request(
        self,
        method: str,
        path: str,
        egress: Egress,
        headers: Optional[Dict[str, str]] = None,
        params: Optional[Dict[str, str]] = None,
    ) -> HttpResponse:
        """Issue one request through ``egress`` and return the response.

        A blocking transport sleeps a sampled round-trip, plus any
        injected LATENCY fault, in wall time; a non-blocking one draws no
        sample and sleeps nothing.  Neither advances the shared simulated
        clock, so concurrent crawler threads do not fight over global time.
        """
        if egress is None:
            raise NetworkError("request needs an egress")
        injected_latency = 0.0
        injected: Optional[HttpResponse] = None
        if self.faults is not None:
            decision = self.faults.decide(
                POINT_SIMNET_REQUEST, label=egress.ip.value
            )
            if decision is not None:
                injected_latency = decision.latency_s
                if decision.kind is FaultKind.ERROR:
                    error = decision.spec.error or NetworkError
                    raise error(
                        f"injected network loss for {method} {path} "
                        f"(fire #{decision.fire_index})"
                    )
                if decision.kind is FaultKind.HTTP:
                    injected = HttpResponse(
                        status=decision.status,
                        body=f"injected HTTP {decision.status}",
                    )
        if self.blocking:
            time.sleep(
                self._network.latency.sample_rtt_s(egress) + injected_latency
            )
        timestamp = self._clock.now() if self._clock is not None else 0.0
        request = HttpRequest(
            method=method,
            path=path,
            client_ip=egress.ip.value,
            headers=dict(headers or {}),
            params=dict(params or {}),
            timestamp=timestamp,
        )
        response: Optional[HttpResponse] = injected
        if response is None:
            for middleware in self._middleware:
                response = middleware(request)
                if response is not None:
                    break
        if response is None:
            response = self._router.dispatch(request)
        return response

    def get(self, path: str, egress: Egress, **kwargs) -> HttpResponse:
        """Convenience GET."""
        return self.request("GET", path, egress, **kwargs)

    def post(self, path: str, egress: Egress, **kwargs) -> HttpResponse:
        """Convenience POST."""
        return self.request("POST", path, egress, **kwargs)
