"""The public website: HTML profile pages for users and venues (§3.2).

The crawl is only possible because profile pages are public, addressed by
incrementing numeric IDs, and contain machine-extractable structure.  This
renderer reproduces all three properties: ``/user/<id>`` (plus the
``/user/<username>`` variant only ~26% of users have) and ``/venue/<id>``
pages whose markup the crawler's regular expressions pick apart, exactly as
the thesis's C# crawler did.

Two defense hooks are built in:

* ``show_whos_been_here`` — Foursquare removed the "Who's been here" section
  right after the thesis's crawl finished (§6.2.1); setting this False
  reproduces the post-patch site.
* ``visitor_obfuscator`` — §5.2 suggests hashing user IDs in the recent
  check-in list; when installed, the rendered visitor references are opaque
  tokens instead of crawlable ``/user/<id>`` links.

Operational routes ride along: when the service (or the constructor)
carries a :class:`~repro.obs.MetricsRegistry`, ``GET /metrics`` serves the
registry in Prometheus text exposition format (with the standard
``version=0.0.4`` content type and an explicit ``Content-Length``), so the
same simulated HTTP surface the crawler attacks also exposes the telemetry
an operator would scrape.  Three debug routes complete the picture:

* ``GET /debug/vars`` — the whole registry as JSON (the
  :func:`~repro.obs.metrics.registry_to_dict` shape shared with
  ``repro metrics --format json``).
* ``GET /debug/traces`` — the service tracer's retained slow spans, each
  with its ``trace_id`` when the instrumented layer propagated one.
* ``GET /debug/logs?trace_id=&logger=&event=&limit=`` — the structured
  log ring as JSONL, filterable by the same keys
  :meth:`repro.obs.log.LogHub.records` takes; ``?trace_id=`` is the
  one-request flight-recorder query the obs layer exists for.  A
  ``limit`` that is not a non-negative integer answers 400.

When a :class:`~repro.obs.profiler.SamplingProfiler` is attached, one
more route joins:

* ``GET /debug/profile`` — the profiler snapshot as JSON, or the raw
  Brendan-Gregg collapsed-stack text with ``?format=collapsed`` (pipe it
  straight into a flamegraph renderer).
"""

from __future__ import annotations

import html
import json
from typing import Callable, Optional

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind
from repro.faults.points import POINT_WEB_REQUEST
from repro.lbsn.models import User, Venue
from repro.lbsn.service import LbsnService
from repro.obs.log import LogHub
from repro.obs.metrics import MetricsRegistry, registry_to_dict
from repro.obs.profiler import SamplingProfiler
from repro.simnet.http import (
    HTTP_BAD_REQUEST,
    HTTP_GATEWAY_TIMEOUT,
    HTTP_NOT_FOUND,
    HttpRequest,
    HttpResponse,
    Router,
)

VisitorObfuscator = Callable[[int], str]

#: Path prefixes the fault middleware never degrades: observability must
#: stay readable precisely while the service is failing.
FAULT_EXEMPT_PREFIXES = ("/metrics", "/debug/")

#: Content type of the Prometheus text exposition format (the scrape
#: protocol requires the charset parameter).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Content type of the JSON debug routes.
JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Content type of the JSONL ``/debug/logs`` route.
JSONL_CONTENT_TYPE = "application/x-ndjson; charset=utf-8"

#: Content type of the collapsed-stack ``/debug/profile?format=collapsed``
#: export (plain folded lines, flamegraph-tool ready).
COLLAPSED_CONTENT_TYPE = "text/plain; charset=utf-8"


class LbsnWebServer:
    """Renders the service's state as public HTML pages."""

    def __init__(
        self,
        service: LbsnService,
        show_whos_been_here: bool = True,
        visitor_obfuscator: Optional[VisitorObfuscator] = None,
        metrics: Optional[MetricsRegistry] = None,
        log: Optional[LogHub] = None,
        faults: Optional[FaultInjector] = None,
        profiler: Optional[SamplingProfiler] = None,
    ) -> None:
        self.service = service
        self.show_whos_been_here = show_whos_been_here
        self.visitor_obfuscator = visitor_obfuscator
        #: Registry served at ``/metrics``; defaults to the service's own.
        self.metrics = metrics if metrics is not None else service.metrics
        #: Log hub served at ``/debug/logs``; defaults to the service's own.
        self.log = log if log is not None else service.log
        #: Optional fault injector behind :meth:`fault_middleware`;
        #: defaults to the service's own.
        self.faults = faults if faults is not None else getattr(
            service, "faults", None
        )
        #: Profiler behind ``/debug/profile`` (opt-in, no service default).
        self.profiler = profiler

    def install_routes(self, router: Router) -> None:
        """Attach the site's routes (and ``/metrics`` when instrumented)."""
        router.add("GET", r"/user/(?P<ident>[A-Za-z0-9_\-]+)", self._user_page)
        router.add("GET", r"/venue/(?P<venue_id>\d+)", self._venue_page)
        if self.metrics is not None:
            router.add("GET", r"/metrics", self._metrics_page)
            router.add("GET", r"/debug/vars", self._debug_vars)
        if self.service.tracer is not None:
            router.add("GET", r"/debug/traces", self._debug_traces)
        if self.log is not None:
            router.add("GET", r"/debug/logs", self._debug_logs)
        if self.profiler is not None:
            router.add("GET", r"/debug/profile", self._debug_profile)

    # Fault middleware ------------------------------------------------------

    def fault_middleware(
        self,
    ) -> Callable[[HttpRequest], Optional[HttpResponse]]:
        """A transport middleware firing the ``web.request`` point.

        Install on the :class:`~repro.simnet.http.HttpTransport` in front
        of routing.  Per fired fault: HTTP specs short-circuit with their
        status, ERROR specs answer 500, LATENCY specs charge the
        service's simulated clock and answer 504 Gateway Timeout.
        ``/metrics`` and ``/debug/*`` are exempt — observability must not
        degrade with the service (the chaos suite pins this).
        """

        def middleware(request: HttpRequest) -> Optional[HttpResponse]:
            faults = self.faults
            if faults is None:
                return None
            path = request.path
            for prefix in FAULT_EXEMPT_PREFIXES:
                if path.startswith(prefix):
                    return None
            decision = faults.decide(POINT_WEB_REQUEST, label=path)
            if decision is None:
                return None
            if decision.latency_s > 0:
                self.service.clock.advance(decision.latency_s)
            if decision.kind is FaultKind.LATENCY:
                return HttpResponse(
                    status=HTTP_GATEWAY_TIMEOUT,
                    body="injected timeout",
                )
            status = decision.status if (
                decision.kind is FaultKind.HTTP
            ) else 500
            return HttpResponse(
                status=status, body=f"injected HTTP {status}"
            )

        return middleware

    # Page handlers --------------------------------------------------------

    def _metrics_page(self, request: HttpRequest, match) -> HttpResponse:
        body = self.metrics.render_text()
        return HttpResponse(
            body=body,
            headers={
                "Content-Type": METRICS_CONTENT_TYPE,
                "Content-Length": str(len(body.encode("utf-8"))),
            },
        )

    # Debug routes ---------------------------------------------------------

    def _debug_vars(self, request: HttpRequest, match) -> HttpResponse:
        body = json.dumps(registry_to_dict(self.metrics), sort_keys=True)
        return HttpResponse(
            body=body,
            headers={
                "Content-Type": JSON_CONTENT_TYPE,
                "Content-Length": str(len(body.encode("utf-8"))),
            },
        )

    def _debug_traces(self, request: HttpRequest, match) -> HttpResponse:
        tracer = self.service.tracer
        records = [] if tracer is None else tracer.recent_slow()
        body = json.dumps(
            {
                "slow_threshold_s": (
                    tracer.slow_threshold_s if tracer is not None else None
                ),
                "spans": [record.to_dict() for record in records],
            }
        )
        return HttpResponse(
            body=body,
            headers={
                "Content-Type": JSON_CONTENT_TYPE,
                "Content-Length": str(len(body.encode("utf-8"))),
            },
        )

    def _debug_logs(self, request: HttpRequest, match) -> HttpResponse:
        params = request.params
        limit: Optional[int] = None
        if params.get("limit"):
            if not params["limit"].isdecimal():
                return HttpResponse(
                    status=HTTP_BAD_REQUEST,
                    body="limit must be a non-negative integer",
                )
            limit = int(params["limit"])
        records = self.log.records(
            trace_id=params.get("trace_id") or None,
            logger=params.get("logger") or None,
            event=params.get("event") or None,
            limit=limit,
        )
        body = self.log.export_jsonl(records)
        return HttpResponse(
            body=body,
            headers={
                "Content-Type": JSONL_CONTENT_TYPE,
                "Content-Length": str(len(body.encode("utf-8"))),
            },
        )

    def _debug_profile(self, request: HttpRequest, match) -> HttpResponse:
        snapshot = self.profiler.snapshot()
        if request.params.get("format") == "collapsed":
            body = snapshot.collapsed()
            content_type = COLLAPSED_CONTENT_TYPE
        else:
            body = json.dumps(snapshot.to_dict(), sort_keys=True)
            content_type = JSON_CONTENT_TYPE
        return HttpResponse(
            body=body,
            headers={
                "Content-Type": content_type,
                "Content-Length": str(len(body.encode("utf-8"))),
            },
        )

    def _user_page(self, request: HttpRequest, match) -> HttpResponse:
        ident = match.group("ident")
        if ident.isdigit():
            user = self.service.store.get_user(int(ident))
        else:
            user = self.service.store.get_user_by_username(ident)
        if user is None:
            return HttpResponse(status=HTTP_NOT_FOUND, body="No such user")
        return HttpResponse(body=self.render_user(user))

    def _venue_page(self, request: HttpRequest, match) -> HttpResponse:
        venue = self.service.store.get_venue(int(match.group("venue_id")))
        if venue is None:
            return HttpResponse(status=HTTP_NOT_FOUND, body="No such venue")
        return HttpResponse(body=self.render_venue(venue))

    # Renderers --------------------------------------------------------------

    def render_user(self, user: User) -> str:
        """The public user profile page.

        Mayorships and full check-in history are deliberately absent — the
        thesis notes they "are hidden from the public, since these two types
        of information may expose his/her location privacy" — so the crawler
        must *infer* them from venue pages.
        """
        name = html.escape(user.display_name)
        username_row = (
            f'<div class="username">@{html.escape(user.username)}</div>'
            if user.username
            else ""
        )
        badges = "".join(
            f'<li class="badge">{html.escape(badge)}</li>'
            for badge in sorted(user.badges)
        )
        friends = "".join(
            f'<a class="friend" href="/user/{friend_id}">user {friend_id}</a>'
            for friend_id in sorted(user.friends)
        )
        return f"""<!DOCTYPE html>
<html><head><title>{name} on SimSquare</title></head>
<body>
<div class="profile" data-user-id="{user.user_id}">
  <h1 class="fn">{name}</h1>
  {username_row}
  <div class="homecity">{html.escape(user.home_city)}</div>
  <div class="stats">
    <span class="checkin-count">{user.total_checkins}</span> check-ins
    <span class="badge-count">{user.badge_count}</span> badges
    <span class="points">{user.points}</span> points
  </div>
  <ul class="badges">{badges}</ul>
  <div class="friends">{friends}</div>
</div>
</body></html>"""

    def render_venue(self, venue: Venue) -> str:
        """The public venue page, including mayor link and recent visitors."""
        name = html.escape(venue.name)
        mayor_html = (
            f'<a class="mayor" href="/user/{venue.mayor_id}">'
            f"user {venue.mayor_id}</a>"
            if venue.mayor_id is not None
            else '<span class="mayor none">No mayor yet</span>'
        )
        special_html = ""
        if venue.special is not None:
            kind = "mayor-only" if venue.special.mayor_only else "unlocked"
            special_html = (
                f'<div class="special {kind}">'
                f"{html.escape(venue.special.description)}</div>"
            )
        visitors_html = ""
        if self.show_whos_been_here:
            entries = []
            for user_id in venue.recent_visitors:
                if self.visitor_obfuscator is not None:
                    token = html.escape(self.visitor_obfuscator(user_id))
                    entries.append(f'<span class="visitor">{token}</span>')
                else:
                    entries.append(
                        f'<a class="visitor" href="/user/{user_id}">'
                        f"user {user_id}</a>"
                    )
            visitors_html = (
                '<div class="whos-been-here"><h2>Who\'s been here</h2>'
                + "".join(entries)
                + "</div>"
            )
        tips = "".join(
            f'<li class="tip" data-author="{tip.author_id}">'
            f"{html.escape(tip.text)}</li>"
            for tip in venue.tips
        )
        return f"""<!DOCTYPE html>
<html><head><title>{name} on SimSquare</title></head>
<body>
<div class="venue" data-venue-id="{venue.venue_id}">
  <h1 class="venue-name">{name}</h1>
  <div class="address">{html.escape(venue.address)}</div>
  <div class="city">{html.escape(venue.city)}</div>
  <div class="geo">
    <span class="latitude">{venue.location.latitude:.6f}</span>
    <span class="longitude">{venue.location.longitude:.6f}</span>
  </div>
  <div class="stats">
    <span class="checkins-here">{venue.checkin_count}</span> check-ins from
    <span class="unique-visitors">{venue.unique_visitor_count}</span> visitors
  </div>
  <div class="mayor-box">{mayor_html}</div>
  {special_html}
  {visitors_html}
  <ul class="tips">{tips}</ul>
</div>
</body></html>"""
