"""The canonical failure-point catalogue.

A *failure point* is a named place in the codebase where a
:class:`~repro.faults.FaultPlan` may fire: the layer asks its injector
"does anything go wrong here, now?" and either proceeds, slows down, or
fails with a typed error.  The names below are the complete set the
library wires; ``docs/RESILIENCE.md`` documents each one and a two-way
parity test keeps that table and this module identical.

Keeping the catalogue in one dependency-free module means every layer
(and the docs test) imports the same constants — no stringly-typed
drift between the injector, the wiring sites, and the chaos suite.
"""

from __future__ import annotations

from typing import Dict

#: One page fetch by :class:`repro.crawler.fetcher.PageFetcher` — fires
#: as fetch errors or slow responses before the HTTP attempt.
POINT_CRAWLER_FETCH = "crawler.fetch"

#: One request through :class:`repro.simnet.http.HttpTransport` — fires
#: as packet loss (a :class:`~repro.errors.NetworkError`), added latency,
#: or a transport-level error response.
POINT_SIMNET_REQUEST = "simnet.request"

#: One event delivery to one :class:`repro.stream.bus.EventBus`
#: subscriber — fires as a subscriber exception (isolated and counted by
#: the bus) or a slow callback.  ``label`` is the subscriber name, so a
#: plan can target a single victim subscriber.
POINT_STREAM_SUBSCRIBER = "stream.subscriber"

#: One committed check-in in :meth:`repro.lbsn.store.DataStore.
#: add_checkin_committed` — fires as a typed
#: :class:`~repro.errors.CommitContentionError` *before* any table row
#: mutates, so a fired commit fault never leaves partial state.
POINT_STORE_COMMIT = "store.commit"

#: One event applied by a :class:`repro.durable.worker.DetectorWorker` —
#: fires *after* the WAL append and *before* detector state mutates, so a
#: fired fault crashes the worker (in-memory ledger discarded) while the
#: durable intake stays complete.  ``label`` is the partition name
#: (``partition-NN``), so a plan can kill a single victim worker.
POINT_DURABLE_WORKER = "durable.worker"

#: One public web request served by :class:`repro.lbsn.webserver.
#: LbsnWebServer`'s fault middleware — fires as an injected 5xx or a
#: timeout (504 after the latency charge).  ``/metrics`` and ``/debug/*``
#: are exempt: observability must not degrade with the service.
POINT_WEB_REQUEST = "web.request"

#: name → one-line description; the docs parity test renders this table.
FAILURE_POINTS: Dict[str, str] = {
    POINT_CRAWLER_FETCH: (
        "One crawler page fetch: fetch errors or slow responses."
    ),
    POINT_SIMNET_REQUEST: (
        "One simulated HTTP request: loss (NetworkError) or latency shaping."
    ),
    POINT_STREAM_SUBSCRIBER: (
        "One bus delivery to one subscriber (label = subscriber name): "
        "callback exceptions or slow consumers."
    ),
    POINT_STORE_COMMIT: (
        "One check-in commit: typed CommitContentionError before any "
        "row mutates (atomic abort)."
    ),
    POINT_DURABLE_WORKER: (
        "One event applied by a partitioned detector worker (label = "
        "partition-NN): crashes the worker after the WAL append, before "
        "detector state mutates."
    ),
    POINT_WEB_REQUEST: (
        "One public web request: injected 5xx or 504 timeout; /metrics "
        "and /debug/* are exempt."
    ),
}
