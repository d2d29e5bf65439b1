"""Observability substrate: metrics, tracing, structured logs, profiling.

``repro.obs`` sits at the bottom of the layer stack next to ``repro.geo``
and ``repro.simnet`` — standard library only, no upward imports — and
every higher layer takes optional observability handles the way the
service takes an optional ``event_bus``:

* :mod:`repro.obs.metrics` — Counter/Gauge/Histogram families in a
  thread-safe :class:`MetricsRegistry`, Prometheus text exposition, and
  the JSON serializer (:func:`registry_to_dict`) behind
  ``repro metrics --format json`` and ``GET /debug/vars``.
* :mod:`repro.obs.tracing` — span durations into the registry plus a
  bounded ring of recent slow spans.
* :mod:`repro.obs.log` — structured JSONL logging: a bounded ring and
  per-logger levels (:class:`LogHub`).
* :mod:`repro.obs.context` — :class:`TraceContext` propagation, so one
  ``trace_id`` links a check-in's log records, bus events, detector
  scores, and defense verdicts end to end.
* :mod:`repro.obs.profiler` — wall-clock sampling profiler walking
  ``sys._current_frames()``: folded stacks per thread, collapsed-format
  export, top-N hotspot tables, :class:`ProfiledSection` phase tags.

Instrumented layers: :mod:`repro.lbsn` (pipeline outcomes, commit spans,
store gauges/locks, per-check-in log records), :mod:`repro.stream` (bus
accounting, detector volume, ledger flags), :mod:`repro.defense`
(verdict counters, check latency), :mod:`repro.crawler` (fetch outcomes
and latency).  ``docs/OBSERVABILITY.md`` catalogues every metric name; a
test holds that catalogue and the code in parity.
"""

from repro.obs.context import (
    TraceContext,
    current_trace,
    set_current_trace,
    use_trace,
)
from repro.obs.log import (
    DEBUG,
    ERROR,
    INFO,
    WARNING,
    LogError,
    LogHub,
    LogRecord,
    StructuredLogger,
    level_name,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    default_registry,
    registry_to_dict,
    registry_to_json,
)
from repro.obs.profiler import (
    ProfiledSection,
    ProfileSnapshot,
    ProfilerError,
    SamplingProfiler,
    fold_stack,
)
from repro.obs.tracing import SPAN_HISTOGRAM_NAME, SpanRecord, Tracer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "default_registry",
    "registry_to_dict",
    "registry_to_json",
    "SPAN_HISTOGRAM_NAME",
    "SpanRecord",
    "Tracer",
    "TraceContext",
    "current_trace",
    "set_current_trace",
    "use_trace",
    "DEBUG",
    "INFO",
    "WARNING",
    "ERROR",
    "LogError",
    "LogHub",
    "LogRecord",
    "StructuredLogger",
    "level_name",
    "ProfiledSection",
    "ProfileSnapshot",
    "ProfilerError",
    "SamplingProfiler",
    "fold_stack",
]
