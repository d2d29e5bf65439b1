"""A dependency-free, thread-safe metrics registry.

The paper's method is *measurement*: reverse-engineering the cheater code
by watching how the service reacts (§4).  Running that method against our
own reproduction — and optimizing the ROADMAP's "fast as the hardware
allows" hot paths — needs the same discipline turned inward, so every
layer of the system (service, store, event bus, detectors, crawler)
accepts an optional :class:`MetricsRegistry` and reports what it is doing.

Three metric kinds, deliberately mirroring the Prometheus data model so
the text exposition (:meth:`MetricsRegistry.render_text`) is scrapeable by
standard tooling:

* :class:`Counter` — a monotonically increasing total (events published,
  pages fetched, check-ins denied per rule).
* :class:`Gauge` — a value that goes up and down (entity counts, current
  suspects).
* :class:`Histogram` — an observation distribution over fixed buckets
  (latencies: commit time, lock hold time, fetch time, span durations).

:func:`registry_to_dict` (and :func:`registry_to_json`) serialize the same
registry as JSON: the one shape behind ``repro metrics --format json`` and
the ``GET /debug/vars`` route.

Every metric is a *family* that may carry label names; ``labels(...)``
returns (creating on first use) the child holding the actual value, so
``bus_delivered.labels(subscriber="ledger").inc()`` is the idiom throughout.
Families without label names expose the child API directly
(``published.inc()``).

Design constraints:

1. **Zero cost when absent.**  Instrumented components take
   ``metrics: Optional[MetricsRegistry] = None`` (mirroring the
   ``event_bus`` injection pattern) and skip all accounting when ``None``.
2. **Cheap when present.**  A child increment is one lock acquisition and
   one float add; the E20 bench holds the instrumented check-in pipeline
   to <5% throughput overhead.
3. **Thread-safe everywhere.**  The service, publishing threads, and 40+
   crawler threads all record concurrently; every child guards its state
   with its own lock, and family/registry dictionaries are guarded
   separately.
4. **No dependencies.**  Standard library only.
"""

from __future__ import annotations

import bisect
import json
import math
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

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
    "render_labels",
]


class MetricError(ReproError):
    """Misuse of the metrics API (bad names, kind clashes, label clashes)."""


#: Fixed latency buckets (seconds) shared by every duration histogram:
#: 100 µs to 5 s in a 1-2.5-5 progression, +Inf implied.  One shared shape
#: keeps cross-layer latency comparisons (commit vs. lock vs. fetch)
#: directly readable off the same bucket boundaries.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.000_1,
    0.000_25,
    0.000_5,
    0.001,
    0.002_5,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)


def _valid_name(name: str) -> bool:
    if not name:
        return False
    head = name[0]
    if not (head.isascii() and (head.isalpha() or head == "_")):
        return False
    return all(c.isascii() and (c.isalnum() or c in "_:") for c in name)


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def render_labels(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    """``{a="x",b="y"}`` for a label set; empty string for no labels."""
    if not labelnames:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + inner + "}"


# ---------------------------------------------------------------------------
# Children — the objects that actually hold values
# ---------------------------------------------------------------------------


class _CounterChild:
    """One labeled (or label-less) monotonic counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise MetricError(f"counters only go up: {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current total."""
        with self._lock:
            return self._value


class _GaugeChild:
    """One labeled (or label-less) up/down value."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        with self._lock:
            self._value -= amount

    def set(self, value: float) -> None:
        """Replace the value outright."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value


class _HistogramChild:
    """One labeled (or label-less) fixed-bucket histogram."""

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds
        # One slot per finite bound plus the +Inf overflow slot.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Total observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending at +Inf."""
        with self._lock:
            counts = list(self._counts)
        cumulative = 0
        out: List[Tuple[float, int]] = []
        for bound, count in zip(self._bounds + (math.inf,), counts):
            cumulative += count
            out.append((bound, cumulative))
        return out


# ---------------------------------------------------------------------------
# Families — named metrics with (optional) label dimensions
# ---------------------------------------------------------------------------


class _MetricFamily:
    """Shared family machinery: name, help, label names, child table."""

    kind = "untyped"
    _child_type: type = _CounterChild

    def __init__(
        self,
        name: str,
        documentation: str,
        labelnames: Sequence[str] = (),
    ) -> None:
        if not _valid_name(name):
            raise MetricError(f"invalid metric name: {name!r}")
        for label in labelnames:
            if not _valid_name(label):
                raise MetricError(f"invalid label name: {label!r}")
        self.name = name
        self.documentation = documentation
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            # Label-less families expose the child API on the family itself
            # through a single anonymous child created eagerly.
            self._children[()] = self._make_child()

    def _make_child(self):
        return self._child_type()

    def labels(self, *labelvalues: str, **labelkwargs: str):
        """The child for one label-value combination (created on first use)."""
        if labelkwargs:
            if labelvalues:
                raise MetricError("pass label values or kwargs, not both")
            try:
                labelvalues = tuple(
                    str(labelkwargs[name]) for name in self.labelnames
                )
            except KeyError as missing:
                raise MetricError(
                    f"{self.name}: missing label {missing}"
                ) from None
            if len(labelkwargs) != len(self.labelnames):
                extra = set(labelkwargs) - set(self.labelnames)
                raise MetricError(f"{self.name}: unknown labels {extra}")
        else:
            labelvalues = tuple(str(value) for value in labelvalues)
        if len(labelvalues) != len(self.labelnames):
            raise MetricError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {labelvalues}"
            )
        with self._lock:
            child = self._children.get(labelvalues)
            if child is None:
                child = self._make_child()
                self._children[labelvalues] = child
            return child

    def _solo(self):
        if self.labelnames:
            raise MetricError(
                f"{self.name} is labeled {self.labelnames}; use .labels(...)"
            )
        return self._children[()]

    def child(self):
        """The anonymous child of a label-less family.

        Hot paths that record on every operation (the store's entity
        gauges, the fetcher's latency histogram) bind this once at
        construction and call ``inc``/``observe`` on it directly, skipping
        the family-level indirection on each event.
        """
        return self._solo()

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Snapshot of ``(labelvalues, child)`` pairs, insertion-ordered."""
        with self._lock:
            return list(self._children.items())

    # Rendering ---------------------------------------------------------

    def render(self) -> List[str]:
        """This family's lines of Prometheus text exposition."""
        lines = [
            f"# HELP {self.name} {self.documentation}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for labelvalues, child in self.children():
            lines.extend(self._render_child(labelvalues, child))
        return lines

    def _render_child(self, labelvalues, child) -> List[str]:
        label_str = render_labels(self.labelnames, labelvalues)
        return [f"{self.name}{label_str} {_format_value(child.value)}"]


class Counter(_MetricFamily):
    """A monotonically increasing total."""

    kind = "counter"
    _child_type = _CounterChild

    def inc(self, amount: float = 1.0) -> None:
        """Increment (label-less families only)."""
        self._solo().inc(amount)

    @property
    def value(self) -> float:
        """Current total (label-less families only)."""
        return self._solo().value


class Gauge(_MetricFamily):
    """A value that can go up and down."""

    kind = "gauge"
    _child_type = _GaugeChild

    def inc(self, amount: float = 1.0) -> None:
        """Increment (label-less families only)."""
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Decrement (label-less families only)."""
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        """Set (label-less families only)."""
        self._solo().set(value)

    @property
    def value(self) -> float:
        """Current value (label-less families only)."""
        return self._solo().value


class Histogram(_MetricFamily):
    """An observation distribution over fixed cumulative buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        documentation: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricError("histogram needs at least one bucket bound")
        if bounds[-1] == math.inf:
            bounds = bounds[:-1]  # +Inf is implicit
        if len(set(bounds)) != len(bounds):
            raise MetricError(f"duplicate bucket bounds: {bounds}")
        self.buckets = bounds
        super().__init__(name, documentation, labelnames)

    def _make_child(self):
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        """Record one observation (label-less families only)."""
        self._solo().observe(value)

    @property
    def count(self) -> int:
        """Total observations (label-less families only)."""
        return self._solo().count

    @property
    def sum(self) -> float:
        """Sum of observations (label-less families only)."""
        return self._solo().sum

    def bucket_counts(self):
        """Cumulative buckets (label-less families only)."""
        return self._solo().bucket_counts()

    def _render_child(self, labelvalues, child) -> List[str]:
        lines: List[str] = []
        names = self.labelnames + ("le",)
        for bound, cumulative in child.bucket_counts():
            values = labelvalues + (_format_value(bound),)
            lines.append(
                f"{self.name}_bucket{render_labels(names, values)} "
                f"{cumulative}"
            )
        label_str = render_labels(self.labelnames, labelvalues)
        lines.append(f"{self.name}_sum{label_str} {_format_value(child.sum)}")
        lines.append(f"{self.name}_count{label_str} {child.count}")
        return lines


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


class MetricsRegistry:
    """Named home for metric families, with get-or-create semantics.

    Components do not coordinate over who declares a metric first: every
    constructor calls ``registry.counter(name, help, labels)`` and gets the
    existing family when a sibling already registered it (two
    :class:`~repro.lbsn.store.DataStore` instances sharing the process
    registry accumulate into the same gauges).  Re-registration with a
    *different* kind or label set is a bug and raises :class:`MetricError`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _MetricFamily] = {}

    # Registration ------------------------------------------------------

    def _get_or_create(
        self, cls, name: str, documentation: str, labelnames, **kwargs
    ):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(name, documentation, labelnames, **kwargs)
                self._families[name] = family
                return family
        if not isinstance(family, cls):
            raise MetricError(
                f"{name} already registered as {family.kind}, "
                f"wanted {cls.kind}"
            )
        if family.labelnames != tuple(labelnames):
            raise MetricError(
                f"{name} already registered with labels "
                f"{family.labelnames}, wanted {tuple(labelnames)}"
            )
        return family

    def counter(
        self, name: str, documentation: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        """Get or create a :class:`Counter` family."""
        return self._get_or_create(Counter, name, documentation, labelnames)

    def gauge(
        self, name: str, documentation: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Get or create a :class:`Gauge` family."""
        return self._get_or_create(Gauge, name, documentation, labelnames)

    def histogram(
        self,
        name: str,
        documentation: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Get or create a :class:`Histogram` family."""
        return self._get_or_create(
            Histogram, name, documentation, labelnames, buckets=buckets
        )

    # Introspection -----------------------------------------------------

    def get(self, name: str) -> Optional[_MetricFamily]:
        """The family registered under ``name``, or None."""
        with self._lock:
            return self._families.get(name)

    def names(self) -> List[str]:
        """All registered family names, sorted."""
        with self._lock:
            return sorted(self._families)

    def collect(self) -> List[_MetricFamily]:
        """All families, sorted by name."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, Dict[Tuple[str, ...], float]]:
        """``{family name: {labelvalues: value}}`` for counters and gauges.

        Histograms report their observation *count* per child — handy for
        parity assertions without parsing exposition text.
        """
        out: Dict[str, Dict[Tuple[str, ...], float]] = {}
        for family in self.collect():
            table: Dict[Tuple[str, ...], float] = {}
            for labelvalues, child in family.children():
                if isinstance(child, _HistogramChild):
                    table[labelvalues] = float(child.count)
                else:
                    table[labelvalues] = child.value
            out[family.name] = table
        return out

    # Exposition --------------------------------------------------------

    def render_text(self) -> str:
        """The full registry in Prometheus text exposition format."""
        lines: List[str] = []
        for family in self.collect():
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def registry_to_dict(registry: MetricsRegistry) -> Dict[str, Any]:
    """The whole registry as one JSON-ready mapping.

    Shape::

        {family: {"kind": "counter", "labelnames": ["status"],
                  "samples": [{"labels": {"status": "valid"},
                               "value": 4000.0}, ...]}}

    Histogram samples additionally carry ``"sum"`` and ``"buckets"``
    (cumulative ``{le: count}``); their ``"value"`` is the observation
    count, matching :meth:`MetricsRegistry.snapshot`.
    """
    out: Dict[str, Any] = {}
    for family in registry.collect():
        samples: List[Dict[str, Any]] = []
        for labelvalues, child in family.children():
            labels = dict(zip(family.labelnames, labelvalues))
            if family.kind == "histogram":
                buckets = {
                    ("+Inf" if bound == float("inf") else repr(bound)): count
                    for bound, count in child.bucket_counts()
                }
                samples.append(
                    {
                        "labels": labels,
                        "value": float(child.count),
                        "sum": child.sum,
                        "buckets": buckets,
                    }
                )
            else:
                samples.append({"labels": labels, "value": child.value})
        out[family.name] = {
            "kind": family.kind,
            "labelnames": list(family.labelnames),
            "samples": samples,
        }
    return out


def registry_to_json(registry: MetricsRegistry, indent: Optional[int] = None) -> str:
    """:func:`registry_to_dict`, rendered to a JSON string."""
    return json.dumps(registry_to_dict(registry), indent=indent, sort_keys=True)


#: The process-default registry the CLI (and anything else that wants a
#: shared, ambient one) uses.  Library code never reaches for this
#: implicitly — injection stays explicit — but ``repro metrics`` and the
#: webserver's ``/metrics`` route need one registry per process.
_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _DEFAULT_REGISTRY
