"""Span tracing installed from outside the program under test.

A :class:`SpanTracer` swaps attributes -- methods on classes, functions in
modules -- for wrappers that record one span per call, and puts the
originals back on :meth:`SpanTracer.uninstall`.  Nothing in the program is
edited: untraced runs execute exactly the shipped functions.

Spans go into per-thread in-memory buffers (span stacks are thread-local,
so concurrent crawler threads never nest into each other) and are written
once, by :meth:`SpanTracer.write`.  A layer's *self time* is its span's
duration minus the durations of the wrapped children inside it, so the self
times of one request's spans add up exactly to its root span.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

#: Marker attribute carried by every installed wrapper.
WRAPPER_MARK = "__perfbench_span__"

#: ``layer(parent_layer, args, kwargs) -> name`` for context-named spans.
LayerFn = Callable[[Optional[str], tuple, dict], str]
#: ``observe(counts, args, kwargs, result)``: tallies per-call counts.
ObserveFn = Callable[[Dict[str, float], tuple, dict, Any], None]


@dataclass(frozen=True)
class Probe:
    """One attribute to wrap and the layer its calls are charged to."""

    owner: Any
    attr: str
    layer: Union[str, LayerFn]
    observe: Optional[ObserveFn] = None


class _ThreadState:
    """One thread's spans, as parallel columns in start order.

    Columns rather than one record object per span: appending floats and
    shared strings allocates nothing the garbage collector must track.
    """

    __slots__ = ("name", "layers", "parents", "starts", "ends", "current",
                 "counts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.layers: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        #: Index of the innermost open span (-1 outside every span).
        self.current = -1
        self.counts: Dict[str, float] = defaultdict(float)

    def spans(self):
        """``(layer, parent, start, end)`` per span."""
        return zip(self.layers, self.parents, self.starts, self.ends)


def is_wrapped(value: Any) -> bool:
    """Is ``value`` (a function or method descriptor) a tracer wrapper?"""
    func = getattr(value, "__func__", value)
    return hasattr(func, WRAPPER_MARK)


class SpanTracer:
    """Records spans for a set of :class:`Probe` targets while installed."""

    def __init__(
        self, probes: List[Probe], clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.probes = list(probes)
        self._clock = clock
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._originals: List[tuple] = []

    # Installation ------------------------------------------------------

    def install(self) -> "SpanTracer":
        """Wrap every probe target; the originals are kept for uninstall."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        for probe in self.probes:
            raw = _raw_attr(probe.owner, probe.attr)
            if is_wrapped(raw):
                raise RuntimeError(
                    f"{probe.attr} on {probe.owner!r} is already wrapped"
                )
            self._originals.append((probe.owner, probe.attr, raw))
            setattr(probe.owner, probe.attr, self._wrap(raw, probe))
        return self

    def uninstall(self) -> None:
        """Restore every original attribute, newest wrap first."""
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    def _wrap(self, raw: Any, probe: Probe) -> Any:
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._span_wrapper(raw.__func__, probe))
        return self._span_wrapper(raw, probe)

    def _span_wrapper(self, fn: Callable, probe: Probe) -> Callable:
        local = self._local
        new_state = self._new_state
        clock = self._clock
        layer = probe.layer
        named = isinstance(layer, str)
        observe = probe.observe

        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            parent = state.current
            layers = state.layers
            if named:
                name = layer
            else:
                name = layer(
                    layers[parent] if parent >= 0 else None, args, kwargs
                )
            index = state.current = len(layers)
            layers.append(name)
            state.parents.append(parent)
            state.ends.append(0.0)
            state.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                state.ends[index] = clock()
                state.current = parent
            if observe is not None:
                observe(state.counts, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", probe.attr)
        wrapper.__qualname__ = getattr(fn, "__qualname__", probe.attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, WRAPPER_MARK, probe)
        return wrapper

    def _new_state(self) -> _ThreadState:
        state = _ThreadState(threading.current_thread().name)
        self._local.state = state
        with self._states_lock:
            self._states.append(state)
        return state

    # Results -----------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per layer, summed over every thread."""
        totals: Dict[str, float] = defaultdict(float)
        for state in self._states:
            children = [0.0] * len(state.layers)
            for layer, parent, start, end in state.spans():
                if parent >= 0:
                    children[parent] += end - start
            for index, (layer, _, start, end) in enumerate(state.spans()):
                totals[layer] += (end - start) - children[index]
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        """Span count per layer."""
        totals: Dict[str, int] = defaultdict(int)
        for state in self._states:
            for layer in state.layers:
                totals[layer] += 1
        return dict(totals)

    def child_calls(self, parent_layer: str) -> int:
        """How many spans opened directly inside a ``parent_layer`` span."""
        count = 0
        for state in self._states:
            layers = state.layers
            for parent in state.parents:
                if parent >= 0 and layers[parent] == parent_layer:
                    count += 1
        return count

    def counts(self) -> Dict[str, float]:
        """Every observe() tally, summed over threads."""
        totals: Dict[str, float] = defaultdict(float)
        for state in self._states:
            for key, value in state.counts.items():
                totals[key] += value
        return dict(totals)

    def write(self, path) -> None:
        """Write every span once, as tab-separated lines.

        Columns: thread, span index, parent index (-1 for a root), root
        index (the request the span belongs to), layer, start and end in
        microseconds on the tracer's clock.
        """
        with open(path, "w", encoding="utf-8") as out:
            out.write("thread\tspan\tparent\troot\tlayer\tstart_us\tend_us\n")
            for state in self._states:
                roots: List[int] = []
                for index, (layer, parent, start, end) in enumerate(state.spans()):
                    root = index if parent < 0 else roots[parent]
                    roots.append(root)
                    out.write(
                        f"{state.name}\t{index}\t{parent}\t{root}\t{layer}\t"
                        f"{start * 1e6:.3f}\t{end * 1e6:.3f}\n"
                    )


def _raw_attr(owner: Any, attr: str) -> Any:
    """The attribute as stored on ``owner`` (descriptors not bound)."""
    namespace = vars(owner)
    if attr not in namespace:
        raise AttributeError(f"{owner!r} does not define {attr!r} itself")
    return namespace[attr]


def wrapped_targets(probes: List[Probe]) -> List[str]:
    """Names of probe targets currently holding a wrapper."""
    return [
        f"{getattr(p.owner, '__name__', p.owner)}.{p.attr}"
        for p in probes
        if is_wrapped(_raw_attr(p.owner, p.attr))
    ]
