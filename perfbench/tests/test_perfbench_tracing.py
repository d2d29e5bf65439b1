"""Self-time arithmetic and install/uninstall of the outside-in tracer."""

import threading
import types

import pytest

from perfbench import layers
from perfbench.tracing import Probe, SpanTracer, is_wrapped, wrapped_targets


class ThreadClock:
    """A clock each thread advances by hand: deterministic span times."""

    def __init__(self):
        self._local = threading.local()

    def __call__(self):
        return getattr(self._local, "now", 0.0)

    def tick(self, seconds):
        self._local.now = self() + seconds


def _layers(clock):
    """leaf costs 2; mid costs 1 itself plus two leaves; top 3 plus mid."""
    module = types.ModuleType("fake_layers")

    def leaf():
        clock.tick(2.0)

    def mid():
        clock.tick(1.0)
        module.leaf()
        module.leaf()

    def top():
        clock.tick(3.0)
        module.mid()

    module.leaf, module.mid, module.top = leaf, mid, top
    probes = [
        Probe(module, "leaf", "leaf"),
        Probe(module, "mid", "mid"),
        Probe(module, "top", "top"),
    ]
    return module, probes


def test_nested_and_sibling_spans_split_into_self_time():
    clock = ThreadClock()
    module, probes = _layers(clock)
    tracer = SpanTracer(probes, clock=clock).install()
    try:
        module.top()
    finally:
        tracer.uninstall()
    assert tracer.self_seconds() == {"top": 3.0, "mid": 1.0, "leaf": 4.0}
    assert tracer.calls() == {"top": 1, "mid": 1, "leaf": 2}
    assert tracer.child_calls("mid") == 2
    # Self times of one request add up to its root span (3 + 1 + 2 + 2).
    assert sum(tracer.self_seconds().values()) == 8.0


def test_two_threads_keep_separate_span_stacks():
    clock = ThreadClock()
    module, probes = _layers(clock)
    tracer = SpanTracer(probes, clock=clock).install()
    barrier = threading.Barrier(2)

    def worker(calls):
        barrier.wait(timeout=10)
        for _ in range(calls):
            module.top()

    threads = [threading.Thread(target=worker, args=(n,)) for n in (1, 3)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        tracer.uninstall()
    assert not any(thread.is_alive() for thread in threads)
    # Four top-level calls in all, none nested under another thread's span.
    assert tracer.self_seconds() == {"top": 12.0, "mid": 4.0, "leaf": 16.0}
    assert tracer.calls()["top"] == 4


def test_uninstall_restores_the_original_objects():
    clock = ThreadClock()
    module, probes = _layers(clock)
    originals = (module.leaf, module.mid, module.top)
    tracer = SpanTracer(probes, clock=clock).install()
    assert all(is_wrapped(fn) for fn in (module.leaf, module.mid, module.top))
    with pytest.raises(RuntimeError):
        tracer.install()
    tracer.uninstall()
    assert (module.leaf, module.mid, module.top) == originals
    assert wrapped_targets(probes) == []


def test_untraced_runs_see_the_shipped_functions():
    probes = layers.run_probes() + layers.store_read_probes()
    originals = [vars(p.owner)[p.attr] for p in probes]
    assert wrapped_targets(probes) == []
    tracer = SpanTracer(probes).install()
    assert len(wrapped_targets(probes)) == len(probes)
    tracer.uninstall()
    assert wrapped_targets(probes) == []
    assert [vars(p.owner)[p.attr] for p in probes] == originals


def test_classmethod_targets_stay_classmethods():
    from repro.obs.context import TraceContext

    original = vars(TraceContext)["mint"]
    tracer = SpanTracer([Probe(TraceContext, "mint", "mint")]).install()
    try:
        minted = TraceContext.mint()
    finally:
        tracer.uninstall()
    assert isinstance(minted, TraceContext)
    assert tracer.calls() == {"mint": 1}
    assert vars(TraceContext)["mint"] is original


def test_ledger_spans_are_named_by_their_caller():
    assert layers._ledger_layer("durable.pipeline", (), {}) == "durable.ledger_apply"
    assert layers._ledger_layer("durable.replay", (), {}) == "durable.replay.ledger"
    assert layers._ledger_layer("stream.bus", (), {}) == "stream.ledger"
