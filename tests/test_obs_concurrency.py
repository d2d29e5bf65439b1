"""Concurrency tests for the observability layer.

Threads hammer the log hub's ring and the metrics registry
simultaneously; nothing may be lost, torn, or reordered within a thread,
and every exported JSONL line must parse on its own.
"""

import json
import threading

from repro.obs import LogHub, MetricsRegistry
from repro.obs.log import DEBUG

THREADS = 8
RECORDS_PER_THREAD = 250


def _hammer(hub, barrier, index):
    logger = hub.logger(f"worker.{index}")
    barrier.wait()
    for n in range(RECORDS_PER_THREAD):
        logger.info("tick", n=n, worker=index)


class TestLogHubUnderThreads:
    def _run(self, hub):
        barrier = threading.Barrier(THREADS)
        threads = [
            threading.Thread(target=_hammer, args=(hub, barrier, i))
            for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_no_record_lost_when_the_ring_is_large_enough(self):
        total = THREADS * RECORDS_PER_THREAD
        hub = LogHub(ring_size=total)
        self._run(hub)
        assert hub.emitted == total
        assert hub.dropped == 0
        assert len(hub.records()) == total

    def test_per_thread_order_survives_interleaving(self):
        hub = LogHub(ring_size=THREADS * RECORDS_PER_THREAD)
        self._run(hub)
        for i in range(THREADS):
            own = hub.records(logger=f"worker.{i}")
            assert [r.fields["n"] for r in own] == list(
                range(RECORDS_PER_THREAD)
            )

    def test_every_exported_line_is_valid_json(self):
        hub = LogHub(ring_size=THREADS * RECORDS_PER_THREAD)
        self._run(hub)
        lines = hub.export_jsonl().splitlines()
        assert len(lines) == THREADS * RECORDS_PER_THREAD
        for line in lines:
            obj = json.loads(line)  # no torn/interleaved writes
            assert obj["event"] == "tick"
            assert obj["logger"] == f"worker.{obj['worker']}"

    def test_wraparound_under_threads_keeps_accounting_exact(self):
        hub = LogHub(ring_size=100)
        self._run(hub)
        total = THREADS * RECORDS_PER_THREAD
        assert hub.emitted == total
        assert hub.dropped == total - 100
        assert len(hub.records()) == 100

    def test_metrics_counts_survive_contention(self):
        registry = MetricsRegistry()
        hub = LogHub(ring_size=64, metrics=registry)
        self._run(hub)
        flat = registry.snapshot()["repro_log_records_total"]
        for i in range(THREADS):
            assert flat[(f"worker.{i}", "info")] == float(RECORDS_PER_THREAD)


class TestLogAndTraceTogether:
    def test_threads_log_under_their_own_traces(self):
        from repro.obs.context import TraceContext, use_trace

        hub = LogHub(ring_size=4096, level=DEBUG)
        logger = hub.logger("svc")
        barrier = threading.Barrier(THREADS)

        def work():
            trace = TraceContext.mint()
            barrier.wait()
            with use_trace(trace):
                for n in range(50):
                    logger.debug("step", trace_id=trace.trace_id, n=n)

        threads = [threading.Thread(target=work) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        by_trace = {}
        for record in hub.records():
            by_trace.setdefault(record.trace_id, []).append(
                record.fields["n"]
            )
        assert len(by_trace) == THREADS
        assert all(ns == list(range(50)) for ns in by_trace.values())
