"""Unit tests for the Appendix-A threading model."""

import threading
import time

import pytest

from repro.crawler.worker import AppendixAController
from repro.errors import CrawlError


def counting_work(total, fail_every=None):
    """A work source yielding `total` items, then exhaustion."""
    state = {"issued": 0}
    lock = threading.Lock()

    def work():
        with lock:
            if state["issued"] >= total:
                return None
            state["issued"] += 1
            item = state["issued"]
        if fail_every and item % fail_every == 0:
            return False
        return True

    return work, state


class TestAppendixAController:
    def test_processes_everything(self):
        work, state = counting_work(200)
        controller = AppendixAController(work, desired_threads=8)
        controller.start()
        assert controller.join(timeout=10.0)
        assert controller.stats.processed == 200
        assert controller.stats.failed == 0
        assert controller.active_threads == 0

    def test_failures_counted(self):
        work, state = counting_work(100, fail_every=10)
        controller = AppendixAController(work, desired_threads=4)
        controller.start()
        assert controller.join(timeout=10.0)
        assert controller.stats.processed == 100
        assert controller.stats.failed == 10

    def test_exceptions_count_as_failures(self):
        issued = {"n": 0}
        lock = threading.Lock()

        def work():
            with lock:
                if issued["n"] >= 10:
                    return None
                issued["n"] += 1
            raise RuntimeError("boom")

        controller = AppendixAController(work, desired_threads=2)
        controller.start()
        assert controller.join(timeout=10.0)
        assert controller.stats.failed == 10

    def test_thread_count_bounded_by_desired(self):
        peak = {"value": 0}
        lock = threading.Lock()
        work_items = {"n": 0}

        def work():
            with lock:
                if work_items["n"] >= 60:
                    return None
                work_items["n"] += 1
            time.sleep(0.005)
            return True

        controller = AppendixAController(work, desired_threads=5)

        def monitor():
            while not controller.join(timeout=0.001):
                with lock:
                    peak["value"] = max(
                        peak["value"], controller.active_threads
                    )

        watcher = threading.Thread(target=monitor)
        controller.start()
        watcher.start()
        assert controller.join(timeout=10.0)
        watcher.join()
        assert peak["value"] <= 5

    def test_stop_halts_new_launches(self):
        work, state = counting_work(1_000_000)
        controller = AppendixAController(work, desired_threads=2)
        controller.start()
        controller.stop()
        assert controller.join(timeout=10.0)
        assert state["issued"] < 1_000_000

    def test_double_start_rejected(self):
        work, _ = counting_work(1_000_000)
        controller = AppendixAController(work, desired_threads=1)
        controller.start()
        with pytest.raises(CrawlError):
            controller.start()
        controller.stop()
        controller.join(timeout=10.0)

    def test_invalid_thread_count(self):
        with pytest.raises(CrawlError):
            AppendixAController(lambda: None, desired_threads=0)
