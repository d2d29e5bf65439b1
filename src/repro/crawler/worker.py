"""Multi-threading control, ported from the thesis's Appendix A.

The thesis prints its C# thread-management code: a mutex-guarded thread
counter, a user-adjustable desired thread count, ``StartThread`` launching
one crawling thread per URL until the desired count is reached, and a
``ThreadTerminated`` callback that decrements the counter, records
processed/failed totals, and tops the pool back up.
:class:`AppendixAController` is a faithful Python port of that design —
one short-lived thread per page.  The crawls themselves run
:class:`~repro.crawler.crawler.MultiThreadedCrawler`'s own thread loop.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import CrawlError

#: A unit of work: returns True on success, False on failure, and None
#: when there is no work left (the frontier is exhausted).
WorkItem = Callable[[], Optional[bool]]


@dataclass
class WorkerStats:
    """Items the controller's threads processed, and how many failed."""

    processed: int = 0
    failed: int = 0


class AppendixAController:
    """The thesis's thread-per-page launcher, faithfully ported.

    Mirrors the printed C# member for member: ``m_mutex`` is
    :attr:`_mutex`, ``m_threadCount`` is :attr:`_thread_count`,
    ``m_bRunning`` is :attr:`_running`, and ``numericUpDown1.Value`` (the
    GUI thread-count spinner) is :attr:`desired_threads`.
    """

    def __init__(self, work: WorkItem, desired_threads: int = 14) -> None:
        if desired_threads < 1:
            raise CrawlError(f"need at least one thread: {desired_threads}")
        self._work = work
        self.desired_threads = desired_threads
        self._mutex = threading.Lock()
        self._thread_count = 0
        self._running = False
        self.stats = WorkerStats()
        self._all_done = threading.Event()

    def start(self) -> None:
        """Begin crawling (returns immediately; see :meth:`join`)."""
        with self._mutex:
            if self._running:
                raise CrawlError("controller already running")
            self._running = True
        self._all_done.clear()
        self._start_threads()

    def stop(self) -> None:
        """Ask the pool to stop launching new threads."""
        with self._mutex:
            self._running = False

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for every thread to finish; True if fully drained."""
        return self._all_done.wait(timeout)

    @property
    def active_threads(self) -> int:
        """Currently live crawl threads."""
        with self._mutex:
            return self._thread_count

    # The Appendix-A pair -----------------------------------------------

    def _start_threads(self) -> None:
        """``StartThread``: launch until the desired count is reached."""
        while True:
            with self._mutex:
                if not self._running or self._thread_count >= self.desired_threads:
                    break
                self._thread_count += 1
            thread = threading.Thread(target=self._run_one, daemon=True)
            thread.start()

    def _run_one(self) -> None:
        """One thread's lifetime: crawl a single URL, then terminate."""
        try:
            outcome = self._work()
        except Exception:
            outcome = False
        self._thread_terminated(outcome)

    def _thread_terminated(self, outcome: Optional[bool]) -> None:
        """``ThreadTerminated``: bookkeeping, then top the pool back up."""
        relaunch = False
        with self._mutex:
            self._thread_count -= 1
            if outcome is None:
                # Frontier exhausted: stop launching new threads.
                self._running = False
            else:
                self.stats.processed += 1
                if not outcome:
                    self.stats.failed += 1
            relaunch = self._running
            if not self._running and self._thread_count == 0:
                self._all_done.set()
        if relaunch:
            self._start_threads()
