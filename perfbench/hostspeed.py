"""Host speed, sampled while a run works, so timings compare across runs.

The shared host this benchmark was tuned on does not give a process a
steady CPU.  The same Python code runs at full speed or at about half of
it, switching within milliseconds, and the share of slow time drifts from
one minute to the next: runs of the same code minutes apart differed by up
to a third in every timing, whatever the statistic.

An untraced run therefore keeps a :class:`HostSpeed` sampler on.  An
interval timer interrupts the main thread every :data:`PERIOD_S` seconds
of wall time, and the handler times a fixed reference loop.  A timing over
some interval is then reported *at reference speed*: divided by the
interval's slowdown, the mean time of the reference loop in that interval
over :data:`REFERENCE_US`.  A change to the program moves the timing and
not the loop, so it shows in full; a change in the host's speed moves
both, and largely cancels.  Not exactly: a contended host slows the loop
and the program by slightly different factors, and which one more changes
with the contention.

The loop does what the program spends its time on -- parsing a request,
building small objects, dictionary access, float math, string formatting
and scanning a history of objects -- so that the two factors stay close: a
mix tracked the program better than any one of its parts did.  It runs
with the cyclic garbage collector paused, so the size of the program's
heap cannot change its time.  Sampling takes 3-5 % of a run's wall time.
"""

from __future__ import annotations

import gc
import math
import random
import signal
import time
from array import array
from bisect import bisect_left
from urllib.parse import parse_qsl, urlencode

#: Wall time between two samples.
PERIOD_S = 0.006
#: A fixed scale: timings at reference speed read as they would on a host
#: where every sample of the loop took this long.  It is of the order of
#: the loop's time on the host the benchmark was tuned on (a 2-vCPU shared
#: x86-64 VM, CPython 3.11); only ratios between runs matter.
REFERENCE_US = 200.0
_QUERY = urlencode({
    "venue_id": "40417",
    "ll_lat": "40.74218",
    "ll_lng": "-73.98765",
    "shout": "food court stand 3",
})


class _Stop:
    """A point of a made-up itinerary."""

    def __init__(self, key: int, lat: float, lng: float) -> None:
        self.key = key
        self.lat = lat
        self.lng = lng

    def meters_to(self, other: "_Stop") -> float:
        lat1, lat2 = math.radians(self.lat), math.radians(other.lat)
        half_dlat = (lat2 - lat1) / 2.0
        half_dlng = math.radians(other.lng - self.lng) / 2.0
        h = math.sin(half_dlat) ** 2 + (
            math.cos(lat1) * math.cos(lat2) * math.sin(half_dlng) ** 2
        )
        return 12_742_000.0 * math.asin(math.sqrt(h))


class _Visit:
    """A row of a made-up venue history."""

    def __init__(self, user_id: int, timestamp: float, valid: bool) -> None:
        self.user_id = user_id
        self.timestamp = timestamp
        self.valid = valid


def _history() -> list:
    rng = random.Random(5)
    return [
        _Visit(rng.randrange(30), 1_000_000.0 + index * 900.0, rng.random() < 0.95)
        for index in range(4_000)
    ]


_HISTORY = _history()
_SCAN_ROWS = 200
_scan_start = 0


def _scan_history() -> int:
    """Distinct days per user over a stretch of the history, the way a
    mayorship window is counted; each call scans the next stretch."""
    global _scan_start
    start = _scan_start
    _scan_start = (start + 97) % (len(_HISTORY) - _SCAN_ROWS)
    days = {}
    for visit in _HISTORY[start:start + _SCAN_ROWS]:
        if visit.valid:
            days.setdefault(visit.user_id, set()).add(int(visit.timestamp // 86_400.0))
    return sum(len(found) for found in days.values())


def reference_loop() -> int:
    """A fixed unit of work shaped like a request: parse a query string,
    build records, index and walk them with float math, format a line,
    then scan a stretch of a history of objects."""
    return _handle_request() + _scan_history()


def _handle_request() -> int:
    params = dict(parse_qsl(_QUERY))
    lat, lng = float(params["ll_lat"]), float(params["ll_lng"])
    stops = {}
    previous = None
    meters = 0.0
    for index in range(24):
        stop = _Stop(index, lat + index * 1e-3, lng - index * 1e-3)
        stops[stop.key] = stop
        if previous is not None:
            meters += stop.meters_to(previous)
        previous = stop
    line = ";".join(f"{key}={stop.lat:.5f}" for key, stop in stops.items())
    return len(line) + int(meters) + len(params)


class HostSpeed:
    """Times :func:`reference_loop` every :data:`PERIOD_S` while entered.

    Only the main thread may enter it (signal handlers run there); work on
    other threads is sampled all the same, since the host's speed is what
    is measured.
    """

    def __init__(self) -> None:
        self.ends = array("d")
        self.durations = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        clock = time.perf_counter
        started = clock()
        reference_loop()
        ended = clock()
        if collecting:
            gc.enable()
        self.ends.append(ended)
        self.durations.append(ended - started)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, start: float, end: float) -> float:
        """Mean reference-loop time of the samples that ended in
        ``[start, end)`` (``perf_counter`` seconds), over :data:`REFERENCE_US`."""
        low = bisect_left(self.ends, start)
        high = bisect_left(self.ends, end)
        if high <= low:
            raise ValueError(
                f"no host-speed sample in a {end - start:.4f} s interval"
            )
        mean_s = sum(self.durations[low:high]) / (high - low)
        return mean_s * 1e6 / REFERENCE_US
