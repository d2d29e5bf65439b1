"""Concurrency tests for the resilience layer.

Mirrors tests/test_obs_concurrency.py: 8 threads behind a barrier
hammer one shared CircuitBreaker, one shared FaultInjector, and
concurrent :func:`retry_call` loops.  Nothing may tear, no count may be
lost, and the injector's per-point decision streams must stay exact.
"""

import threading

import pytest

from repro.errors import BreakerOpenError, FaultInjectedError
from repro.faults import (
    BackoffPolicy,
    BreakerState,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    retry_call,
)
from repro.obs.metrics import MetricsRegistry
from repro.simnet.clock import SimClock

THREADS = 8
CHECKS_PER_THREAD = 500


def run_threads(target, count=THREADS):
    barrier = threading.Barrier(count)
    results = [None] * count
    errors = []

    def wrap(index):
        try:
            barrier.wait()
            results[index] = target(index)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=wrap, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return results


class TestInjectorUnderThreads:
    POINT = "crawler.fetch"
    SPEC = FaultSpec(point="crawler.fetch", probability=0.25)

    def _drive(self, injector):
        def worker(_index):
            fired = 0
            for _ in range(CHECKS_PER_THREAD):
                if injector.decide(self.POINT) is not None:
                    fired += 1
            return fired

        return run_threads(worker)

    def test_no_check_lost_or_double_counted(self):
        injector = FaultInjector(FaultPlan(seed=3).add(self.SPEC))
        self._drive(injector)
        assert injector.checks_at(self.POINT) == (
            THREADS * CHECKS_PER_THREAD
        )

    def test_total_fires_match_the_sequential_stream(self):
        """The decision stream is a pure function of the check index, so
        8 threads consuming it must fire exactly as often as 1 thread
        consuming the same number of checks."""
        sequential = FaultInjector(FaultPlan(seed=3).add(self.SPEC))
        expected = sum(
            1
            for _ in range(THREADS * CHECKS_PER_THREAD)
            if sequential.decide(self.POINT) is not None
        )
        threaded = FaultInjector(FaultPlan(seed=3).add(self.SPEC))
        fired = self._drive(threaded)
        assert sum(fired) == expected
        assert threaded.sequence_digest() == sequential.sequence_digest()

    def test_fire_indices_are_gapless(self):
        injector = FaultInjector(FaultPlan(seed=3).add(self.SPEC))
        self._drive(injector)
        history = injector.sequence(self.POINT)
        check_indices = [check_index for check_index, _kind in history]
        assert check_indices == sorted(check_indices)
        assert len(set(check_indices)) == len(check_indices)
        assert injector.fired_at(self.POINT) == len(history)

    def test_max_fires_cap_holds_under_contention(self):
        spec = FaultSpec(
            point=self.POINT, probability=0.9, max_fires=40
        )
        injector = FaultInjector(FaultPlan(seed=3).add(spec))
        fired = self._drive(injector)
        assert sum(fired) == 40

    def test_arm_disarm_races_never_corrupt_counts(self):
        injector = FaultInjector(FaultPlan(seed=3).add(self.SPEC))

        def worker(index):
            fired = 0
            for n in range(CHECKS_PER_THREAD):
                if index == 0 and n % 50 == 0:
                    injector.disarm()
                    injector.arm()
                if injector.decide(self.POINT) is not None:
                    fired += 1
            return fired

        run_threads(worker)
        # Disarmed checks are invisible; armed ones all counted.
        checks = injector.checks_at(self.POINT)
        assert 0 < checks <= THREADS * CHECKS_PER_THREAD
        history = injector.sequence(self.POINT)
        assert injector.fired_at(self.POINT) == len(history)


class TestBreakerUnderThreads:
    def test_exactly_one_open_transition(self):
        """N threads reporting failures produce one OPEN transition."""
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(
            name="conc",
            failure_threshold=THREADS,
            reset_timeout_s=1e9,
            now_fn=SimClock().now,
            metrics=metrics,
        )

        def worker(_index):
            for _ in range(100):
                breaker.record_failure()

        run_threads(worker)
        assert breaker.state is BreakerState.OPEN
        assert breaker.open_count == 1
        transitions = metrics.get("repro_breaker_transitions_total")
        assert transitions.labels("conc", "open").value == 1.0

    def test_short_circuit_count_is_exact(self):
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(
            name="conc",
            failure_threshold=1,
            reset_timeout_s=1e9,
            now_fn=SimClock().now,
            metrics=metrics,
        )
        breaker.record_failure()  # open, and stays open (huge timeout)

        def worker(_index):
            refused = 0
            for _ in range(CHECKS_PER_THREAD):
                if not breaker.allow():
                    refused += 1
            return refused

        refused = run_threads(worker)
        assert sum(refused) == THREADS * CHECKS_PER_THREAD
        shorts = metrics.get("repro_breaker_short_circuits_total")
        assert shorts.labels("conc").value == float(
            THREADS * CHECKS_PER_THREAD
        )

    def test_half_open_admits_exactly_the_probe_quota(self):
        clock = SimClock()
        breaker = CircuitBreaker(
            name="conc",
            failure_threshold=1,
            reset_timeout_s=5.0,
            now_fn=clock.now,
        )
        breaker.record_failure()
        clock.advance(5.0)

        def worker(_index):
            return 1 if breaker.allow() else 0

        admitted = run_threads(worker)
        assert sum(admitted) == 1  # one probe, no matter the interleaving

    def test_mixed_success_failure_storm_keeps_invariants(self):
        clock = SimClock()
        breaker = CircuitBreaker(
            name="conc",
            failure_threshold=3,
            reset_timeout_s=0.0,  # reopens promote instantly
            now_fn=clock.now,
        )

        def worker(index):
            for n in range(200):
                if breaker.allow():
                    if (index + n) % 3 == 0:
                        breaker.record_failure()
                    else:
                        breaker.record_success()

        run_threads(worker)
        assert breaker.state in (
            BreakerState.CLOSED,
            BreakerState.OPEN,
            BreakerState.HALF_OPEN,
        )
        assert breaker.consecutive_failures >= 0


class TestRetryCallUnderThreads:
    def test_parallel_retry_loops_share_one_registry(self):
        metrics = MetricsRegistry()

        def worker(index):
            state = {"calls": 0}

            def flaky():
                state["calls"] += 1
                if state["calls"] % 3 != 0:
                    raise FaultInjectedError("p")
                return state["calls"]

            results = []
            for _ in range(50):
                results.append(
                    retry_call(
                        flaky,
                        BackoffPolicy(),
                        metrics=metrics,
                        op=f"op-{index}",
                    )
                )
            return results

        run_threads(worker)
        attempts = metrics.get("repro_retry_attempts_total")
        recoveries = metrics.get("repro_retry_recoveries_total")
        for index in range(THREADS):
            op = f"op-{index}"
            # Each success needed exactly 2 retries (fail, fail, pass).
            assert attempts.labels(op).value == 100.0
            assert recoveries.labels(op).value == 50.0

    def test_breaker_guarded_retry_loops_settle(self):
        """retry_call + breaker compose: breaker-open is transient, so
        threads retry through an open window and eventually land."""
        clock = SimClock()
        lock = threading.Lock()
        breaker = CircuitBreaker(
            name="conc",
            failure_threshold=1,
            reset_timeout_s=0.5,
            now_fn=clock.now,
        )
        breaker.record_failure()  # start OPEN

        def guarded():
            with lock:
                if not breaker.allow():
                    raise BreakerOpenError(breaker.name)
                breaker.record_success()
            return True

        def worker(_index):
            return retry_call(
                guarded,
                BackoffPolicy(max_attempts=10, initial_delay_s=0.3),
                sleep=lambda s: clock.advance(s),
            )

        assert run_threads(worker) == [True] * THREADS
        assert breaker.state is BreakerState.CLOSED


class TestInjectorStreamsAcrossThreadCounts:
    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_digest_invariant_to_thread_count(self, threads):
        spec = FaultSpec(point="store.commit", probability=0.2)
        injector = FaultInjector(FaultPlan(seed=77).add(spec))
        per_thread = 800 // threads

        def worker(_index):
            for _ in range(per_thread):
                injector.decide("store.commit")

        run_threads(worker, count=threads)
        reference = FaultInjector(FaultPlan(seed=77).add(spec))
        for _ in range(per_thread * threads):
            reference.decide("store.commit")
        assert injector.sequence_digest() == reference.sequence_digest()
