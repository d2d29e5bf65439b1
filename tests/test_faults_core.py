"""Unit tests for :mod:`repro.faults`: plans, injector, retry, breaker.

The chaos suite (tests/chaos/) proves the *system-level* contracts;
these tests pin the primitives one behavior at a time.
"""

import pytest

from repro.errors import (
    BreakerOpenError,
    FaultInjectedError,
    HttpError,
    PermanentError,
    TransientError,
)
from repro.faults import (
    FAILURE_POINTS,
    BackoffPolicy,
    BreakerState,
    CircuitBreaker,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    RetryPolicyError,
    retry_call,
)
from repro.obs.log import LogHub
from repro.obs.metrics import MetricsRegistry
from repro.simnet.clock import SimClock

POINT = "crawler.fetch"


def make_injector(*specs, seed=0, clock=None, metrics=None, log=None):
    plan = FaultPlan(seed=seed)
    for spec in specs:
        plan.add(spec)
    return FaultInjector(plan, clock=clock, metrics=metrics, log=log)


class TestFaultSpecValidation:
    def test_probability_out_of_range(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(point=POINT, probability=1.5)
        with pytest.raises(FaultPlanError):
            FaultSpec(point=POINT, probability=-0.1)

    def test_empty_point_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(point="", probability=0.5)

    def test_bad_latency_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(point=POINT, probability=0.5, latency_s=-1.0)

    def test_specs_are_frozen(self):
        spec = FaultSpec(point=POINT, probability=0.5)
        with pytest.raises(AttributeError):
            spec.probability = 0.9


class TestFaultPlan:
    def test_points_in_first_arming_order(self):
        plan = FaultPlan()
        plan.add(FaultSpec(point="b", probability=0.1))
        plan.add(FaultSpec(point="a", probability=0.1))
        plan.add(FaultSpec(point="b", probability=0.2))
        assert plan.points() == ["b", "a"]
        assert len(plan.specs_for("b")) == 2
        assert len(plan) == 3

    def test_spec_seeds_never_alias(self):
        plan = FaultPlan(seed=3)
        plan.add(FaultSpec(point="a", probability=0.1))
        plan.add(FaultSpec(point="a", probability=0.1))
        plan.add(FaultSpec(point="b", probability=0.1))
        seeds = {plan.spec_seed(i) for i in range(3)}
        assert len(seeds) == 3

    def test_standard_storm_covers_the_acceptance_points(self):
        plan = FaultPlan.standard_storm()
        assert set(plan.points()) == {
            "crawler.fetch",
            "stream.subscriber",
            "store.commit",
            "web.request",
            "simnet.request",
        }
        assert set(plan.points()) <= set(FAILURE_POINTS)

    def test_standard_storm_omits_disabled_specs(self):
        plan = FaultPlan.standard_storm(
            fetch_failure=0.0, subscriber_failure=0.0
        )
        assert "crawler.fetch" not in plan.points()
        assert "stream.subscriber" not in plan.points()
        assert set(plan.points()) == {
            "store.commit",
            "web.request",
            "simnet.request",
        }


class TestInjectorDeterminism:
    SPEC = FaultSpec(point=POINT, probability=0.3)

    def drive(self, injector, checks=200):
        fired = []
        for index in range(checks):
            if injector.decide(POINT) is not None:
                fired.append(index)
        return fired

    def test_same_seed_same_decisions(self):
        a = self.drive(make_injector(self.SPEC, seed=11))
        b = self.drive(make_injector(self.SPEC, seed=11))
        assert a == b
        assert a  # 0.3 over 200 checks certainly fires

    def test_same_seed_same_digest(self):
        first = make_injector(self.SPEC, seed=11)
        second = make_injector(self.SPEC, seed=11)
        self.drive(first)
        self.drive(second)
        assert first.sequence_digest() == second.sequence_digest()

    def test_different_seed_different_decisions(self):
        a = self.drive(make_injector(self.SPEC, seed=11))
        b = self.drive(make_injector(self.SPEC, seed=12))
        assert a != b

    def test_points_do_not_interfere(self):
        """Checks at one point never advance another point's stream."""
        other = FaultSpec(point="web.request", probability=0.5)
        lone = self.drive(make_injector(self.SPEC, seed=11))
        mixed_injector = make_injector(self.SPEC, other, seed=11)
        fired = []
        for index in range(200):
            mixed_injector.decide("web.request")
            if mixed_injector.decide(POINT) is not None:
                fired.append(index)
        assert fired == lone

    def test_unknown_point_is_clean_and_free(self):
        injector = make_injector(self.SPEC, seed=1)
        assert injector.decide("no.such.point") is None
        assert injector.checks_at(POINT) == 0


class TestInjectorMechanics:
    def test_max_fires_caps_without_shifting_the_stream(self):
        unlimited = make_injector(
            FaultSpec(point=POINT, probability=0.3), seed=9
        )
        capped = make_injector(
            FaultSpec(point=POINT, probability=0.3, max_fires=3), seed=9
        )
        unlimited_fires = []
        capped_fires = []
        for index in range(300):
            if unlimited.decide(POINT) is not None:
                unlimited_fires.append(index)
            if capped.decide(POINT) is not None:
                capped_fires.append(index)
        assert capped_fires == unlimited_fires[:3]

    def test_only_labels_targets_one_caller(self):
        injector = make_injector(
            FaultSpec(
                point=POINT, probability=1.0, only_labels=("victim",)
            ),
            seed=2,
        )
        assert injector.decide(POINT, label="bystander") is None
        assert injector.decide(POINT, label=None) is None
        decision = injector.decide(POINT, label="victim")
        assert decision is not None

    def test_disarm_does_not_advance_streams(self):
        spec = FaultSpec(point=POINT, probability=0.3)
        control = make_injector(spec, seed=7)
        paused = make_injector(spec, seed=7)
        control_fires = [
            i for i in range(100) if control.decide(POINT) is not None
        ]
        paused.disarm()
        for _ in range(1000):  # invisible to the decision stream
            paused.decide(POINT)
        assert paused.checks_at(POINT) == 0
        paused.arm()
        paused_fires = [
            i for i in range(100) if paused.decide(POINT) is not None
        ]
        assert paused_fires == control_fires

    def test_check_raises_typed_error(self):
        injector = make_injector(
            FaultSpec(point=POINT, probability=1.0), seed=0
        )
        with pytest.raises(FaultInjectedError) as excinfo:
            injector.check(POINT)
        assert excinfo.value.point == POINT
        assert isinstance(excinfo.value, TransientError)

    def test_check_http_kind_raises_http_error(self):
        injector = make_injector(
            FaultSpec(
                point=POINT,
                probability=1.0,
                kind=FaultKind.HTTP,
                status=503,
            ),
            seed=0,
        )
        with pytest.raises(HttpError) as excinfo:
            injector.check(POINT)
        assert excinfo.value.status == 503

    def test_latency_kind_advances_the_clock(self):
        clock = SimClock()
        injector = make_injector(
            FaultSpec(
                point=POINT,
                probability=1.0,
                kind=FaultKind.LATENCY,
                latency_s=0.25,
            ),
            seed=0,
            clock=clock,
        )
        charged = injector.check(POINT)
        assert charged == 0.25
        assert clock.now() == pytest.approx(0.25)

    def test_metrics_and_log_account_every_fire(self):
        metrics = MetricsRegistry()
        log = LogHub(metrics=metrics)
        injector = make_injector(
            FaultSpec(point=POINT, probability=1.0, max_fires=4),
            seed=0,
            metrics=metrics,
            log=log,
        )
        for _ in range(10):
            injector.decide(POINT)
        family = metrics.get("repro_faults_injected_total")
        fired = sum(child.value for _, child in family.children())
        assert fired == 4
        checks = metrics.get("repro_faults_checks_total")
        assert sum(child.value for _, child in checks.children()) == 10
        assert len(log.records(event="fault.injected")) == 4


class TestRetryCall:
    def test_transient_errors_retry_then_succeed(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise FaultInjectedError("x")
            return "done"

        slept = []
        result = retry_call(
            flaky,
            BackoffPolicy(initial_delay_s=1.0),
            sleep=slept.append,
        )
        assert result == "done"
        assert len(calls) == 3
        assert slept == [1.0, 2.0]

    def test_permanent_errors_raise_immediately(self):
        class Refusal(PermanentError, RuntimeError):
            pass

        calls = []

        def refused():
            calls.append(1)
            raise Refusal("no")

        with pytest.raises(Refusal):
            retry_call(refused, BackoffPolicy(max_attempts=5))
        assert len(calls) == 1

    def test_exhaustion_reraises_the_last_error(self):
        def always():
            raise FaultInjectedError("x")

        with pytest.raises(FaultInjectedError):
            retry_call(always, BackoffPolicy(max_attempts=3))

    def test_metrics_count_attempts_and_recoveries(self):
        metrics = MetricsRegistry()
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise FaultInjectedError("x")
            return True

        retry_call(flaky, BackoffPolicy(), metrics=metrics, op="unit")
        attempts = metrics.get("repro_retry_attempts_total").labels("unit")
        recoveries = metrics.get(
            "repro_retry_recoveries_total"
        ).labels("unit")
        assert attempts.value == 2
        assert recoveries.value == 1


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = SimClock()
        defaults = dict(
            name="unit",
            failure_threshold=3,
            reset_timeout_s=10.0,
            now_fn=clock.now,
        )
        defaults.update(kwargs)
        return clock, CircuitBreaker(**defaults)

    def test_opens_at_threshold_not_before(self):
        _, breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.open_count == 1

    def test_success_resets_the_streak(self):
        _, breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_open_short_circuits_until_the_timer(self):
        clock, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        with pytest.raises(BreakerOpenError):
            breaker.ensure()
        clock.advance(9.999)
        assert not breaker.allow()
        clock.advance(0.002)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()  # the probe

    def test_half_open_grants_limited_probes(self):
        clock, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        assert not breaker.allow()  # second caller refused mid-probe

    def test_probe_failure_reopens_and_rearms_the_timer(self):
        clock, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.open_count == 2
        clock.advance(9.0)
        assert not breaker.allow()  # timer restarted at the probe failure
        clock.advance(1.0)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_probe_success_closes(self):
        clock, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_metrics_track_state_and_transitions(self):
        metrics = MetricsRegistry()
        clock = SimClock()
        breaker = CircuitBreaker(
            name="m",
            failure_threshold=1,
            reset_timeout_s=1.0,
            now_fn=clock.now,
            metrics=metrics,
        )
        breaker.record_failure()
        assert metrics.get("repro_breaker_state").labels("m").value == 1.0
        assert not breaker.allow()
        shorts = metrics.get("repro_breaker_short_circuits_total")
        assert shorts.labels("m").value == 1.0
        clock.advance(1.0)
        _ = breaker.state
        assert metrics.get("repro_breaker_state").labels("m").value == 2.0
        breaker.record_success()
        assert metrics.get("repro_breaker_state").labels("m").value == 0.0
        transitions = metrics.get("repro_breaker_transitions_total")
        entered = {
            labelvalues[1]: child.value
            for labelvalues, child in transitions.children()
        }
        assert entered == {"open": 1.0, "half_open": 1.0, "closed": 1.0}


class TestBackoffPolicyBasics:
    def test_validation(self):
        with pytest.raises(RetryPolicyError):
            BackoffPolicy(max_attempts=0)
        with pytest.raises(RetryPolicyError):
            BackoffPolicy(initial_delay_s=-0.1)
        with pytest.raises(RetryPolicyError):
            BackoffPolicy(initial_delay_s=3.0, max_delay_s=1.0)
        with pytest.raises(RetryPolicyError):
            BackoffPolicy().delay(0)

    def test_base_delays_cap(self):
        policy = BackoffPolicy(initial_delay_s=0.1, max_delay_s=0.5)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)
        assert policy.delay(10) == pytest.approx(0.5)
