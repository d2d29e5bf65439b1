"""Property tests (hypothesis) for :class:`repro.faults.BackoffPolicy`.

Pins the schedule invariants the retry layer leans on: delays are
monotone non-decreasing, capped at ``max_delay_s``, and start at
``initial_delay_s``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import BackoffPolicy

#: Keep the float ranges tame: these are seconds, not stress tests for
#: IEEE-754 — the retry layer never sees subnormal or 1e300 delays.
initial_delays = st.floats(min_value=0.001, max_value=10.0)
cap_factors = st.floats(min_value=1.0, max_value=100.0)
attempt_counts = st.integers(min_value=1, max_value=30)


@st.composite
def policies(draw):
    initial = draw(initial_delays)
    return BackoffPolicy(
        max_attempts=draw(attempt_counts),
        initial_delay_s=initial,
        max_delay_s=initial * draw(cap_factors),
    )


class TestBaseDelayShape:
    @settings(max_examples=80, deadline=None)
    @given(policy=policies())
    def test_monotone_non_decreasing_pre_jitter(self, policy):
        delays = [
            policy.delay(n) for n in range(1, policy.max_attempts + 1)
        ]
        assert all(b >= a for a, b in zip(delays, delays[1:]))

    @settings(max_examples=80, deadline=None)
    @given(policy=policies())
    def test_capped_and_floored(self, policy):
        for n in range(1, policy.max_attempts + 1):
            delay = policy.delay(n)
            assert delay <= policy.max_delay_s
            assert delay >= min(policy.initial_delay_s, policy.max_delay_s)

    @settings(max_examples=60, deadline=None)
    @given(policy=policies())
    def test_first_delay_is_the_initial_delay(self, policy):
        assert policy.delay(1) == min(
            policy.initial_delay_s, policy.max_delay_s
        )
