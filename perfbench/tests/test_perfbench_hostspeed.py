import gc
import signal
import time

import pytest

from perfbench.hostspeed import REFERENCE_US, HostSpeed, reference_loop


def _speed_with(samples):
    """A sampler holding ``(end, duration)`` samples, never started."""
    speed = HostSpeed()
    for end, duration in samples:
        speed.ends.append(end)
        speed.durations.append(duration)
    return speed


def test_slowdown_is_the_interval_mean_over_the_reference():
    full, half = REFERENCE_US * 1e-6, 2 * REFERENCE_US * 1e-6
    speed = _speed_with([(1.0, full), (2.0, half), (3.0, half), (4.0, full)])
    assert speed.slowdown(0.5, 1.5) == pytest.approx(1.0)
    assert speed.slowdown(1.5, 3.5) == pytest.approx(2.0)
    # Intervals are half-open: the sample ending at 4.0 is outside [1, 4).
    assert speed.slowdown(1.0, 4.0) == pytest.approx(5.0 / 3.0)
    with pytest.raises(ValueError):
        speed.slowdown(4.5, 5.0)


def test_sampler_times_the_loop_and_puts_everything_back():
    def previous(signum, frame):
        pass

    old = signal.signal(signal.SIGALRM, previous)
    try:
        with HostSpeed() as speed:
            started = time.perf_counter()
            while time.perf_counter() - started < 0.15:
                reference_loop()
        assert len(speed.ends) == len(speed.durations) > 5
        assert all(duration > 0 for duration in speed.durations)
        assert list(speed.ends) == sorted(speed.ends)
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("collecting", [True, False])
def test_sampling_leaves_the_garbage_collector_as_it_found_it(collecting):
    was = gc.isenabled()
    if not collecting:
        gc.disable()
    try:
        speed = HostSpeed()
        speed._sample(signal.SIGALRM, None)
        assert gc.isenabled() is collecting
        assert len(speed.durations) == 1
    finally:
        if was:
            gc.enable()
