import statistics

import pytest

from perfbench.stats import (
    MIN_SAMPLES_BEYOND,
    SampleTooSmall,
    percentile,
    quartiles,
    samples_beyond,
    windowed_percentile,
)


def test_p99_needs_ten_samples_beyond_it():
    # 1,000 samples leave exactly 10 above the nearest-rank p99.
    assert samples_beyond(1_000, 99) == MIN_SAMPLES_BEYOND
    assert percentile(list(range(1_000)), 99) == 989
    with pytest.raises(SampleTooSmall):
        percentile(list(range(999)), 99)


def test_median_needs_twenty_samples():
    assert percentile(list(range(20)), 50) == 9
    with pytest.raises(SampleTooSmall):
        percentile(list(range(19)), 50)


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert percentile(values, 50) == 3.0


def test_quartiles_match_the_acceptance_computation():
    values = [3.1, 2.9, 3.3, 3.0, 3.2, 2.8, 3.05, 3.15, 2.95, 3.25]
    assert quartiles(values) == statistics.quantiles(values, n=4)


def test_windowed_percentile_reads_the_typical_window():
    # One stalled stretch holding 5% of a window's samples sets the
    # pooled p99 of the run, but not the median of the windows' p99s.
    calm = [1.0] * 1_000
    stalled = [1.0] * 950 + [50.0] * 50
    values = calm + stalled + calm
    assert percentile(values, 99) == 50.0
    assert windowed_percentile(values, 99, 1_000) == 1.0
    with pytest.raises(SampleTooSmall):
        windowed_percentile(values[:999], 99, 1_000)
