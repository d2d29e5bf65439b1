"""Verdicts of the parent-vs-change comparison."""

from perfbench.compare import Metric, verdict

THROUGHPUT = Metric("ops_per_s", "1/s", "higher", 0.10)


def _paired(old, new):
    return list(zip(old, new))


def test_clear_gain_reads_better():
    old = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 100.3, 99.9, 100.0]
    new = [value * 1.2 for value in old]
    assert verdict(THROUGHPUT, old, new, _paired(old, new))["verdict"] == "better"


def test_small_steady_loss_stays_within_bound():
    old = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 100.3, 99.9, 100.0]
    new = [value * 0.97 for value in old]
    row = verdict(THROUGHPUT, old, new, _paired(old, new))
    assert row["verdict"] == "within bound"
    assert row["wins"] == 0 and row["losses"] == 10


def test_loss_beyond_the_bound_reads_worse():
    old = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 100.3, 99.9, 100.0]
    new = [value * 0.8 for value in old]
    assert verdict(THROUGHPUT, old, new, _paired(old, new))["verdict"] == "worse"


def test_noisy_runs_read_unresolved():
    old = [80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0, 100.0]
    new = [value * 0.95 for value in reversed(old)]
    assert verdict(THROUGHPUT, old, new, _paired(old, new))["verdict"] == "unresolved"


def test_ties_count_for_neither_side():
    old = [100.0] * 10
    row = verdict(THROUGHPUT, old, list(old), _paired(old, old))
    assert (row["wins"], row["losses"]) == (0, 0)
