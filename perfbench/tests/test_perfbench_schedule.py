"""The workload generators are pure functions of the seed."""

import pytest

from perfbench import checkin


def _city_digest(seed, wal_dir):
    stack, world = checkin.setup_city(seed, wal_dir)
    try:
        return checkin.schedule_digest(
            checkin.city_schedule(stack, world, seed).schedule
        )
    finally:
        stack.close()


def _regulars_digest(seed, wal_dir):
    stack, cohort = checkin.setup_regulars(seed, wal_dir)
    try:
        return checkin.schedule_digest(
            checkin.regulars_schedule(stack, cohort).schedule
        )
    finally:
        stack.close()


@pytest.mark.parametrize("digest", [_city_digest, _regulars_digest])
def test_same_seed_same_schedule_other_seed_other_schedule(
    digest, tmp_path, monkeypatch
):
    # A smaller world keeps the three city builds quick; the generator's
    # logic is the same at every scale.
    monkeypatch.setattr(checkin, "CITY_SCALE", 0.0003)
    first = digest(5, tmp_path / "a")
    again = digest(5, tmp_path / "b")
    other = digest(6, tmp_path / "c")
    assert first == again
    assert first != other
