"""Soak-tier chaos runs — excluded from tier-1 via ``-m "not soak"``.

These push the standard storm harder than the smoke fixtures in
``conftest.py``: a bigger world, more check-ins, and a harsher fault mix,
repeated back to back to catch state leaking between runs. They stay
fully deterministic (seeded faults, simulated clocks, no wall-clock
sleeps — the autouse guard still applies), they are just *slow*, which
is why tier-1 deselects them and CI's ``chaos`` job runs them in their
own step:

    PYTHONPATH=src python -m pytest -m soak tests/chaos -q
"""

import pytest

from .conftest import ChaosHarness

pytestmark = pytest.mark.soak

SOAK_SCALE = 0.001
SOAK_CHECKINS = 600
SOAK_FETCH_FAILURE = 0.35
SOAK_SUBSCRIBER_FAILURE = 0.10


def _soak_overrides(**extra):
    base = dict(
        scale=SOAK_SCALE,
        checkins=SOAK_CHECKINS,
        fetch_failure=SOAK_FETCH_FAILURE,
        subscriber_failure=SOAK_SUBSCRIBER_FAILURE,
    )
    base.update(extra)
    return base


class TestHarshStormSoak:
    def test_invariants_hold_under_a_harsher_longer_storm(self):
        storm = ChaosHarness.run(**_soak_overrides())
        replay = ChaosHarness.run(**_soak_overrides())
        clean = ChaosHarness.run(**_soak_overrides(faults_enabled=False))

        # Determinism survives the heavier fault mix.
        report = storm.report
        assert (
            report.fault_sequence_digest
            == replay.report.fault_sequence_digest
        )
        assert (
            report.committed_state_digest
            == replay.report.committed_state_digest
        )

        # No lost committed check-ins, even at 35% fetch / harsher storm.
        assert report.checkins_returned == SOAK_CHECKINS
        assert report.commit_exhausted == 0

        # Fault/no-fault parity at soak scale.
        assert (
            report.committed_state_digest
            == clean.report.committed_state_digest
        )
        assert report.ledger_suspects == clean.report.ledger_suspects

        # The frontier still drains under 35% fetch failure.
        assert not report.crawl_aborted
        assert report.crawl.hits > 0

    def test_back_to_back_storms_do_not_leak_state(self):
        first = ChaosHarness.run(**_soak_overrides())
        second = ChaosHarness.run(**_soak_overrides())
        # A fresh harness must reproduce the first run exactly: nothing
        # (module caches, class attributes, global registries) carries
        # over between storms.
        assert (
            first.report.fault_sequence_digest
            == second.report.fault_sequence_digest
        )
        assert (
            first.report.committed_state_digest
            == second.report.committed_state_digest
        )
        assert first.report.faults_fired == second.report.faults_fired
