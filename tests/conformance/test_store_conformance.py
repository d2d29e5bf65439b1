"""Conformance suite: the datastore under concurrent writers.

With 8+ writer threads mixing single and batched commits,

* seq numbers are gap-free and strictly ordered per stream,
* every committed check-in is observed by detectors exactly once,
* two storms over one schedule produce byte-identical trace-scrubbed
  ledger digests once replayed in canonical order.

The 16-thread / bigger-schedule variant runs under ``-m soak`` only.
"""

import pytest

from tests.conformance.harness import (
    assert_observed_exactly_once,
    assert_per_user_order,
    assert_seqs_dense,
    ledger_replay_digest,
    run_conformance_storm,
)

STORM_SEED = 0x5EED


@pytest.fixture(scope="module")
def single_history():
    """One 8-thread storm against the store, shared by the checks."""
    return run_conformance_storm(threads=8, seed=STORM_SEED)


class TestSingleStoreStorm:
    def test_commits_all_landed(self, single_history):
        history = single_history
        assert len(history.committed) == history.schedule.total_checkins
        assert history.store.checkin_count() == len(history.committed)

    def test_seqs_gap_free_and_duplicate_free(self, single_history):
        assert_seqs_dense(single_history)

    def test_per_user_commit_order_equals_seq_order(self, single_history):
        assert_per_user_order(single_history)

    def test_every_commit_observed_exactly_once(self, single_history):
        assert_observed_exactly_once(single_history)

    def test_venue_index_complete(self, single_history):
        store = single_history.store
        by_venue = {}
        for _, checkin, _ in single_history.committed:
            by_venue.setdefault(checkin.venue_id, set()).add(
                checkin.checkin_id
            )
        for venue_id, expected in by_venue.items():
            listed = {
                c.checkin_id for c in store.checkins_at_venue(venue_id)
            }
            assert listed == expected


class TestLedgerDigestParity:
    def test_digest_stable_across_repeat_runs(self, single_history):
        """Interleaving changes scheduling, not semantics."""
        repeat = run_conformance_storm(threads=8, seed=STORM_SEED)
        assert ledger_replay_digest(repeat) == ledger_replay_digest(
            single_history
        )

    def test_different_schedule_changes_digest(self, single_history):
        """Sanity: the digest is not vacuous."""
        other = run_conformance_storm(threads=8, seed=STORM_SEED + 1)
        assert ledger_replay_digest(other) != ledger_replay_digest(
            single_history
        )


@pytest.mark.soak
class TestSoakStorm:
    def test_sixteen_threads_large_schedule(self):
        history = run_conformance_storm(
            threads=16,
            ops_per_thread=120,
            seed=STORM_SEED,
            max_batch=16,
        )
        assert_seqs_dense(history)
        assert_per_user_order(history)
        assert_observed_exactly_once(history)
