"""The acceptance invariants: what must hold while the storm blows.

Each test pins one clause of the resilience contract:

* no committed check-in is ever lost — retries land every one;
* the faulted run's committed end state equals the fault-free run's
  (ledger parity in one digest);
* the crawl frontier drains despite a 20% fetch-failure storm;
* targeted bus faults stay isolated to the victim subscriber;
* the breaker drill opens, half-opens, and closes on schedule;
* every injected fault and recovery is visible in metrics and in the
  JSONL flight recorder, carrying trace ids.
"""

from __future__ import annotations

import json

from repro.obs.log import WARNING
from repro.workload.chaos import BREAKER_FAILURE_THRESHOLD


class TestNoLostCommits:
    def test_every_checkin_returned(self, storm):
        report = storm.report
        assert report.checkins_attempted == storm.config.checkins
        assert report.checkins_returned == report.checkins_attempted
        assert report.commit_success_rate == 1.0

    def test_no_retry_budget_exhausted(self, storm):
        assert storm.report.commit_exhausted == 0

    def test_commit_faults_actually_fired(self, storm):
        """The invariant is vacuous unless the storm really bit."""
        assert storm.report.commit_retries > 0
        assert storm.report.faults_fired.get("store.commit", 0) > 0


class TestFaultFreeParity:
    def test_clean_run_has_no_fault_sequence(self, clean):
        assert clean.report.fault_sequence_digest == ""
        assert clean.report.faults_fired == {}

    def test_committed_state_matches_clean_run(self, storm, clean):
        assert (
            storm.report.committed_state_digest
            == clean.report.committed_state_digest
        )

    def test_ledger_suspects_match_clean_run(self, storm, clean):
        assert storm.report.ledger_suspects == clean.report.ledger_suspects
        assert storm.report.ledger_suspects  # the cheaters are in there

    def test_clean_run_needed_no_retries(self, clean):
        assert clean.report.commit_retries == 0
        assert clean.report.victim_errors == 0


class TestCrawlSurvivesStorm:
    def test_frontier_drained(self, storm):
        assert not storm.report.crawl_aborted
        crawl = storm.report.crawl
        assert crawl is not None
        assert crawl.hits > 0

    def test_storm_actually_hit_the_crawl(self, storm):
        assert storm.report.faults_fired.get("crawler.fetch", 0) > 0

    def test_failures_classified_transient(self, storm):
        """Injected fetch faults are retryable, not permanent refusals."""
        crawl = storm.report.crawl
        assert crawl.transient_failures == crawl.failures

    def test_page_accounting_balances(self, storm):
        crawl = storm.report.crawl
        assert crawl.hits + crawl.misses + crawl.failures == (
            crawl.pages_fetched
        )

    def test_crawl_recovers_almost_everything(self, storm, clean):
        """Retries recover every page short of a full retry-budget bust.

        A page is lost only when *all* ``FETCH_MAX_RETRIES + 1`` attempts
        draw a fault (p = fetch_failure^4 ≈ 0.16%), so the clean run's
        hit count bounds the storm's hits + residual failures.
        """
        assert clean.report.crawl is not None
        assert clean.report.crawl.failures == 0
        crawl = storm.report.crawl
        assert crawl.hits + crawl.failures >= clean.report.crawl.hits
        # And the residue really is the tail of the 0.2^4 geometric.
        assert crawl.failures <= max(5, crawl.pages_fetched // 50)


class TestBusIsolation:
    def test_victim_absorbed_faults(self, storm):
        assert storm.report.victim_errors > 0

    def test_victim_still_saw_the_stream(self, storm):
        assert storm.report.victim_delivered > 0

    def test_ledger_untouched_by_victim_faults(self, storm, clean):
        # Same events reached the detector despite subscriber storms.
        assert storm.report.ledger_suspects == clean.report.ledger_suspects


class TestBreakerDrill:
    def test_opened_at_threshold(self, storm):
        assert (
            storm.report.breaker_failures_to_open
            == BREAKER_FAILURE_THRESHOLD
        )

    def test_full_lifecycle(self, storm):
        report = storm.report
        assert report.breaker_short_circuited
        assert report.breaker_half_opened
        assert report.breaker_reopened_on_probe_failure
        assert report.breaker_closed_after_probe


class TestMetricsVisibility:
    def test_fault_metrics_registered(self, storm):
        names = set(storm.metric_names())
        assert "repro_faults_injected_total" in names
        assert "repro_faults_checks_total" in names
        assert "repro_faults_armed" in names

    def test_retry_metrics_registered(self, storm):
        names = set(storm.metric_names())
        assert "repro_retry_attempts_total" in names
        assert "repro_retry_recoveries_total" in names
        assert "repro_retry_exhausted_total" in names

    def test_breaker_metrics_registered(self, storm):
        names = set(storm.metric_names())
        assert "repro_breaker_state" in names
        assert "repro_breaker_transitions_total" in names
        assert "repro_breaker_short_circuits_total" in names

    def test_injected_counts_match_report(self, storm):
        family = storm.metrics.get("repro_faults_injected_total")
        by_point: dict = {}
        for labelvalues, child in family.children():
            point = labelvalues[0]
            by_point[point] = by_point.get(point, 0) + int(child.value)
        assert by_point == storm.report.faults_fired

    def test_retries_recovered(self, storm):
        def total(name: str) -> float:
            family = storm.metrics.get(name)
            assert family is not None
            return sum(child.value for _, child in family.children())

        assert total("repro_retry_recoveries_total") > 0
        assert total("repro_retry_exhausted_total") == 0


class TestLogVisibility:
    def test_fault_injected_records_present(self, storm):
        records = storm.records(event="fault.injected")
        assert records
        assert all(record.level >= WARNING for record in records)
        points = {record.fields["point"] for record in records}
        assert "store.commit" in points

    def test_retry_attempts_logged_with_trace_ids(self, storm):
        records = storm.records(event="retry.attempt")
        assert records
        commit_retries = [
            r for r in records if r.fields.get("op") == "store.commit"
        ]
        assert commit_retries
        assert all(r.trace_id for r in commit_retries)

    def test_commit_faults_carry_trace_ids(self, storm):
        commit_faults = [
            r
            for r in storm.records(event="fault.injected")
            if r.fields["point"] == "store.commit"
        ]
        assert commit_faults
        assert all(r.trace_id for r in commit_faults)

    def test_breaker_transitions_logged(self, storm):
        events = {
            record.event
            for record in storm.records()
            if record.event.startswith("breaker.")
        }
        assert {"breaker.open", "breaker.half_open", "breaker.closed"} <= (
            events
        )

    def test_flight_recorder_exports_jsonl(self, storm):
        lines = [
            line for line in storm.jsonl().splitlines() if line.strip()
        ]
        assert lines
        parsed = [json.loads(line) for line in lines[:50]]
        assert all("event" in record and "ts" in record for record in parsed)

    def test_zero_wall_clock_cost(self, storm, clean):
        """Both runs finish in interactive time — nothing really slept."""
        assert storm.report.wall_seconds < 60.0
        assert clean.report.wall_seconds < 60.0
