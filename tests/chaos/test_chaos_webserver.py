"""Observability routes stay correct while the web surface burns.

Satellite regression: the fault middleware injects 5xx / timeouts into
public pages, but ``/metrics``, ``/debug/vars``, and ``/debug/logs``
are exempt by prefix and must keep serving accurate telemetry — they
are exactly the routes an operator needs *during* an incident.
"""

from __future__ import annotations

import json

from repro.workload.chaos import WEB_PROBES


class TestPublicSurfaceUnderStorm:
    def test_injected_5xx_observed(self, storm):
        statuses = storm.report.web_statuses
        assert sum(statuses.values()) == WEB_PROBES
        injected = sum(
            count for status, count in statuses.items() if status >= 500
        )
        assert injected > 0

    def test_every_5xx_is_an_injected_500(self, storm):
        """The standard storm's web spec is HTTP/500; nothing else may
        produce a server error, and every fired web fault during the
        probe phase shows up in the status histogram."""
        errors = {
            status: count
            for status, count in storm.report.web_statuses.items()
            if status >= 500
        }
        assert set(errors) == {500}
        assert storm.report.faults_fired.get("web.request", 0) >= sum(
            errors.values()
        )

    def test_most_pages_still_served(self, storm):
        statuses = storm.report.web_statuses
        ok = statuses.get(200, 0)
        assert ok > WEB_PROBES // 2

    def test_clean_run_serves_everything(self, clean):
        statuses = clean.report.web_statuses
        assert set(statuses) == {200}


class TestObservabilityRoutesExempt:
    def test_metrics_route_stays_ok(self, storm):
        assert storm.report.metrics_route_ok is True

    def test_debug_vars_route_stays_ok(self, storm):
        assert storm.report.debug_vars_route_ok is True

    def test_debug_logs_route_stays_ok(self, storm):
        assert storm.report.debug_logs_route_ok is True

    def test_crawl_traffic_shares_the_web_fault_stream(self, storm):
        """Phase A's crawler rides the same middleware, so total
        ``web.request`` fires exceed what the probe histogram alone
        shows — the point is armed for *all* non-exempt traffic."""
        probe_500s = storm.report.web_statuses.get(500, 0)
        assert storm.report.faults_fired.get("web.request", 0) > probe_500s


class TestRegistryReflectsInjectedErrors:
    def test_web_faults_counted_in_metrics(self, storm):
        family = storm.metrics.get("repro_faults_injected_total")
        assert family is not None
        web_fired = sum(
            int(child.value)
            for labelvalues, child in family.children()
            if labelvalues[0] == "web.request"
        )
        assert web_fired == storm.report.faults_fired.get("web.request", 0)
        assert web_fired > 0

    def test_injected_web_faults_logged(self, storm):
        records = [
            record
            for record in storm.records(event="fault.injected")
            if record.fields["point"] == "web.request"
        ]
        assert records
        # Labels carry the faulted path — never an exempt one.
        for record in records:
            label = record.fields.get("label") or ""
            assert not label.startswith("/metrics")
            assert not label.startswith("/debug/")

    def test_flight_recorder_has_web_faults_in_jsonl(self, storm):
        lines = [
            json.loads(line)
            for line in storm.jsonl().splitlines()
            if '"fault.injected"' in line
        ]
        assert any(
            record.get("point") == "web.request" for record in lines
        )
