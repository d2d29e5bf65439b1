"""E22 (extension) — §3.2 resilience: the seeded fault storm.

The thesis's crawler ran for days against a live service that rate
limited, banned, and failed it; surviving that weather *was* the
methodology. This experiment turns the weather on deliberately: the
standard storm (**20% fetch failure / 5% bus-subscriber failure**, light
commit contention, injected web 5xx, network latency shaping) blows
through every layer while the four-phase chaos workload
(:func:`repro.workload.chaos.run_chaos`) measures what survives.

Acceptance bars (all asserted):

1. **Determinism** — replaying the same seeds reproduces a
   byte-identical fault sequence digest *and* end-state digest.
2. **No lost committed check-ins** — every check-in in the storm run
   lands (retries recover all injected commit contention; zero retry
   budgets exhausted).
3. **Fault/no-fault parity** — the committed end state (rows, pipeline
   counters, ledger suspects) of the faulted run equals the fault-free
   control run's, digest for digest.
4. **The frontier drains** — the crawl completes (no abort) under the
   20% fetch storm, with circuit breakers and simulated-time backoff.
5. **Breaker lifecycle** — opens at its threshold, short-circuits,
   half-opens on schedule, re-opens on a probe failure, closes on a
   probe success.
6. **Observability** — injected faults and recoveries are visible in
   the metrics registry and the JSONL log ring, trace ids attached;
   ``/metrics`` and ``/debug/*`` stay correct while the public surface
   serves injected 5xx.

Everything runs on the simulated clock — zero wall-clock sleeps; the
whole storm finishes in interactive time.

Environment knobs (CI smoke mode shrinks the first two):

* ``REPRO_E22_SCALE`` — world scale (default 0.0005, ~950 users).
* ``REPRO_E22_CHECKINS`` — check-in storm size (default 300).
* ``REPRO_E22_FETCH_FAILURE`` — crawler fetch failure rate (default 0.2).
* ``REPRO_E22_SUBSCRIBER_FAILURE`` — victim-subscriber failure rate
  (default 0.05).
"""

import os

from repro.faults.plan import STORM_COMMIT_FAILURE, STORM_WEB_FAILURE
from repro.obs import LogHub, MetricsRegistry
from repro.workload.chaos import ChaosConfig, run_chaos

SCALE = float(os.environ.get("REPRO_E22_SCALE", "0.0005"))
CHECKINS = int(os.environ.get("REPRO_E22_CHECKINS", "300"))
FETCH_FAILURE = float(os.environ.get("REPRO_E22_FETCH_FAILURE", "0.2"))
SUBSCRIBER_FAILURE = float(
    os.environ.get("REPRO_E22_SUBSCRIBER_FAILURE", "0.05")
)

SEED = 42
FAULT_SEED = 1337


def _config(**overrides) -> ChaosConfig:
    base = dict(
        scale=SCALE,
        seed=SEED,
        fault_seed=FAULT_SEED,
        checkins=CHECKINS,
        fetch_failure=FETCH_FAILURE,
        subscriber_failure=SUBSCRIBER_FAILURE,
    )
    base.update(overrides)
    return ChaosConfig(**base)


def test_e22_fault_storm(report_out, benchmark):
    """One storm, one replay, one fault-free control; all bars asserted."""
    metrics = MetricsRegistry()
    log = LogHub(ring_size=65_536, metrics=metrics)

    storm = benchmark.pedantic(
        lambda: run_chaos(_config(), metrics=metrics, log=log),
        rounds=1,
        iterations=1,
    )
    replay = run_chaos(_config())
    clean = run_chaos(_config(faults_enabled=False))

    # 1. Determinism.
    assert replay.replay_checks() == storm.replay_checks()

    # 2. No lost committed check-ins.
    assert storm.checkins_returned == storm.checkins_attempted == CHECKINS
    assert storm.commit_exhausted == 0
    assert storm.commit_retries > 0  # the storm really bit

    # 3. Fault/no-fault parity.
    assert storm.committed_state_digest == clean.committed_state_digest
    assert storm.ledger_suspects == clean.ledger_suspects

    # 4. The frontier drains under 20% fetch failure.
    assert not storm.crawl_aborted
    assert storm.crawl.hits > 0
    assert storm.faults_fired.get("crawler.fetch", 0) > 0

    # 5. Breaker lifecycle.
    assert storm.breaker_short_circuited
    assert storm.breaker_half_opened
    assert storm.breaker_reopened_on_probe_failure
    assert storm.breaker_closed_after_probe

    # 6. Observability: metrics + flight recorder + exempt routes.
    names = set(metrics.names())
    assert "repro_faults_injected_total" in names
    assert "repro_retry_recoveries_total" in names
    assert "repro_breaker_transitions_total" in names
    fault_records = log.records(event="fault.injected")
    assert fault_records
    commit_traced = [
        r
        for r in fault_records
        if r.fields["point"] == "store.commit" and r.trace_id
    ]
    assert commit_traced
    assert storm.metrics_route_ok and storm.debug_vars_route_ok
    assert storm.debug_logs_route_ok

    total_fired = sum(storm.faults_fired.values())
    injected_5xx = sum(
        count
        for status, count in storm.web_statuses.items()
        if status >= 500
    )
    rows = [
        f"world: scale {storm.config.scale} "
        f"(~{storm.crawl.hits} users crawled), seed {SEED}, "
        f"fault seed {FAULT_SEED}",
        f"storm: {FETCH_FAILURE:.0%} fetch failure, "
        f"{SUBSCRIBER_FAILURE:.0%} subscriber failure, "
        f"{STORM_COMMIT_FAILURE:.0%} commit contention, "
        f"{STORM_WEB_FAILURE:.0%} web 5xx; "
        f"{total_fired} faults fired",
        f"crawl under fire: {storm.crawl.hits} hits / "
        f"{storm.crawl.misses} misses / {storm.crawl.failures} residual "
        f"failures ({storm.crawl.transient_failures} transient); "
        f"aborted={storm.crawl_aborted}; "
        f"breaker opens={storm.crawler_breaker_opens}",
        f"check-in storm: {storm.checkins_returned}/"
        f"{storm.checkins_attempted} committed, "
        f"{storm.commit_retries} retries, "
        f"{storm.commit_exhausted} exhausted (bar: 0)",
        f"bus isolation: victim saw {storm.victim_delivered} events, "
        f"absorbed {storm.victim_errors} injected errors; "
        f"ledger suspects {storm.ledger_suspects} "
        f"(== fault-free run: {storm.ledger_suspects == clean.ledger_suspects})",
        f"breaker drill: opened after "
        f"{storm.breaker_failures_to_open} failures, "
        f"short-circuited={storm.breaker_short_circuited}, "
        f"half-opened={storm.breaker_half_opened}, "
        f"reopened-on-probe-failure={storm.breaker_reopened_on_probe_failure}, "
        f"closed-after-probe={storm.breaker_closed_after_probe}",
        f"web probe: {storm.web_statuses.get(200, 0)} ok / "
        f"{injected_5xx} injected 5xx over "
        f"{sum(storm.web_statuses.values())} requests; "
        f"/metrics ok={storm.metrics_route_ok}, "
        f"/debug/vars ok={storm.debug_vars_route_ok}, "
        f"/debug/logs ok={storm.debug_logs_route_ok}",
        f"determinism: replay fault digest identical="
        f"{storm.fault_sequence_digest == replay.fault_sequence_digest}, "
        f"replay state digest identical="
        f"{storm.committed_state_digest == replay.committed_state_digest}",
        "parity: faulted committed-state digest == fault-free digest: "
        + str(
            storm.committed_state_digest == clean.committed_state_digest
        ),
        f"fault sequence digest: {storm.fault_sequence_digest[:16]}…",
        f"committed state digest: {storm.committed_state_digest[:16]}…",
        f"flight recorder: {log.emitted} records, "
        f"{len(fault_records)} fault.injected "
        f"({len(commit_traced)} commit faults trace-stamped)",
        f"wall time (simulated clocks only): {storm.wall_seconds:.2f} s "
        f"storm / {clean.wall_seconds:.2f} s control",
    ]
    report_out(
        "E22_fault_storm",
        rows,
        summary={
            "scale": SCALE,
            "checkins": CHECKINS,
            "injected_5xx": injected_5xx,
            "replay_digest_identical": storm.fault_sequence_digest
            == replay.fault_sequence_digest,
            "state_parity_with_fault_free": storm.committed_state_digest
            == clean.committed_state_digest,
            "log_records": log.emitted,
            "storm_wall_seconds": round(storm.wall_seconds, 3),
        },
    )
