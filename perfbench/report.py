"""Per-layer metrics of a traced run, built from the tracer's spans.

Self times are reported per unit of work: microseconds per check-in on
``city`` and ``regulars``, per page on ``crawl`` and per event for the cold
replay.  On the crawl, two threads are inside spans at once, so thread
self time is divided by the thread count: the layer's share of wall time.
Every metric is printed on every workload; a layer a workload never calls
reads zero there.
"""

from __future__ import annotations

from typing import Dict, Optional

from perfbench.common import Result

#: (metric, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("simnet.http.self_us", "us"),
    ("lbsn.api.self_us", "us"),
    ("lbsn.webserver.self_us", "us"),
    ("obs.context.mint_us", "us"),
    ("defense.integration.self_us", "us"),
    ("defense.ledger_gate_us", "us"),
    ("defense.refused_ratio", "ratio"),
    ("lbsn.service.self_us", "us"),
    ("lbsn.cheater_code.self_us", "us"),
    ("lbsn.cheater_code.history_rows", "count"),
    ("lbsn.cheater_code.allow_ratio", "ratio"),
    ("lbsn.mayorship.self_us", "us"),
    ("lbsn.mayorship.venue_rows", "count"),
    ("lbsn.mayorship.changed_ratio", "ratio"),
    ("lbsn.rewards.self_us", "us"),
    ("lbsn.rewards.badges_per_1k", "count"),
    ("lbsn.store.commit_us", "us"),
    ("lbsn.store.lock_hold_us", "us"),
    ("lbsn.store.read_us", "us"),
    ("obs.log.self_us", "us"),
    ("obs.log.records_per_checkin", "count"),
    ("stream.bus.self_us", "us"),
    ("stream.bus.deliveries_per_event", "count"),
    ("stream.bus.errors", "count"),
    ("stream.ledger.self_us", "us"),
    ("stream.ledger.users_resident", "count"),
    ("defense.honeypot.self_us", "us"),
    ("defense.honeypot.pins", "count"),
    ("durable.pipeline.self_us", "us"),
    ("durable.ledger_apply_us", "us"),
    ("durable.wal.append_us", "us"),
    ("durable.wal.bytes_per_event", "bytes"),
    ("durable.wal.sync_us", "us"),
    ("durable.wal.fsyncs_per_1k", "count"),
    ("durable.wal.decode_us", "us"),
    ("durable.replay.ledger_us", "us"),
    ("durable.replay.self_us", "us"),
    ("durable.replay.events_per_s", "1/s"),
    ("crawler.worker.self_us", "us"),
    ("crawler.frontier.self_us", "us"),
    ("crawler.fetch.self_us", "us"),
    ("lbsn.webserver.render_user_us", "us"),
    ("lbsn.webserver.render_venue_us", "us"),
    ("lbsn.webserver.bytes_per_page", "bytes"),
    ("crawler.parser.user_us", "us"),
    ("crawler.parser.venue_us", "us"),
    ("crawler.database.upsert_us", "us"),
    ("crawler.database.recompute_s", "s"),
    ("crawler.hit_ratio", "ratio"),
    ("crawler.failures", "count"),
    ("crawler.cpu_us_per_page", "us"),
    ("workload.generate_s", "s"),
    ("workload.replay_s", "s"),
    ("workload.replay_checkins", "count"),
    ("lbsn.refresh_mayorships_s", "s"),
    ("trace.wall_us_per_op", "us"),
    ("trace.self_sum_us_per_op", "us"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
]

#: Per-op self-time metric -> tracer layer, timed phase.
RUN_LAYERS = {
    "simnet.http.self_us": "simnet.http",
    "lbsn.api.self_us": "lbsn.api",
    "lbsn.webserver.self_us": "lbsn.webserver",
    "obs.context.mint_us": "obs.context.mint",
    "defense.integration.self_us": "defense.integration",
    "defense.ledger_gate_us": "defense.ledger_gate",
    "lbsn.service.self_us": "lbsn.service",
    "lbsn.cheater_code.self_us": "lbsn.cheater_code",
    "lbsn.mayorship.self_us": "lbsn.mayorship",
    "lbsn.rewards.self_us": "lbsn.rewards",
    "lbsn.store.commit_us": "lbsn.store.commit",
    "lbsn.store.read_us": "lbsn.store.read",
    "obs.log.self_us": "obs.log",
    "stream.bus.self_us": "stream.bus",
    "stream.ledger.self_us": "stream.ledger",
    "defense.honeypot.self_us": "defense.honeypot",
    "durable.pipeline.self_us": "durable.pipeline",
    "durable.ledger_apply_us": "durable.ledger_apply",
    "durable.wal.append_us": "durable.wal.append",
    "durable.wal.sync_us": "durable.wal.sync",
    "crawler.worker.self_us": "crawler.worker",
    "crawler.frontier.self_us": "crawler.frontier",
    "crawler.fetch.self_us": "crawler.fetch",
    "lbsn.webserver.render_user_us": "lbsn.webserver.render_user",
    "lbsn.webserver.render_venue_us": "lbsn.webserver.render_venue",
    "crawler.parser.user_us": "crawler.parser.user",
    "crawler.parser.venue_us": "crawler.parser.venue",
    "crawler.database.upsert_us": "crawler.database.upsert",
}

#: Per-event self-time metric -> tracer layer, cold replay.
REPLAY_LAYERS = {
    "durable.wal.decode_us": "durable.wal.decode",
    "durable.replay.ledger_us": "durable.replay.ledger",
    "durable.replay.self_us": "durable.replay",
}

#: A traced run fails when per-layer self times miss its wall time by more.
COVERAGE_TOLERANCE = 0.10


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def emit(res: Result, values: Dict[str, float]) -> None:
    """Set every per-layer metric, zero where the workload has none."""
    for name, unit in PER_LAYER:
        res.metric(name, values.get(name, 0.0), unit)


def timed_phase(
    values: Dict[str, float],
    res: Result,
    tracer,
    ops: int,
    wall: float,
    untraced_ops: int,
    untraced_wall: float,
    threads: int = 1,
) -> None:
    """Self times per op, the coverage check and the tracing overhead."""
    self_s = tracer.self_seconds()
    per_op = 1e6 / (ops * threads) if ops else 0.0
    for metric, layer in RUN_LAYERS.items():
        values[metric] = self_s.get(layer, 0.0) * per_op
    wall_us = _ratio(wall * 1e6, ops)
    self_sum = sum(self_s.values()) * per_op
    coverage = _ratio(self_sum, wall_us)
    traced_rate = _ratio(ops, wall)
    untraced_rate = _ratio(untraced_ops, untraced_wall)
    values.update({
        "trace.wall_us_per_op": wall_us,
        "trace.self_sum_us_per_op": self_sum,
        "trace.coverage_ratio": coverage,
        "trace.ops_per_s": traced_rate,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.overhead_ratio": _ratio(untraced_rate, traced_rate) - 1.0,
    })
    res.detail["traced_ops"] = ops
    res.check(
        abs(coverage - 1.0) <= COVERAGE_TOLERANCE,
        f"per-layer self times sum to {self_sum:.1f} us/op, "
        f"{coverage:.3f} of the traced wall time {wall_us:.1f} us/op",
    )


def setup_phase(values: Dict[str, float], setup_tracer) -> None:
    self_s = setup_tracer.self_seconds()
    values["workload.generate_s"] = self_s.get("workload.generate", 0.0)
    values["workload.replay_s"] = self_s.get("workload.replay", 0.0)
    values["workload.replay_checkins"] = setup_tracer.counts().get(
        "replay.checkins", 0.0
    )
    values["lbsn.refresh_mayorships_s"] = self_s.get(
        "lbsn.refresh_mayorships", 0.0
    )


def checkin_layers(
    res: Result,
    plan,
    observed,
    tracer,
    setup_tracer,
    replay_tracer,
    replay_events: int,
    replay_wall: Optional[float],
) -> None:
    """Per-layer metrics of a traced ``city`` or ``regulars`` run."""
    stack = plan.stack
    values: Dict[str, float] = {}
    timed_phase(
        values, res, tracer, observed.traced_ops, observed.traced_wall,
        observed.untraced_ops, observed.untraced_wall,
    )
    setup_phase(values, setup_tracer)
    ops = observed.traced_ops
    calls = tracer.calls()
    counts = tracer.counts()
    hold_sum, hold_count = observed.lock_hold
    values.update({
        "defense.refused_ratio": _ratio(counts.get("gate.refused", 0), ops),
        "lbsn.cheater_code.history_rows": _ratio(
            counts.get("cheater_code.history_rows", 0),
            calls.get("lbsn.cheater_code", 0),
        ),
        "lbsn.cheater_code.allow_ratio": _ratio(
            counts.get("cheater_code.allow", 0), calls.get("lbsn.cheater_code", 0)
        ),
        "lbsn.mayorship.venue_rows": _ratio(
            counts.get("mayorship.venue_rows", 0), calls.get("lbsn.mayorship", 0)
        ),
        "lbsn.mayorship.changed_ratio": _ratio(
            counts.get("mayorship.changed", 0), calls.get("lbsn.mayorship", 0)
        ),
        "lbsn.rewards.badges_per_1k": 1000.0 * _ratio(
            counts.get("rewards.badges", 0), calls.get("lbsn.rewards", 0)
        ),
        "lbsn.store.lock_hold_us": 1e6 * _ratio(hold_sum, hold_count),
        "obs.log.records_per_checkin": _ratio(counts.get("log.kept", 0), ops),
        "stream.bus.deliveries_per_event": _ratio(
            tracer.child_calls("stream.bus"), calls.get("stream.bus", 0)
        ),
        "stream.bus.errors": stack.bus_errors,
        "stream.ledger.users_resident": len(stack.ledger.activity.users),
        "defense.honeypot.pins": len(stack.honeypots.flagged_accounts()),
        "durable.wal.bytes_per_event": _ratio(
            counts.get("wal.bytes", 0), calls.get("durable.wal.append", 0)
        ),
        "durable.wal.fsyncs_per_1k": 1000.0 * _ratio(observed.fsyncs, ops),
    })
    if replay_tracer is not None:
        replay_self = replay_tracer.self_seconds()
        for metric, layer in REPLAY_LAYERS.items():
            values[metric] = 1e6 * _ratio(replay_self.get(layer, 0.0), replay_events)
        values["durable.replay.events_per_s"] = _ratio(replay_events, replay_wall)
    emit(res, values)
