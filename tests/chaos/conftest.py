"""The chaos harness: seeded storms, replays, and a fault-free control.

Every fixture here is built on :func:`repro.workload.chaos.run_chaos`
and shares one contract: **all time is simulated**.  An autouse guard
monkeypatches ``time.sleep`` to fail loudly, so any code path that
tries to wait on the wall clock turns the whole suite red.

The expensive artefacts (a full chaos run replays a world build, a
crawl, a check-in storm, a breaker drill, and a web probe) are
session-scoped; tests treat harnesses as read-only.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

import pytest

from repro.obs.log import LogHub
from repro.obs.metrics import MetricsRegistry
from repro.workload.chaos import ChaosConfig, ChaosReport, run_chaos

#: Small but complete: ~570 users / ~1,680 venues, a few seconds a run.
CHAOS_SCALE = 0.0003
CHAOS_SEED = 42
CHAOS_FAULT_SEED = 1337
CHAOS_CHECKINS = 120


def make_config(**overrides) -> ChaosConfig:
    """The suite's canonical config, with per-test overrides."""
    base = ChaosConfig(
        scale=CHAOS_SCALE,
        seed=CHAOS_SEED,
        fault_seed=CHAOS_FAULT_SEED,
        checkins=CHAOS_CHECKINS,
    )
    return dataclasses.replace(base, **overrides)


class ChaosHarness:
    """One instrumented chaos run: config + registry + log hub + report.

    Reusable beyond these tests — ``ChaosHarness.run(fault_seed=7)``
    gives any suite a fully-observed storm to assert against, and
    running it twice with identical overrides is the replay contract.
    """

    def __init__(
        self,
        config: ChaosConfig,
        metrics: MetricsRegistry,
        log: LogHub,
        report: ChaosReport,
    ) -> None:
        self.config = config
        self.metrics = metrics
        self.log = log
        self.report = report

    @classmethod
    def run(cls, config: Optional[ChaosConfig] = None, **overrides):
        """Execute one chaos run under fresh instrumentation."""
        config = config or make_config(**overrides)
        metrics = MetricsRegistry()
        log = LogHub(ring_size=65_536, metrics=metrics)
        report = run_chaos(config, metrics=metrics, log=log)
        return cls(config, metrics, log, report)

    # Convenience views ------------------------------------------------

    def records(self, **filters):
        """Structured log records, filtered like ``LogHub.records``."""
        return self.log.records(**filters)

    def jsonl(self) -> str:
        """The whole flight recorder as JSONL."""
        return self.log.export_jsonl()

    def metric_names(self):
        return self.metrics.names()


@pytest.fixture(autouse=True)
def forbid_wall_clock_sleep(monkeypatch):
    """Chaos tests must never wait on the wall clock.

    Applies to the session-scoped runs too: they are built lazily,
    inside the first test that requests them, while this guard is live.
    """

    def _no_sleep(seconds):  # pragma: no cover - failure path
        raise AssertionError(
            f"wall-clock time.sleep({seconds!r}) during a chaos test; "
            "pace simulated work through clock.advance instead"
        )

    monkeypatch.setattr(time, "sleep", _no_sleep)


@pytest.fixture(scope="session")
def storm() -> ChaosHarness:
    """The canonical 20%/5% acceptance storm, fully instrumented."""
    return ChaosHarness.run()


@pytest.fixture(scope="session")
def storm_replay() -> ChaosHarness:
    """The identical storm run a second time — the replay of ``storm``."""
    return ChaosHarness.run()


@pytest.fixture(scope="session")
def clean() -> ChaosHarness:
    """The same workload seeds with no fault injector wired at all."""
    return ChaosHarness.run(faults_enabled=False)
