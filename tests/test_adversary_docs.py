"""docs/ADVERSARY.md is executable documentation.

Two-way parity between the doc's metric table and the families a fully
exercised :class:`HoneypotRegistry` actually registers, anchor checks
for the load-bearing claims (the visibility law, the pinning contract,
the CLI verb, the E26 entry and cross-links), and a guard that the
honeypot families stay *out* of the plain metrics workload — the
OBSERVABILITY.md catalogue must not grow when the adversary tier is
off.
"""

import re
from pathlib import Path

import pytest

from repro.defense.honeypot import RULE_HONEYPOT, HoneypotRegistry
from repro.geo.coordinates import GeoPoint
from repro.lbsn.service import LbsnService
from repro.obs.metrics import MetricsRegistry
from repro.stream.events import CheckInAccepted

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"

HONEYPOT_PREFIX = "repro_honeypot_"
ABQ = GeoPoint(35.0844, -106.6504)


@pytest.fixture(scope="module")
def doc_text():
    return (DOCS / "ADVERSARY.md").read_text()


@pytest.fixture(scope="module")
def registered_names():
    """Every honeypot family a fully exercised registry registers."""
    registry = MetricsRegistry()
    service = LbsnService()
    for index in range(10):
        service.create_venue(
            name=f"anchor-{index}",
            location=GeoPoint(ABQ.latitude + index * 0.01, ABQ.longitude),
        )
    honeypots = HoneypotRegistry(service, metrics=registry)
    trap = honeypots.seed(density=0.01, seed=1, count=2)[0]
    honeypots.on_event(
        CheckInAccepted(
            seq=1,
            timestamp=0.0,
            user_id=7,
            venue_id=trap,
            venue_location=ABQ,
            reported_location=ABQ,
        )
    )
    return {
        name
        for name in registry.names()
        if name.startswith(HONEYPOT_PREFIX)
    }


def _documented_metrics(doc_text):
    names = set()
    for line in doc_text.splitlines():
        match = re.match(r"\| `(repro_[a-z0-9_]+)`", line)
        if match:
            names.add(match.group(1))
    return names


class TestMetricCatalogueParity:
    def test_every_registered_metric_is_documented(
        self, doc_text, registered_names
    ):
        assert registered_names  # the fixture actually tripped a trap
        missing = registered_names - _documented_metrics(doc_text)
        assert not missing, (
            f"honeypot metrics registered but absent from "
            f"docs/ADVERSARY.md: {sorted(missing)}"
        )

    def test_every_documented_metric_is_registered(
        self, doc_text, registered_names
    ):
        stale = _documented_metrics(doc_text) - registered_names
        assert not stale, (
            f"metrics documented in docs/ADVERSARY.md but never "
            f"registered by an exercised HoneypotRegistry: {sorted(stale)}"
        )

    def test_doc_table_rows_are_honeypot_families_only(self, doc_text):
        """Ledger/bus families belong to OBSERVABILITY.md's table."""
        for name in _documented_metrics(doc_text):
            assert name.startswith(HONEYPOT_PREFIX), name


class TestDocAnchors:
    """The load-bearing claims the doc makes must stay true by name."""

    def test_pin_rule_literal_matches_code(self, doc_text):
        assert RULE_HONEYPOT == "honeypot-venue"
        assert "`RULE_HONEYPOT`" in doc_text

    def test_core_classes_named(self, doc_text):
        for anchor in (
            "`RingCoordinator`",
            "`HoneypotRegistry",
            "`SuspicionLedger",
            "`DefendedLbsnService`",
            "`CheckInScheduler`",
        ):
            assert anchor in doc_text, anchor

    def test_pinning_contract_documented(self, doc_text):
        assert ".pin(" in doc_text or "pin(user_id" in doc_text
        assert "pinned_rule()" in doc_text
        assert "flag_trace_id()" in doc_text
        assert "min_total_checkins" in doc_text

    def test_visibility_law_stated(self, doc_text):
        assert "visibility law" in doc_text
        assert "GeneratedVenues" in doc_text

    def test_cli_verbs_documented(self, doc_text):
        assert "repro adversary" in doc_text
        assert "--verify" in doc_text

    def test_proof_suites_cross_referenced(self, doc_text):
        for anchor in (
            "tests/test_adversary_ring.py",
            "tests/test_adversary_workload.py",
            "tests/test_stream_ledger_pin.py",
            "benchmarks/bench_e26_adversary.py",
        ):
            assert anchor in doc_text, anchor

    def test_knobs_documented(self, doc_text):
        for knob in (
            "REPRO_E26_SCALE",
            "REPRO_E26_RINGS",
            "REPRO_E26_HONEST",
        ):
            assert knob in doc_text, knob


class TestCrossLinks:
    """The doc web: every surface that should point here does."""

    def test_architecture_links_to_adversary_doc(self):
        text = (DOCS / "ARCHITECTURE.md").read_text()
        assert "docs/ADVERSARY.md" in text
        assert "repro.adversary" in text

    def test_experiments_has_an_e26_entry(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        assert "## E26 " in text
        assert "docs/ADVERSARY.md" in text
        assert "E26_adversary.txt" in text

    def test_design_table_names_the_bench(self):
        text = (REPO / "DESIGN.md").read_text()
        assert "benchmarks/bench_e26_adversary.py" in text
        assert "E26" in text

    def test_readme_lists_the_cli_verb(self):
        text = (REPO / "README.md").read_text()
        assert "repro adversary" in text


class TestNoLeakIntoObservabilityCatalogue:
    def test_plain_metrics_workload_registers_no_honeypot_metrics(self):
        """The OBSERVABILITY.md parity fixture must stay honeypot-free."""
        from repro.cli import run_metrics_workload

        registry, _, _ = run_metrics_workload(scale=0.0002, seed=5)
        leaked = {
            name
            for name in registry.names()
            if name.startswith(HONEYPOT_PREFIX)
        }
        assert not leaked, (
            f"honeypot metrics leaked into the plain metrics workload "
            f"(this breaks the OBSERVABILITY.md catalogue): {sorted(leaked)}"
        )
