"""Ledger pinning: externally attested suspects survive every rescore.

The honeypot tier (repro.defense.honeypot) holds evidence the
three-factor scoring model cannot express; ``SuspicionLedger.pin``
promotes that evidence into permanent ledger membership.  These tests
pin down the contract: pinned users are reportable at any volume,
survive lazy rescore-on-read, carry rule + trace, round-trip through
snapshots (including pre-pinning snapshots), and land in the digest.
"""

from repro.analysis.detection import DetectorConfig
from repro.defense.honeypot import RULE_HONEYPOT
from repro.geo.coordinates import GeoPoint
from repro.obs.log import LogHub
from repro.obs.metrics import MetricsRegistry
from repro.stream import CheckInAccepted, SuspicionLedger

HERE = GeoPoint(35.0844, -106.6504)


def accepted(user_id, venue_id, ts, where=HERE, badges=0):
    return CheckInAccepted(
        seq=-1,
        timestamp=ts,
        user_id=user_id,
        venue_id=venue_id,
        venue_location=where,
        reported_location=where,
        new_badge_count=badges,
    )


class TestPinBasics:
    def test_pinned_user_is_suspect_with_zero_checkins(self):
        # External evidence needs no volume: the min_total_checkins gate
        # must not launder away a honeypot hit on a fresh account.
        ledger = SuspicionLedger(DetectorConfig(min_total_checkins=100))
        ledger.pin(7, rule=RULE_HONEYPOT, trace_id="tr-1")
        assert ledger.is_suspect(7)
        assert ledger.pinned_rule(7) == RULE_HONEYPOT
        assert ledger.flag_trace_id(7) == "tr-1"

    def test_pin_survives_lazy_rescore_on_read(self):
        ledger = SuspicionLedger(DetectorConfig(min_total_checkins=100))
        ledger.pin(7, rule=RULE_HONEYPOT)
        # Low-volume organic activity would evict an unpinned suspect on
        # the next read; the pin must hold through repeated rescoring.
        for i in range(5):
            ledger.on_event(accepted(7, i, ts=float(i)))
        for _ in range(3):
            assert ledger.is_suspect(7)
        assert 7 in ledger.suspect_ids()

    def test_pin_is_idempotent_one_flag(self):
        metrics = MetricsRegistry()
        ledger = SuspicionLedger(
            DetectorConfig(min_total_checkins=100), metrics=metrics
        )
        ledger.pin(7, rule=RULE_HONEYPOT, trace_id="tr-first")
        ledger.pin(7, rule="manual-review", trace_id="tr-second")
        flags = metrics.get("repro_ledger_flags_raised_total")
        assert flags.value == 1
        # Rule updates; the original flag trace is preserved.
        assert ledger.pinned_rule(7) == "manual-review"
        assert ledger.flag_trace_id(7) == "tr-first"

    def test_pin_emits_ledger_flag_record_with_rule(self):
        hub = LogHub()
        ledger = SuspicionLedger(
            DetectorConfig(min_total_checkins=100), log=hub
        )
        ledger.pin(9, rule=RULE_HONEYPOT, trace_id="tr-9")
        records = [
            record
            for record in hub.records()
            if record.event == "ledger.flag"
        ]
        assert len(records) == 1
        assert records[0].fields["rule"] == RULE_HONEYPOT
        assert records[0].fields["trace_id"] == "tr-9"
        assert records[0].fields["user_id"] == 9

    def test_unpinned_users_keep_normal_threshold_semantics(self):
        ledger = SuspicionLedger(DetectorConfig(min_total_checkins=50))
        ledger.pin(7, rule=RULE_HONEYPOT)
        for i in range(30):
            ledger.on_event(accepted(1, i, ts=float(i)))
        assert not ledger.is_suspect(1)
        assert ledger.is_suspect(7)

    def test_suspects_gauge_counts_pinned(self):
        metrics = MetricsRegistry()
        ledger = SuspicionLedger(
            DetectorConfig(min_total_checkins=100), metrics=metrics
        )
        ledger.pin(3, rule=RULE_HONEYPOT)
        ledger.pin(4, rule=RULE_HONEYPOT)
        assert metrics.get("repro_ledger_suspects").value == 2


class TestPinSnapshotRoundTrip:
    def test_state_dict_round_trips_pins(self):
        ledger = SuspicionLedger(DetectorConfig(min_total_checkins=100))
        ledger.pin(7, rule=RULE_HONEYPOT, trace_id="tr-7")
        restored = SuspicionLedger(
            DetectorConfig(min_total_checkins=100)
        )
        restored.load_state_dict(ledger.state_dict())
        assert restored.is_suspect(7)
        assert restored.pinned_rule(7) == RULE_HONEYPOT
        assert restored.flag_trace_id(7) == "tr-7"
        assert restored.digest() == ledger.digest()

    def test_pins_change_the_digest(self):
        plain = SuspicionLedger(DetectorConfig())
        pinned = SuspicionLedger(DetectorConfig())
        pinned.pin(7, rule=RULE_HONEYPOT)
        assert plain.digest() != pinned.digest()

    def test_digest_ignores_pin_traces(self):
        # Trace ids are uuid-per-request; two otherwise identical runs
        # must compare equal, exactly like ordinary flag traces.
        one = SuspicionLedger(DetectorConfig())
        one.pin(7, rule=RULE_HONEYPOT, trace_id="tr-aaa")
        two = SuspicionLedger(DetectorConfig())
        two.pin(7, rule=RULE_HONEYPOT, trace_id="tr-bbb")
        assert one.digest() == two.digest()
