"""Ledger snapshot/restore: state round-trips, versioning, checksums.

The round-trip suite feeds a real event stream through a ledger, persists
it, restores into a fresh ledger, and demands *full* state equality —
including trace ids, which the parity digest deliberately scrubs but a
restore must preserve.  The validation suite covers the refusal matrix:
bad checksum, truncated body, wrong version, wrong format.
"""

import json

import pytest

from repro.analysis.detection import DetectorConfig
from repro.durable.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    SnapshotStore,
)
from repro.geo.coordinates import GeoPoint
from repro.stream import detectors
from repro.stream.events import CheckInAccepted, CheckInFlagged
from repro.stream.ledger import SuspicionLedger

CONFIG = DetectorConfig(min_total_checkins=10)


@pytest.fixture(autouse=True)
def small_bounds(monkeypatch):
    """Factor-table LRU bounds of 64 users and 64 venues."""
    monkeypatch.setattr(detectors, "MAX_USERS", 64)
    monkeypatch.setattr(detectors, "MAX_VENUES", 64)


def make_events(count=120, users=6, venues=7):
    events = []
    for seq in range(count):
        cls = CheckInFlagged if seq % 5 == 0 else CheckInAccepted
        lat = ((seq * 13) % 120) - 60.0
        lon = ((seq * 29) % 300) - 150.0
        kwargs = dict(
            user_id=seq % users,
            venue_id=seq % venues,
            venue_location=GeoPoint(lat, lon),
            reported_location=GeoPoint(lat, lon),
            checkin_id=seq,
            trace_id=f"trace-{seq:04d}",
        )
        if cls is CheckInAccepted:
            kwargs.update(points=3, new_badge_count=seq % 3)
        events.append(cls(seq, float(seq) * 60.0, **kwargs))
    return events


def fed_ledger(events):
    ledger = SuspicionLedger(config=CONFIG)
    for event in events:
        ledger.on_event(event)
    return ledger


class TestStateDictRoundTrip:
    def test_full_state_equality_including_traces(self):
        events = make_events()
        original = fed_ledger(events)
        restored = SuspicionLedger(config=CONFIG)
        restored.load_state_dict(original.state_dict())
        assert restored.state_dict() == original.state_dict()
        assert restored.events_processed == original.events_processed
        assert sorted(restored.suspect_ids()) == sorted(original.suspect_ids())
        # Traces survive the round trip (only digests scrub them).
        for user_id in original.suspect_ids():
            assert restored.flag_trace_id(user_id) == original.flag_trace_id(
                user_id
            )

    def test_restored_ledger_scores_identically_forward(self):
        events = make_events()
        original = fed_ledger(events[:80])
        restored = SuspicionLedger(config=CONFIG)
        restored.load_state_dict(original.state_dict())
        for event in events[80:]:
            original.on_event(event)
            restored.on_event(event)
        assert restored.digest() == original.digest()

    def test_lru_recency_survives_restore(self, monkeypatch):
        # Tiny bound: evictions depend on recency order, so a restore
        # that scrambled it would diverge on the very next insert.
        monkeypatch.setattr(detectors, "MAX_USERS", 4)
        monkeypatch.setattr(detectors, "MAX_VENUES", 4)
        events = make_events(count=60, users=12, venues=9)
        original = SuspicionLedger(config=CONFIG)
        for event in events[:40]:
            original.on_event(event)
        restored = SuspicionLedger(config=CONFIG)
        restored.load_state_dict(original.state_dict())
        assert (
            restored.factors.users.keys() == original.factors.users.keys()
        )
        for event in events[40:]:
            original.on_event(event)
            restored.on_event(event)
        assert restored.digest() == original.digest()
        assert (
            restored.factors.users.evictions
            == original.factors.users.evictions
        )

    def test_digest_scrubs_traces(self):
        events = make_events()
        one = fed_ledger(events)
        retraced = [
            type(event)(
                **{
                    **{
                        f: getattr(event, f)
                        for f in event.__dataclass_fields__
                    },
                    "trace_id": f"other-{event.seq}",
                }
            )
            for event in events
        ]
        two = fed_ledger(retraced)
        assert one.state_dict() != two.state_dict()  # traces differ...
        assert one.digest() == two.digest()  # ...but scoring state agrees


class TestSnapshotStore:
    def test_write_load_round_trip(self, tmp_path):
        ledger = fed_ledger(make_events())
        store = SnapshotStore(tmp_path, partition=3)
        path = store.write(ledger, seq=119)
        assert path.name == "snapshot-000000000119.json"
        snapshot = store.load(119)
        assert snapshot.seq == 119
        assert snapshot.partition == 3
        assert snapshot.version == SNAPSHOT_VERSION
        assert snapshot.detector_config == {"min_total_checkins": 10}
        revived = snapshot.make_ledger()
        assert revived.digest() == ledger.digest()
        assert revived.config == CONFIG

    def test_latest_picks_the_newest(self, tmp_path):
        ledger = fed_ledger(make_events())
        store = SnapshotStore(tmp_path)
        for seq in (10, 500, 77):
            store.write(ledger, seq=seq)
        assert store.list_seqs() == [10, 77, 500]
        assert store.latest().seq == 500

    def test_latest_on_empty_store(self, tmp_path):
        assert SnapshotStore(tmp_path).latest() is None

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(fed_ledger(make_events(20)), seq=19)
        assert not list(tmp_path.glob("*.tmp"))

    def test_negative_seq_rejected(self, tmp_path):
        with pytest.raises(SnapshotError):
            SnapshotStore(tmp_path).write(fed_ledger([]), seq=-1)


class TestSnapshotValidation:
    @pytest.fixture
    def written(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(fed_ledger(make_events(40)), seq=39)
        return store, tmp_path / "snapshot-000000000039.json"

    def test_flipped_body_bit_rejected(self, written):
        store, path = written
        raw = bytearray(path.read_bytes())
        raw[-2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum"):
            store.load(39)

    def test_truncated_body_rejected(self, written):
        store, path = written
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(SnapshotError, match="truncated"):
            store.load(39)

    def test_wrong_version_rejected(self, written):
        # Both an older layout and a newer one are refused.
        store, path = written
        raw = path.read_bytes()
        newline = raw.find(b"\n")
        header = json.loads(raw[:newline])
        for version in (SNAPSHOT_VERSION - 1, SNAPSHOT_VERSION + 1):
            header["version"] = version
            path.write_bytes(
                json.dumps(header).encode() + b"\n" + raw[newline + 1:]
            )
            with pytest.raises(SnapshotError, match=f"version {version}"):
                store.load(39)

    def test_wrong_format_rejected(self, written):
        store, path = written
        path.write_bytes(b'{"format": "something-else"}\n{}')
        with pytest.raises(SnapshotError, match="not a snapshot"):
            store.load(39)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            SnapshotStore(tmp_path).load(7)

    def test_garbage_header_rejected(self, written):
        store, path = written
        path.write_bytes(b"not json at all\n{}")
        with pytest.raises(SnapshotError, match="bad header"):
            store.load(39)
