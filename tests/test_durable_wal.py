"""The write-ahead log: codec round-trips and corruption recovery.

The property suite (hypothesis) pins that ``decode(encode(e)) == e`` for
every event shape the bus can carry, and that the encoding is
byte-stable.  The unit suite covers the damage matrix docs/DURABILITY.md
specifies: truncated tails (tolerated at the end, fatal mid-log),
flipped bits (checksum reject), and empty/short segments.
"""

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durable import wal
from repro.durable.wal import (
    MAX_RECORD_BYTES,
    SEGMENT_MAGIC,
    WalCorruptionError,
    WalError,
    WalReader,
    WalWriter,
    decode_event,
    encode_event,
    encode_record,
)
from repro.geo.coordinates import GeoPoint
from repro.obs.metrics import MetricsRegistry
from repro.stream.events import (
    CheckInAccepted,
    CheckInFlagged,
    CheckInRejected,
    MayorChanged,
    UserRegistered,
    VenueCreated,
)

latitudes = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
longitudes = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
seqs = st.integers(min_value=-1, max_value=2**53)
timestamps = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)
ids = st.integers(min_value=0, max_value=2**31)
traces = st.one_of(st.none(), st.text(max_size=32))
points = st.builds(GeoPoint, latitudes, longitudes)


@st.composite
def events(draw):
    kind = draw(st.sampled_from(["user", "venue", "accept", "flag",
                                 "reject", "mayor"]))
    seq, ts = draw(seqs), draw(timestamps)
    if kind == "user":
        return UserRegistered(
            seq, ts, user_id=draw(ids),
            username=draw(st.one_of(st.none(), st.text(max_size=20))),
            trace_id=draw(traces),
        )
    if kind == "venue":
        return VenueCreated(
            seq, ts, venue_id=draw(ids),
            location=draw(st.one_of(st.none(), points)),
            trace_id=draw(traces),
        )
    if kind == "mayor":
        return MayorChanged(
            seq, ts, venue_id=draw(ids),
            new_mayor_id=draw(st.one_of(st.none(), ids)),
            previous_mayor_id=draw(st.one_of(st.none(), ids)),
            trace_id=draw(traces),
        )
    common = dict(
        user_id=draw(ids), venue_id=draw(ids),
        venue_location=draw(points), reported_location=draw(points),
        checkin_id=draw(ids), trace_id=draw(traces),
    )
    if kind == "accept":
        return CheckInAccepted(
            seq, ts, points=draw(st.integers(0, 100)),
            new_badge_count=draw(st.integers(0, 10)),
            became_mayor=draw(st.booleans()),
            first_visit=draw(st.booleans()),
            **common,
        )
    cls = CheckInFlagged if kind == "flag" else CheckInRejected
    return cls(
        seq, ts, rule=draw(st.one_of(st.none(), st.text(max_size=20))),
        **common,
    )


class TestCodecProperties:
    @settings(max_examples=200, deadline=None)
    @given(event=events())
    def test_round_trip(self, event):
        decoded = decode_event(encode_event(event))
        assert type(decoded) is type(event)
        assert decoded == event

    @settings(max_examples=50, deadline=None)
    @given(event=events())
    def test_encoding_is_byte_stable(self, event):
        assert encode_event(event) == encode_event(event)

    @settings(max_examples=50, deadline=None)
    @given(event=events())
    def test_framed_record_round_trips(self, event):
        record = encode_record(event)
        length, crc = struct.unpack_from("<II", record)
        assert length == len(record) - 8
        assert decode_event(record[8:]) == event


class TestCodecErrors:
    def test_unknown_event_type_rejected(self):
        class Rogue:
            pass

        with pytest.raises(WalError):
            encode_event(Rogue())

    def test_unknown_tag_is_corruption(self):
        with pytest.raises(WalCorruptionError):
            decode_event(b'{"t":"nope","seq":1,"timestamp":0.0}')

    def test_non_json_payload_is_corruption(self):
        with pytest.raises(WalCorruptionError):
            decode_event(b"\xff\xfe not json")


@pytest.fixture
def sample_events():
    return [
        CheckInAccepted(
            seq, float(seq), user_id=seq % 5, venue_id=seq % 3,
            venue_location=GeoPoint(40.0, -74.0),
            reported_location=GeoPoint(40.0, -74.0),
            checkin_id=seq, points=3,
        )
        for seq in range(40)
    ]


class TestWriterReader:
    def test_append_and_scan(self, tmp_path, sample_events):
        with WalWriter(tmp_path) as writer:
            for event in sample_events:
                writer.append(event)
        reader = WalReader(tmp_path)
        assert reader.read_all() == sample_events
        assert not reader.torn_tail

    def test_after_seq_filters_the_prefix(self, tmp_path, sample_events):
        with WalWriter(tmp_path) as writer:
            for event in sample_events:
                writer.append(event)
        got = WalReader(tmp_path).read_all(after_seq=29)
        assert [event.seq for event in got] == list(range(30, 40))

    def test_replay_counter_counts_only_yielded_events(self, tmp_path):
        with WalWriter(tmp_path) as writer:
            for seq in range(40):
                writer.append(UserRegistered(seq, float(seq), user_id=seq))
        metrics = MetricsRegistry()
        got = WalReader(tmp_path, metrics=metrics).read_all(after_seq=29)
        assert [event.seq for event in got] == list(range(30, 40))
        assert metrics.get("repro_wal_replayed_events_total").value == 10

    def test_segment_rotation(self, tmp_path, sample_events, monkeypatch):
        monkeypatch.setattr(wal, "SEGMENT_MAX_BYTES", 600)
        with WalWriter(tmp_path) as writer:
            for event in sample_events:
                writer.append(event)
        reader = WalReader(tmp_path)
        assert reader.read_all() == sample_events
        assert reader.segment_count() > 1
        assert writer.segments_opened == reader.segment_count()

    def test_new_writer_never_appends_to_old_segments(
        self, tmp_path, sample_events
    ):
        with WalWriter(tmp_path) as writer:
            for event in sample_events[:20]:
                writer.append(event)
        before = sorted(os.listdir(tmp_path))
        with WalWriter(tmp_path) as writer:
            for event in sample_events[20:]:
                writer.append(event)
        after = sorted(os.listdir(tmp_path))
        assert set(before) < set(after)  # old files untouched, new added
        assert WalReader(tmp_path).read_all() == sample_events

    def test_fsync_batching_knob(self, tmp_path, sample_events, monkeypatch):
        monkeypatch.setattr(wal, "FSYNC_EVERY", 1)
        eager = WalWriter(tmp_path / "eager")
        for event in sample_events:
            eager.append(event)
        eager.close()
        assert eager.fsyncs == len(sample_events)

    def test_append_after_close_raises(self, tmp_path, sample_events):
        writer = WalWriter(tmp_path)
        writer.close()
        with pytest.raises(WalError):
            writer.append(sample_events[0])

    def test_oversize_record_is_refused_and_writes_nothing(
        self, tmp_path, sample_events
    ):
        # The reader would call a payload over MAX_RECORD_BYTES damage:
        # mid-log it blocks every replay, as the final record it is lost.
        oversize = CheckInFlagged(
            99, 99.0, user_id=1, venue_id=1,
            venue_location=GeoPoint(40.0, -74.0),
            reported_location=GeoPoint(40.0, -74.0),
            rule="x" * (2 * MAX_RECORD_BYTES),
        )
        with WalWriter(tmp_path) as writer:
            writer.append(sample_events[0])
            with pytest.raises(WalError, match="MAX_RECORD_BYTES"):
                writer.append(oversize)
            writer.append(sample_events[1])
        assert writer.appended == 2
        reader = WalReader(tmp_path)
        assert reader.read_all() == sample_events[:2]
        assert not reader.torn_tail


class TestCorruptionRecovery:
    """The damage matrix: where the damage sits decides the outcome."""

    def _write(self, directory, events):
        with WalWriter(directory) as writer:
            for event in events:
                writer.append(event)

    def _last_segment(self, directory):
        return sorted(directory.glob("*.wal"))[-1]

    def test_truncated_tail_is_tolerated(self, tmp_path, sample_events):
        self._write(tmp_path, sample_events)
        path = self._last_segment(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])
        reader = WalReader(tmp_path)
        got = reader.read_all()
        assert got == sample_events[:-1]
        assert reader.torn_tail
        assert "torn" in reader.tail_error

    def test_torn_header_is_tolerated(self, tmp_path, sample_events):
        self._write(tmp_path, sample_events)
        path = self._last_segment(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"\x03")  # 1 byte of a next record's header
        reader = WalReader(tmp_path)
        assert reader.read_all() == sample_events
        assert reader.torn_tail
        assert "header" in reader.tail_error

    def test_flipped_bit_rejected_by_checksum(self, tmp_path, sample_events):
        self._write(tmp_path, sample_events)
        path = self._last_segment(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0x01  # flip one payload bit in the final record
        path.write_bytes(bytes(raw))
        reader = WalReader(tmp_path)
        got = reader.read_all()
        assert got == sample_events[:-1]
        assert reader.torn_tail
        assert "checksum" in reader.tail_error

    def test_mid_log_damage_always_raises(
        self, tmp_path, sample_events, monkeypatch
    ):
        monkeypatch.setattr(wal, "SEGMENT_MAX_BYTES", 600)
        self._write(tmp_path, sample_events)
        first = sorted(tmp_path.glob("*.wal"))[0]
        raw = bytearray(first.read_bytes())
        raw[len(SEGMENT_MAGIC) + 10] ^= 0xFF
        first.write_bytes(bytes(raw))
        with pytest.raises(WalCorruptionError, match="mid-log"):
            WalReader(tmp_path).read_all()

    def test_empty_segment_is_tolerated(self, tmp_path, sample_events):
        self._write(tmp_path, sample_events)
        # A writer that died between open() and writing the magic.
        (tmp_path / "00000001.wal").write_bytes(b"")
        assert WalReader(tmp_path).read_all() == sample_events

    def test_short_magic_in_final_segment_is_a_torn_tail(
        self, tmp_path, sample_events
    ):
        self._write(tmp_path, sample_events)
        (tmp_path / "00000001.wal").write_bytes(SEGMENT_MAGIC[:4])
        reader = WalReader(tmp_path)
        assert reader.read_all() == sample_events
        assert reader.torn_tail

    def test_wrong_magic_always_raises(self, tmp_path, sample_events):
        self._write(tmp_path, sample_events)
        path = self._last_segment(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(WalCorruptionError, match="magic"):
            WalReader(tmp_path).read_all()

    def test_implausible_length_is_a_torn_tail(self, tmp_path, sample_events):
        self._write(tmp_path, sample_events)
        path = self._last_segment(tmp_path)
        with open(path, "ab") as handle:
            handle.write(struct.pack("<II", MAX_RECORD_BYTES + 1, 0))
        reader = WalReader(tmp_path)
        assert reader.read_all() == sample_events
        assert reader.torn_tail
        assert "implausible" in reader.tail_error

    def test_empty_directory_reads_empty(self, tmp_path):
        reader = WalReader(tmp_path / "nothing-here")
        assert reader.read_all() == []
        assert reader.segment_count() == 0
