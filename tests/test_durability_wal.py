"""Tests for the write-ahead log: framing, rotation, torn tails."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.wal import (
    MUTATION_OPS,
    ResummarizeRecord,
    TermRecord,
    WalError,
    WalRecord,
    WriteAheadLog,
    _iter_frames,
    encode_record,
)
from repro.obs.metrics import MetricsRegistry


def _mutations(*pairs):
    return tuple(("+", u, v) for u, v in pairs)


def _record(lsn, seq, *pairs):
    """One ingest batch of insertions on stream ``s``."""
    return WalRecord(
        lsn=lsn, stream="s", seq=seq, mutations=_mutations(*pairs)
    )


class TestFraming:
    def test_roundtrip_through_disk(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            lsn1 = wal.append_record(WalRecord(
                lsn=1, stream="s", seq=0, mutations=(("+", 1, 2), ("-", 3, 4))
            ))
            lsn2 = wal.append_record(WalRecord(
                lsn=2, stream="t", seq=7, mutations=(("+", 0, 5),)
            ))
            assert (lsn1, lsn2) == (1, 2)
            records = list(wal.iter_records())
        assert [r.lsn for r in records] == [1, 2]
        assert records[0].stream == "s"
        assert records[0].seq == 0
        assert records[0].mutations == (("+", 1, 2), ("-", 3, 4))
        assert records[1] == WalRecord(
            lsn=2, stream="t", seq=7, mutations=(("+", 0, 5),)
        )

    def test_lsn_continues_across_reopen(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            wal.append_record(_record(1, 0, (1, 2)))
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            assert wal.last_lsn == 1
            with pytest.raises(WalError, match="not past"):
                wal.append_record(_record(1, 1, (2, 3)))
            assert wal.append_record(_record(2, 1, (2, 3))) == 2

    def test_explicit_lsn_must_advance(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            wal.append_record(_record(5, 0, (1, 2)))
            with pytest.raises(WalError, match="not past"):
                wal.append_record(_record(5, 1, (2, 3)))
            assert wal.append_record(_record(6, 1, (2, 3))) == 6

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        wal.close()
        with pytest.raises(WalError, match="closed"):
            wal.append_record(_record(1, 0, (1, 2)))

    def test_records_after_lsn_cursor(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            for i in range(5):
                wal.append_record(_record(i + 1, i, (i, i + 1)))
            tail = list(wal.iter_records(after_lsn=3))
        assert [r.lsn for r in tail] == [4, 5]

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            WriteAheadLog(tmp_path, fsync="sometimes")


#: One literal frame per record kind, as the log has always written
#: them: multi-byte LSNs, sequence numbers and endpoints, a non-ASCII
#: stream id, and a maintenance pass without and with a merge cap
#: (``max_merges + 1`` >= 128 takes two varint bytes).
GOLDEN_FRAMES = [
    (
        WalRecord(lsn=1, stream="s", seq=0, mutations=(
            ("+", 1, 2), ("-", 3, 4),
        )),
        b"\x0b\x01\x00\x01s\x02\x00\x01\x02\x01\x03\x04\xe3\xc3\xe7\x96\x0b",
    ),
    (
        WalRecord(lsn=300, stream="fl\u00fc\u00df-\u6d41", seq=16384, mutations=(
            ("+", 127, 128), ("-", 70000, 5), ("+", 0, 2**40),
        )),
        b'"\xac\x02\x80\x80\x01\nfl\xc3\xbc\xc3\x9f-\xe6\xb5\x81\x03'
        b"\x00\x7f\x80\x01\x01\xf0\xa2\x04\x05\x00\x00\x80\x80\x80\x80\x80 "
        b"\xc1\xe8\xf6\xa7\t",
    ),
    (
        ResummarizeRecord(lsn=5, targets=(3, 130, 20000), max_merges=None),
        b"\x0b\x00\x01\x05\x03\x03\x82\x01\xa0\x9c\x01\x00\xd0\xee\xd1\xfe\x0b",
    ),
    (
        ResummarizeRecord(lsn=1000, targets=(), max_merges=200),
        b"\x07\x00\x01\xe8\x07\x00\xc9\x01\xed\xc9\xf3\xf3\x0b",
    ),
    (
        ResummarizeRecord(lsn=7, targets=(0,), max_merges=0),
        b"\x06\x00\x01\x07\x01\x00\x01\x8b\xd4\xc3\xbd\x06",
    ),
    (
        TermRecord(lsn=70000, term=130),
        b"\x07\x00\x02\xf0\xa2\x04\x82\x01\xa5\xba\xa62",
    ),
]


def _decode_frame(frame: bytes):
    """The one record a frame holds, through the segment reader."""
    [(record, end)] = list(_iter_frames(frame))
    assert end == len(frame)
    return record


class TestGoldenFrames:
    """The on-disk bytes are a format: a codec change must keep them."""

    @pytest.mark.parametrize(
        "record, frame", GOLDEN_FRAMES,
        ids=[f"{type(r).__name__}-{r.lsn}" for r, _ in GOLDEN_FRAMES],
    )
    def test_encode_matches_golden_bytes(self, record, frame):
        assert encode_record(record) == frame

    @pytest.mark.parametrize(
        "record, frame", GOLDEN_FRAMES,
        ids=[f"{type(r).__name__}-{r.lsn}" for r, _ in GOLDEN_FRAMES],
    )
    def test_golden_bytes_decode_to_record(self, record, frame):
        assert _decode_frame(frame) == record

    def test_golden_log_reads_back_from_disk(self, tmp_path):
        (tmp_path / "wal-00000000.log").write_bytes(
            b"".join(frame for _, frame in GOLDEN_FRAMES)
        )
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            assert list(wal.iter_records()) == [
                record for record, _ in GOLDEN_FRAMES
            ]
            assert wal.last_term == 130

    @pytest.mark.parametrize("cut", [1, 5, 12])
    def test_truncated_golden_frame_does_not_decode(self, cut):
        frame = GOLDEN_FRAMES[1][1]
        assert list(_iter_frames(frame[:-cut])) == []


_VARINT = st.integers(min_value=0, max_value=2**64)
_POSITIVE = st.integers(min_value=1, max_value=2**64)
#: Every record the log writes: LSNs and terms are positive, and an
#: ingest batch names a stream and holds at least one mutation (the
#: decoder refuses anything else as damage).
_RECORDS = st.one_of(
    st.builds(
        WalRecord,
        lsn=_POSITIVE,
        stream=st.text(min_size=1, max_size=128),
        seq=_VARINT,
        mutations=st.lists(
            st.tuples(st.sampled_from(MUTATION_OPS), _VARINT, _VARINT),
            min_size=1,
            max_size=20,
        ).map(tuple),
    ),
    st.builds(
        ResummarizeRecord,
        lsn=_POSITIVE,
        targets=st.lists(_VARINT, max_size=20).map(tuple),
        max_merges=st.none() | _VARINT,
    ),
    st.builds(TermRecord, lsn=_POSITIVE, term=_POSITIVE),
)


@settings(max_examples=300, deadline=None)
@given(record=_RECORDS)
def test_decode_inverts_encode(record):
    assert _decode_frame(encode_record(record)) == record


class TestRotation:
    def test_segments_rotate_and_truncate(self, tmp_path):
        frame = len(encode_record(
            WalRecord(lsn=1, stream="s", seq=0, mutations=(("+", 1, 2),))
        ))
        with WriteAheadLog(
            tmp_path, fsync="never", segment_bytes=frame * 2
        ) as wal:
            for i in range(6):
                wal.append_record(_record(i + 1, i, (1, 2)))
            segments = sorted(p.name for p in tmp_path.glob("wal-*.log"))
            assert len(segments) == 3
            # Checkpoint at lsn=4: the first two segments (lsns 1-4)
            # are redundant; the active one stays.
            assert wal.truncate_through(4) == 2
            assert [r.lsn for r in wal.iter_records(after_lsn=4)] == [5, 6]
            # New appends continue seamlessly after compaction.
            assert wal.append_record(_record(7, 6, (1, 2))) == 7

    def test_replay_cursor_skips_sealed_segments_unread(self, tmp_path):
        """Segments that end at or below the cursor are not decoded:
        damage planted in one after the open scan stops a full scan
        but not a replay from past it."""
        frame = len(encode_record(
            WalRecord(lsn=1, stream="s", seq=0, mutations=(("+", 1, 2),))
        ))
        with WriteAheadLog(
            tmp_path, fsync="never", segment_bytes=frame * 2
        ) as wal:
            for i in range(6):
                wal.append_record(_record(i + 1, i, (1, 2)))
            first = sorted(tmp_path.glob("wal-*.log"))[0]
            first.write_bytes(b"\xff" * frame)
            assert list(wal.iter_records()) == []
            assert [r.lsn for r in wal.iter_records(after_lsn=2)] == [
                3, 4, 5, 6
            ]
            assert [r.lsn for r in wal.iter_records(after_lsn=5)] == [6]

    def test_active_segment_never_truncated(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            wal.append_record(_record(1, 0, (1, 2)))
            assert wal.truncate_through(10) == 0
            assert list(wal.iter_records()) != []

    def test_directory_fsynced_on_create_rotate_truncate(
        self, tmp_path, monkeypatch
    ):
        """Segment create/unlink must be followed by an fsync of the
        WAL directory — a file fsync alone does not persist the parent
        directory entry, so a rotated segment could vanish wholesale
        on power failure."""
        calls = []
        monkeypatch.setattr(
            WriteAheadLog,
            "_fsync_directory",
            lambda self: calls.append("dir"),
        )
        frame = len(encode_record(
            WalRecord(lsn=1, stream="s", seq=0, mutations=(("+", 1, 2),))
        ))
        with WriteAheadLog(
            tmp_path, fsync="never", segment_bytes=frame * 2
        ) as wal:
            assert calls == ["dir"]  # open created wal-00000000.log
            for i in range(3):
                wal.append_record(_record(i + 1, i, (1, 2)))
            assert calls == ["dir"] * 2  # one rotation
            assert wal.truncate_through(2) == 1
            assert calls == ["dir"] * 3  # one segment unlinked
            # A no-op truncation syncs nothing.
            assert wal.truncate_through(2) == 0
            assert calls == ["dir"] * 3


class TestTornTail:
    def _write_three(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            for i in range(3):
                wal.append_record(_record(i + 1, i, (i, i + 1)))

    def test_garbage_tail_repaired_on_open(self, tmp_path):
        self._write_three(tmp_path)
        segment = next(tmp_path.glob("wal-*.log"))
        clean_size = segment.stat().st_size
        with segment.open("ab") as handle:
            handle.write(b"\xff\x13garbage")
        registry = MetricsRegistry()
        with WriteAheadLog(
            tmp_path, fsync="never", registry=registry
        ) as wal:
            assert wal.last_lsn == 3
            assert [r.lsn for r in wal.iter_records()] == [1, 2, 3]
            # Appends land at a clean boundary after the repair.
            assert wal.append_record(_record(4, 3, (7, 8))) == 4
        assert segment.stat().st_size > clean_size  # repaired + appended
        assert (
            registry.counter(
                "repro_wal_records_total", event="torn_dropped"
            ).value
            == 1
        )

    def test_truncated_record_dropped(self, tmp_path):
        self._write_three(tmp_path)
        segment = next(tmp_path.glob("wal-*.log"))
        data = segment.read_bytes()
        segment.write_bytes(data[:-3])  # tear the last record
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            assert wal.last_lsn == 2
            assert [r.lsn for r in wal.iter_records()] == [1, 2]

    def test_corrupt_mid_segment_drops_later_segments(self, tmp_path):
        frame = len(encode_record(
            WalRecord(lsn=1, stream="s", seq=0, mutations=(("+", 0, 1),))
        ))
        with WriteAheadLog(
            tmp_path, fsync="never", segment_bytes=frame * 2
        ) as wal:
            for i in range(6):
                wal.append_record(_record(i + 1, i, (0, 1)))
        segments = sorted(tmp_path.glob("wal-*.log"))
        assert len(segments) >= 2
        # Flip a byte inside the FIRST segment's second record: every
        # later segment is no longer trustworthy and must go.
        data = bytearray(segments[0].read_bytes())
        data[frame + 5] ^= 0xFF
        segments[0].write_bytes(bytes(data))
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            assert wal.last_lsn == 1
            assert [r.lsn for r in wal.iter_records()] == [1]
        assert len(list(tmp_path.glob("wal-*.log"))) == 1


class TestFsyncPolicies:
    @pytest.mark.parametrize("policy", ["always", "interval", "never"])
    def test_all_policies_durable_after_close(self, tmp_path, policy):
        directory = tmp_path / policy
        with WriteAheadLog(
            directory, fsync=policy, fsync_interval=3
        ) as wal:
            for i in range(7):
                wal.append_record(_record(i + 1, i, (i, i + 1)))
        with WriteAheadLog(directory, fsync="never") as wal:
            assert wal.last_lsn == 7

    def test_always_policy_records_fsync_latency(self, tmp_path):
        registry = MetricsRegistry()
        with WriteAheadLog(
            tmp_path, fsync="always", registry=registry
        ) as wal:
            wal.append_record(_record(1, 0, (1, 2)))
        assert registry.histogram("repro_wal_fsync_seconds").count >= 1


class TestStreamingReplay:
    def test_iter_records_streams_lazily(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            for i in range(5):
                wal.append_record(_record(i + 1, i, (i, i + 1)))
            stream = wal.iter_records(after_lsn=2)
            assert next(stream).lsn == 3
            # Appends after the cursor position still surface: the
            # generator re-reads segments as it goes.
            assert [r.lsn for r in stream] == [4, 5]

    def test_iter_records_memory_stays_per_segment(self, tmp_path):
        """Replaying a log far larger than one segment must not
        materialize it: peak allocation while draining
        ``iter_records`` is bounded by a segment, not the log."""
        import tracemalloc

        payload = _mutations(*[(i, i + 1) for i in range(200)])
        with WriteAheadLog(
            tmp_path, fsync="never", segment_bytes=16 << 10
        ) as wal:
            for i in range(400):
                wal.append_record(WalRecord(
                    lsn=i + 1, stream="s", seq=i, mutations=payload
                ))
            log_bytes = sum(
                p.stat().st_size for p in tmp_path.glob("wal-*.log")
            )
            assert log_bytes > 10 * (16 << 10)  # genuinely multi-segment
            tracemalloc.start()
            count = 0
            for record in wal.iter_records():
                count += 1
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert count == 400
        # One decoded record + one segment buffer dominate the peak;
        # a materialized list of 400 records would be ~log_bytes.
        assert peak < log_bytes / 4
