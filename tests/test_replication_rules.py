"""The replication rules as pure functions: frame admission and
primary election over plain tuples and dicts — no engine, socket, lock
or thread.  The engine and the router only carry these verdicts out,
so every role, term and fencing decision is pinned down here."""

from __future__ import annotations

import base64
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.varint import encode_varints
from repro.durability.replication import (
    FIRST_TERM,
    Election,
    FrameRejected,
    ReplicaView,
    admit_frame,
    elect,
    quorum_size,
)
from repro.durability.wal import (
    MUTATION_OPS,
    ResummarizeRecord,
    TermRecord,
    WalRecord,
    encode_record,
)


def _record(lsn):
    return WalRecord(lsn=lsn, stream="s", seq=lsn, mutations=(("+", 1, 2),))


def _wire(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _frames(*records) -> str:
    """``records`` as the ``frames`` field of a ``replicate`` request."""
    return _wire(b"".join(map(encode_record, records)))


def _batch(*lsns):
    return _frames(*map(_record, lsns))


def _framed(payload: bytes) -> bytes:
    """A correctly framed and checksummed arbitrary payload."""
    return (
        encode_varints([len(payload)]) + payload
        + encode_varints([zlib.crc32(payload)])
    )


#: A follower at term 2 whose log and state both end at lsn 3.
FOLLOWER = ReplicaView("follower", 2, 3, 3, False)
PRIMARY = FOLLOWER._replace(role="primary")

#: Frame 4 of the log, for the byte-level damage rows.
_GOOD = encode_record(_record(4))


class TestAdmitFrameRejections:
    @pytest.mark.parametrize(
        "view, term, frame, kind, match",
        [
            # The term's type is checked at the wire (protocol tests);
            # what is left here needs the replica's state.
            (FOLLOWER, 1, {"snapshot": {}}, "fenced", "local term is 2"),
            (PRIMARY, 2, {"promote": True}, "fenced", "stale promotion"),
            (FOLLOWER, 3, {"frames": _frames(WalRecord(
                lsn=4, stream="", seq=0, mutations=(("+", 1, 2),)))},
             "bad_request", "stream id"),
            (FOLLOWER._replace(replaying=True), 2, {}, "overloaded",
             "replay in progress"),
            (FOLLOWER._replace(replaying=True), 3, {"promote": True},
             "overloaded", "replay in progress"),
            (FOLLOWER, 2, {"promote": True}, "fenced", "stale promotion"),
            (FOLLOWER, 1, {"promote": True}, "fenced", "stale promotion"),
            (FOLLOWER, 1, {"frames": _batch(4)}, "fenced",
             "local term is 2"),
            (PRIMARY, 1, {"snapshot": {}}, "fenced", "local term is 2"),
            (FOLLOWER, 2, {"frames": _frames(WalRecord(
                lsn=4, stream="", seq=0, mutations=(("+", 1, 2),)))},
             "bad_request", "stream id"),
            (FOLLOWER, 2, {"after_lsn": 5, "frames": _batch(6)},
             "bad_request", "replication gap"),
            (FOLLOWER, 3, {"after_lsn": 1, "frames": _batch(2)},
             "bad_request", "snapshot required"),
            (FOLLOWER, 2, {"after_lsn": 3, "frames": _batch(4, 6)},
             "bad_request", "not contiguous"),
            (FOLLOWER, 2, {"frames": _batch(6)}, "bad_request",
             "records 4-5 are missing"),
        ],
    )
    def test_rejection_kind(self, view, term, frame, kind, match):
        with pytest.raises(FrameRejected, match=match) as excinfo:
            admit_frame(view, term, **frame)
        assert excinfo.value.kind == kind
        assert excinfo.value.role is None

    def test_bad_frame_from_higher_term_still_demotes_a_primary(self):
        with pytest.raises(FrameRejected, match="snapshot required") as exc:
            admit_frame(PRIMARY, 3, after_lsn=0, frames=_batch(1))
        assert (exc.value.kind, exc.value.role) == ("bad_request", "follower")


class TestMalformedFrames:
    """``frames`` that do not decode whole are refused before any
    record is returned — and so before any is appended — and, being a
    malformed request, change no role even from a higher term."""

    @pytest.mark.parametrize(
        "frames, match",
        [
            pytest.param("not base64!", "malformed", id="base64"),
            pytest.param(_wire(_GOOD[:-3]), "truncated", id="truncated"),
            pytest.param(
                _wire(_GOOD[:-1] + bytes([_GOOD[-1] ^ 1])), "checksum",
                id="crc",
            ),
            pytest.param(
                _frames(TermRecord(lsn=0, term=3)), "lsn 0", id="lsn-0",
            ),
            pytest.param(
                _frames(TermRecord(lsn=4, term=0)), "term 0", id="term-0",
            ),
            pytest.param(
                _frames(WalRecord(
                    lsn=4, stream="", seq=0, mutations=(("+", 1, 2),),
                )),
                "empty stream", id="empty-stream",
            ),
            pytest.param(
                _frames(WalRecord(lsn=4, stream="s", seq=0, mutations=())),
                "no mutations", id="no-mutations",
            ),
            pytest.param(
                # lsn 4, seq 4, stream "s", one mutation of opcode 2.
                _wire(_framed(
                    encode_varints([4, 4, 1]) + b"s"
                    + encode_varints([1, len(MUTATION_OPS), 1, 2])
                )),
                "opcode", id="unknown-opcode",
            ),
            pytest.param(
                _wire(_framed(encode_varints([0, 9, 4]))),
                "record kind", id="unknown-kind",
            ),
        ],
    )
    @pytest.mark.parametrize("view", [FOLLOWER, PRIMARY])
    def test_refused_whole(self, view, frames, match):
        with pytest.raises(FrameRejected, match=match) as excinfo:
            admit_frame(view, 3, after_lsn=3, frames=frames)
        assert (excinfo.value.kind, excinfo.value.role) == (
            "bad_request", None
        )


_VARINT = st.integers(min_value=0, max_value=2**40)


@st.composite
def _runs(draw):
    """A run of records of every kind continuing ``FOLLOWER``'s log."""
    kinds = draw(st.lists(
        st.sampled_from(["ingest", "resummarize", "term"]),
        min_size=1, max_size=6,
    ))
    records = []
    for lsn, kind in enumerate(kinds, start=FOLLOWER.last_lsn + 1):
        if kind == "ingest":
            records.append(WalRecord(
                lsn=lsn,
                stream=draw(st.text(min_size=1, max_size=8)),
                seq=draw(_VARINT),
                mutations=tuple(draw(st.lists(
                    st.tuples(st.sampled_from(MUTATION_OPS), _VARINT,
                              _VARINT),
                    min_size=1, max_size=4,
                ))),
            ))
        elif kind == "resummarize":
            records.append(ResummarizeRecord(
                lsn=lsn,
                targets=tuple(draw(st.lists(_VARINT, max_size=4))),
                max_merges=draw(st.none() | _VARINT),
            ))
        else:
            records.append(
                TermRecord(lsn=lsn, term=draw(st.integers(1, 2**40)))
            )
    return records


class TestFramesProperty:
    @settings(max_examples=100, deadline=None)
    @given(_runs())
    def test_runs_arrive_unchanged(self, records):
        assert admit_frame(
            FOLLOWER, 2, after_lsn=3, frames=_frames(*records)
        ) == (None, tuple(records))

    @settings(max_examples=100, deadline=None)
    @given(_runs(), st.data())
    def test_any_flipped_byte_is_refused_whole(self, records, data):
        raw = bytearray(b"".join(map(encode_record, records)))
        index = data.draw(st.integers(0, len(raw) - 1))
        raw[index] ^= data.draw(st.integers(1, 255))
        with pytest.raises(FrameRejected) as excinfo:
            admit_frame(FOLLOWER, 2, after_lsn=3, frames=_wire(bytes(raw)))
        assert excinfo.value.kind == "bad_request"

    @settings(max_examples=100, deadline=None)
    @given(_runs(), st.data())
    def test_any_torn_frame_is_refused_whole(self, records, data):
        """A cut inside a frame; a cut between frames is a shorter
        valid run, on the wire as on disk."""
        frames = [encode_record(record) for record in records]
        raw = b"".join(frames)
        boundaries, end = set(), 0
        for frame in frames:
            end += len(frame)
            boundaries.add(end)
        cut = data.draw(
            st.integers(1, len(raw) - 1).filter(
                lambda cut: cut not in boundaries
            )
        )
        with pytest.raises(FrameRejected) as excinfo:
            admit_frame(FOLLOWER, 2, after_lsn=3, frames=_wire(raw[:cut]))
        assert excinfo.value.kind == "bad_request"


class TestAdmitFrameTransitions:
    @pytest.mark.parametrize(
        "view, term, frame, expected",
        [
            # Promotion past the local term.
            (FOLLOWER, 3, {"promote": True}, ("primary", ())),
            # A primary seeing a higher term steps down first ...
            (PRIMARY, 3, {"snapshot": {}}, ("follower", ())),
            (PRIMARY, 3, {"after_lsn": 3, "frames": _batch(4)},
             ("follower", (_record(4),))),
            # ... a follower just adopts it once the frame is applied.
            (FOLLOWER, 3, {"after_lsn": 3, "frames": _batch(4)},
             (None, (_record(4),))),
            # Same term: records decoded, nothing else changes.
            (FOLLOWER, 2, {"after_lsn": 2, "frames": _batch(3, 4)},
             (None, (_record(3), _record(4)))),
            (FOLLOWER, 2, {"after_lsn": 3, "frames": ""},
             (None, ())),
            (FOLLOWER, 2, {"snapshot": {}}, (None, ())),
        ],
    )
    def test_verdict(self, view, term, frame, expected):
        assert admit_frame(view, term, **frame) == expected


def _status(role, term, last_lsn, applied_lsn=None):
    return {
        "role": role,
        "term": term,
        "last_lsn": last_lsn,
        "applied_lsn": last_lsn if applied_lsn is None else applied_lsn,
    }


class TestElectExamples:
    def test_no_responders(self):
        assert elect([], known_term=0, replicas=2, acks="quorum") is None

    def test_live_primary_is_adopted(self):
        statuses = [(0, _status("follower", 3, 9)),
                    (1, _status("primary", 3, 7))]
        assert elect(
            statuses, known_term=2, replicas=2, acks="quorum"
        ) == Election("adopt", 1, 3)

    def test_primary_below_known_term_is_replaced(self):
        statuses = [(0, _status("primary", 1, 5)),
                    (1, _status("follower", 1, 5))]
        assert elect(
            statuses, known_term=2, replicas=2, acks="quorum"
        ) == Election("promote", 0, 3)

    def test_two_replicas_fail_over_to_the_lone_survivor(self):
        statuses = [(1, _status("follower", 1, 4))]
        assert elect(
            statuses, known_term=1, replicas=2, acks="quorum"
        ) == Election("promote", 1, 2)

    def test_promotion_is_past_the_opening_term(self):
        """A survivor that never received the primary's opening term
        record reports term 0; promoting it at term 1 would make a
        second term-1 primary that fencing cannot tell apart."""
        statuses = [(1, _status("follower", 0, 0))]
        assert elect(
            statuses, known_term=0, replicas=2, acks="quorum"
        ) == Election("promote", 1, FIRST_TERM + 1)

    def test_minority_view_is_not_promoted(self):
        """The lagging third replica alone must not be promoted at the
        term the unreachable primary already holds."""
        lagging = [(2, _status("follower", 0, 0))]
        assert elect(lagging, known_term=0, replicas=3,
                     acks="quorum") is None
        assert elect(
            lagging, known_term=0, replicas=3, acks="leader"
        ) == Election("promote", 2, 2)
        both = [(1, _status("follower", 1, 2)), *lagging]
        assert elect(
            both, known_term=0, replicas=3, acks="quorum"
        ) == Election("promote", 1, 2)


@st.composite
def _election_inputs(draw):
    replicas = draw(st.integers(min_value=1, max_value=5))
    responders = draw(
        st.lists(
            st.integers(min_value=0, max_value=replicas - 1),
            unique=True,
            max_size=replicas,
        )
    )
    statuses = [
        (
            index,
            _status(
                draw(st.sampled_from(["primary", "follower"])),
                draw(st.integers(min_value=0, max_value=4)),
                draw(st.integers(min_value=0, max_value=6)),
                draw(st.integers(min_value=0, max_value=6)),
            ),
        )
        for index in responders
    ]
    known_term = draw(st.integers(min_value=0, max_value=5))
    acks = draw(st.sampled_from(["leader", "quorum"]))
    return statuses, known_term, replicas, acks


def _key(status):
    return (status["term"], status["last_lsn"], status["applied_lsn"])


class TestElectProperty:
    @given(_election_inputs())
    def test_election_rules(self, inputs):
        statuses, known_term, replicas, acks = inputs
        verdict = elect(
            statuses, known_term=known_term, replicas=replicas, acks=acks
        )
        by_index = dict(statuses)
        claims = [s["term"] for s in by_index.values()
                  if s["role"] == "primary"]
        adoptable = bool(claims) and max(claims) >= known_term
        bound = replicas - quorum_size(replicas) + 1
        if verdict is None:
            assert not adoptable
            assert not statuses or (acks == "quorum"
                                    and len(statuses) < bound)
            return
        chosen = by_index[verdict.index]
        if verdict.action == "adopt":
            assert adoptable
            assert chosen["role"] == "primary"
            assert verdict.term == chosen["term"] == max(claims)
            return
        assert verdict.action == "promote"
        assert not adoptable
        assert all(_key(chosen) >= _key(s) for s in by_index.values())
        assert all(verdict.term > s["term"] for s in by_index.values())
        assert verdict.term > max(known_term, FIRST_TERM)
        if acks == "quorum":
            assert len(statuses) >= bound
