"""The replication rules as pure functions: frame admission and
primary election over plain tuples and dicts — no engine, socket, lock
or thread.  The engine and the router only carry these verdicts out,
so every role, term and fencing decision is pinned down here."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.durability.replication import (
    FIRST_TERM,
    Election,
    FrameRejected,
    ReplicaView,
    admit_frame,
    elect,
    quorum_size,
    record_to_wire,
)
from repro.durability.wal import WalRecord


def _record(lsn):
    return WalRecord(lsn=lsn, stream="s", seq=lsn, mutations=(("+", 1, 2),))


def _batch(lsn):
    return record_to_wire(_record(lsn))


#: A follower at term 2 whose log and state both end at lsn 3.
FOLLOWER = ReplicaView("follower", 2, 3, 3, False)
PRIMARY = FOLLOWER._replace(role="primary")


class TestAdmitFrameRejections:
    @pytest.mark.parametrize(
        "view, term, frame, kind, match",
        [
            # The term's type is checked at the wire (protocol tests);
            # what is left here needs the replica's state.
            (FOLLOWER, 1, {"snapshot": {}}, "fenced", "local term is 2"),
            (PRIMARY, 2, {"promote": True}, "fenced", "stale promotion"),
            (FOLLOWER, 3, {"records": [{"lsn": 4}]}, "bad_request",
             "stream id"),
            (FOLLOWER._replace(replaying=True), 2, {}, "overloaded",
             "replay in progress"),
            (FOLLOWER._replace(replaying=True), 3, {"promote": True},
             "overloaded", "replay in progress"),
            (FOLLOWER, 2, {"promote": True}, "fenced", "stale promotion"),
            (FOLLOWER, 1, {"promote": True}, "fenced", "stale promotion"),
            (FOLLOWER, 1, {"records": [_batch(4)]}, "fenced",
             "local term is 2"),
            (PRIMARY, 1, {"snapshot": {}}, "fenced", "local term is 2"),
            (FOLLOWER, 2, {"records": [{"lsn": 4}]}, "bad_request",
             "stream id"),
            (FOLLOWER, 2, {"after_lsn": 5, "records": [_batch(6)]},
             "bad_request", "replication gap"),
            (FOLLOWER, 3, {"after_lsn": 1, "records": [_batch(2)]},
             "bad_request", "snapshot required"),
            (FOLLOWER, 2, {"after_lsn": 3,
                           "records": [_batch(4), _batch(6)]},
             "bad_request", "not contiguous"),
            (FOLLOWER, 2, {"records": [_batch(6)]}, "bad_request",
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
            admit_frame(PRIMARY, 3, after_lsn=0, records=[_batch(1)])
        assert (exc.value.kind, exc.value.role) == ("bad_request", "follower")


class TestAdmitFrameTransitions:
    @pytest.mark.parametrize(
        "view, term, frame, expected",
        [
            # Promotion past the local term.
            (FOLLOWER, 3, {"promote": True}, ("primary", ())),
            # A primary seeing a higher term steps down first ...
            (PRIMARY, 3, {"snapshot": {}}, ("follower", ())),
            (PRIMARY, 3, {"after_lsn": 3, "records": [_batch(4)]},
             ("follower", (_record(4),))),
            # ... a follower just adopts it once the frame is applied.
            (FOLLOWER, 3, {"after_lsn": 3, "records": [_batch(4)]},
             (None, (_record(4),))),
            # Same term: records decoded, nothing else changes.
            (FOLLOWER, 2, {"after_lsn": 2,
                           "records": [_batch(3), _batch(4)]},
             (None, (_record(3), _record(4)))),
            (FOLLOWER, 2, {"after_lsn": 3, "records": []},
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
