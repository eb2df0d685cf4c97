"""Primary/follower WAL shipping: determinism, fencing, catch-up.

Engine-level suite — replication runs over the in-process transport
of ``tests/inprocess.py`` (the real codec and schema check, no
sockets), so every test is deterministic: a quorum-acked
ingest returns only after the follower holds and applied the batch,
and the two engines can be compared byte-for-byte at every step.
The socket path is covered by ``tests/test_cluster_ingest.py``:
router promotion over a live local cluster, a primary killed and
rejoined as a follower, and the kill itself.  The one real
``kill -9`` of a server process is ``tools/chaos_harness.py``.
"""

from __future__ import annotations

import base64
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.cluster.router import ReplicaPool, ShardPool
from repro.cluster.topology import InstanceSpec
from repro.core.verify import deep_audit
from repro.durability import (
    WriteAheadLog,
    quorum_size,
    recover_engine,
    replay_tail,
)
from repro.durability.wal import TermRecord, WalRecord, encode_record
from repro.dynamic.summary import DynamicGraphSummary
from repro.graph import generators
from repro.graph.graph import Graph
from repro.obs.metrics import series_value
from repro.resilience import CheckpointStore
from repro.resilience.retry import RetryPolicy
from repro.service.engine import QueryError
from repro.service.ingest import MutableQueryEngine
from repro.service.metrics import ServiceMetrics
from tests.inprocess import InProcessNetwork


@pytest.fixture(scope="module")
def base_rep():
    graph = generators.planted_partition(60, 4, 0.5, 0.05, seed=7)
    return MagsDMSummarizer(iterations=8, seed=1).summarize(
        graph
    ).representation


def _make_engine(base_rep, wal_dir=None, **wal_options):
    """A mutable engine, optionally durable (WAL + checkpoint store)."""
    wal = store = None
    if wal_dir is not None:
        wal = WriteAheadLog(wal_dir, **wal_options)
        store = CheckpointStore(wal_dir / "checkpoints")
    engine = MutableQueryEngine(
        DynamicGraphSummary.from_representation(base_rep), wal=wal
    )
    return engine, wal, store


def _pair(primary_engine, follower_engine, *, acks="quorum",
          follower_store=None):
    """Wire ``primary -> follower`` in process: the primary is host
    ``a`` and the follower host ``b`` on one network, so a promoted
    ``b`` reaches ``a`` as its follower."""
    network = InProcessNetwork({"a": primary_engine, "b": follower_engine})
    follower_engine.configure_replication(
        role="follower", connect=network, store=follower_store,
    )
    primary_engine.configure_replication(
        role="primary", followers=[("b", 1)], acks=acks, connect=network,
    )


def _state_bytes(engine) -> bytes:
    """One engine's full replicated state as canonical bytes."""
    with engine._state_lock:
        state = engine.state.to_state()
    return json.dumps(state, sort_keys=True).encode()


def _frames(*records) -> str:
    """``records`` as the ``frames`` field of a ``replicate`` request."""
    return base64.b64encode(
        b"".join(map(encode_record, records))
    ).decode("ascii")


def _wal_bytes(wal_dir) -> bytes:
    return b"".join(
        path.read_bytes()
        for path in sorted(wal_dir.glob("wal-*.log"))
    )


def _free_pairs(rep, count):
    """``count`` distinct non-edges of the base graph."""
    edges = set(rep.reconstruct().edges())
    pairs = []
    for u in range(rep.n):
        for v in range(u + 1, rep.n):
            if (u, v) not in edges:
                pairs.append((u, v))
                if len(pairs) == count:
                    return pairs
    raise AssertionError("graph too dense for test")


class TestWireFormat:
    def test_malformed_wire_records_rejected(self, base_rep, tmp_path):
        """A ``replicate`` request whose frames do not decode whole is
        a ``bad_request`` before anything reaches the follower's log —
        not even the intact records ahead of the damage."""
        follower, wal, store = _make_engine(base_rep, tmp_path)
        follower.configure_replication(role="follower", store=store)
        (u, v), = _free_pairs(base_rep, 1)
        good = encode_record(TermRecord(lsn=1, term=1)) + encode_record(
            WalRecord(lsn=2, stream="s", seq=0, mutations=(("+", u, v),))
        )
        damaged = good[:-1] + bytes([good[-1] ^ 1])
        for bad in (
            "%%%",
            base64.b64encode(damaged).decode(),
            _frames(TermRecord(lsn=1, term=0)),
            _frames(WalRecord(lsn=1, stream="s", seq=0, mutations=())),
        ):
            with pytest.raises(QueryError) as excinfo:
                follower.apply_replicated(1, after_lsn=0, frames=bad)
            assert excinfo.value.kind == "bad_request"
            assert (wal.last_lsn, follower.applied_lsn) == (0, 0)
            assert _wal_bytes(tmp_path) == b""
        follower.apply_replicated(
            1, after_lsn=0, frames=base64.b64encode(good).decode()
        )
        assert _wal_bytes(tmp_path) == good

    def test_quorum_sizes(self):
        assert quorum_size(1) == 1
        assert quorum_size(2) == 2
        assert quorum_size(3) == 2
        assert quorum_size(5) == 3


class TestShipping:
    def test_quorum_acked_ingest_is_bit_identical(
        self, base_rep, tmp_path
    ):
        primary, p_wal, _ = _make_engine(base_rep, tmp_path / "p")
        follower, f_wal, f_store = _make_engine(base_rep, tmp_path / "f")
        _pair(primary, follower, follower_store=f_store)
        pairs = _free_pairs(base_rep, 6)
        for seq, (u, v) in enumerate(pairs):
            primary.ingest("s", seq, [["+", u, v]])
            # Quorum over {primary, follower} is 2: the ack implies
            # the follower holds AND applied the record — states are
            # comparable immediately, no settling sleep.
            assert _state_bytes(primary) == _state_bytes(follower)
        primary.ingest("s", len(pairs), [["-", pairs[0][0], pairs[0][1]]])
        assert _state_bytes(primary) == _state_bytes(follower)
        assert primary.epoch == follower.epoch
        # The shipped log *is* the primary's log: byte-identical WALs.
        p_wal.sync()
        f_wal.sync()
        assert _wal_bytes(tmp_path / "p") == _wal_bytes(tmp_path / "f")
        primary.stop_replication()

    def test_maintenance_pass_replicates(self, base_rep, tmp_path):
        primary, _, _ = _make_engine(base_rep, tmp_path / "p")
        follower, _, f_store = _make_engine(base_rep, tmp_path / "f")
        _pair(primary, follower, follower_store=f_store)
        pairs = _free_pairs(base_rep, 4)
        for seq, (u, v) in enumerate(pairs):
            primary.ingest("s", seq, [["+", u, v]])
        outcome = primary.maintenance_pass(max_supernodes=8)
        if outcome.get("outcome") == "committed":
            # Maintenance ships in the background; force the lagging
            # follower up to date by publishing its LSN inline.
            primary._replicator.publish(outcome["lsn"])
        assert _state_bytes(primary) == _state_bytes(follower)
        primary.stop_replication()

    def test_follower_rejects_direct_ingest(self, base_rep):
        follower, _, _ = _make_engine(base_rep)
        follower.configure_replication(role="follower")
        with pytest.raises(QueryError) as excinfo:
            follower.ingest("s", 0, [["+", 0, 1]])
        assert excinfo.value.kind == "not_primary"

    def test_follower_skips_maintenance(self, base_rep):
        follower, _, _ = _make_engine(base_rep)
        follower.configure_replication(role="follower")
        assert follower.maintenance_pass() == {
            "outcome": "skipped", "reason": "follower",
        }

    def test_repl_status_reports_lag_and_role(self, base_rep):
        primary, _, _ = _make_engine(base_rep)
        follower, _, _ = _make_engine(base_rep)
        _pair(primary, follower)
        status = primary.repl_status()
        assert status["role"] == "primary"
        assert status["term"] == 1
        assert len(status["followers"]) == 1
        assert status["followers"][0]["lag"] >= 0
        assert follower.repl_status()["role"] == "follower"
        primary.stop_replication()


class TestFencingAndPromotion:
    def test_stale_term_is_fenced(self, base_rep):
        follower, _, _ = _make_engine(base_rep)
        follower.configure_replication(role="follower")
        follower.apply_replicated(
            3, after_lsn=0,
            frames=_frames(TermRecord(lsn=1, term=3)),
        )
        with pytest.raises(QueryError) as excinfo:
            follower.apply_replicated(2, after_lsn=1, frames="")
        assert excinfo.value.kind == "fenced"

    def test_promotion_takes_over_and_old_primary_catches_up(
        self, base_rep, tmp_path
    ):
        a, _, _ = _make_engine(base_rep, tmp_path / "a")
        b, _, b_store = _make_engine(base_rep, tmp_path / "b")
        _pair(a, b, follower_store=b_store)
        pairs = _free_pairs(base_rep, 5)
        for seq, (u, v) in enumerate(pairs[:3]):
            a.ingest("s", seq, [["+", u, v]])
        # A "dies"; B is promoted with A as its (future) follower.
        a.stop_replication()
        status = b.apply_replicated(
            2, promote=True, followers=[["a", 0]], acks="quorum",
        )
        assert status["role"] == "primary"
        assert status["term"] == 2
        assert b.role == "primary"
        # Write through B, whose shipper reaches the revived A: the
        # quorum publish drives A's catch-up inline.  A's log has the
        # same prefix but was written under term 1 and extends past
        # B's cursor, so the term change forces a snapshot install —
        # the old primary cannot be incrementally appended over.
        u, v = pairs[3]
        b.ingest("s", 3, [["+", u, v]])
        assert a.role == "follower"
        assert a.term == 2
        assert _state_bytes(a) == _state_bytes(b)
        b.stop_replication()

    def test_stale_primary_unshipped_suffix_is_replaced(
        self, base_rep, tmp_path
    ):
        """A dead primary's unreplicated batch sits at the LSN where
        the new primary stamped its term.  The frame that fences the
        old primary must not be appended over that suffix: it gets a
        snapshot and converges to the new primary's bits."""
        a, _, _ = _make_engine(base_rep, tmp_path / "a")
        b, _, b_store = _make_engine(base_rep, tmp_path / "b")
        _pair(a, b, follower_store=b_store)
        pairs = _free_pairs(base_rep, 4)
        for seq, (u, v) in enumerate(pairs[:2]):
            a.ingest("s", seq, [["+", u, v]])
        a.stop_replication()
        u, v = pairs[2]
        a.ingest("s", 2, [["+", u, v]])  # never shipped: lsn 4 on A
        b.apply_replicated(2, promote=True, followers=[["a", 0]])
        u, v = pairs[3]
        b.ingest("t", 0, [["+", u, v]])
        assert a.role == "follower"
        assert _state_bytes(a) == _state_bytes(b)
        b.stop_replication()

    def test_snapshot_install_drops_divergent_checkpoints(
        self, base_rep, tmp_path
    ):
        """A stale primary checkpointed its unshipped suffix at an LSN
        past the snapshot it is later given.  The install must discard
        that checkpoint, or a restart recovers the divergent state."""
        a, a_wal, a_store = _make_engine(base_rep, tmp_path / "a")
        b, _, b_store = _make_engine(base_rep, tmp_path / "b")
        _pair(a, b, follower_store=b_store)
        a._checkpoint_store = a_store
        pairs = _free_pairs(base_rep, 6)
        for seq, (u, v) in enumerate(pairs[:2]):
            a.ingest("s", seq, [["+", u, v]])
        a.stop_replication()
        for seq, (u, v) in enumerate(pairs[2:5], start=2):
            a.ingest("s", seq, [["+", u, v]])  # never shipped
        a_store.save(a.snapshot_state(), step=a.applied_lsn)
        divergent_step = a.applied_lsn
        b.apply_replicated(2, promote=True, followers=[["a", 0]])
        u, v = pairs[5]
        b.ingest("t", 0, [["+", u, v]])
        b.stop_replication()
        assert _state_bytes(a) == _state_bytes(b)
        assert max(a_store.steps()) < divergent_step
        a_wal.close()
        wal = WriteAheadLog(tmp_path / "a")
        revived, pending, report = recover_engine(
            base_rep, wal, a_store,
            engine_factory=lambda dynamic: MutableQueryEngine(
                dynamic, wal=wal
            ),
        )
        replay_tail(revived, pending, report)
        assert _state_bytes(revived) == _state_bytes(b)

    def test_fenced_quorum_ship_answers_not_primary(self, base_rep):
        """A primary whose quorum ship is fenced (a follower was
        promoted behind its back) answers ``not_primary``, as a
        follower does, so the client re-routes instead of reading a
        replication outage."""
        a, _, _ = _make_engine(base_rep)
        b, _, _ = _make_engine(base_rep)
        _pair(a, b)
        (u, v), (x, y) = _free_pairs(base_rep, 2)
        a.ingest("s", 0, [["+", u, v]])
        b.apply_replicated(2, promote=True)
        try:
            with pytest.raises(QueryError) as excinfo:
                a.ingest("s", 1, [["+", x, y]])
            assert excinfo.value.kind == "not_primary"
            assert (a.role, b.role) == ("follower", "primary")
            assert y not in b.neighbors(x)
            # Documented: the unacknowledged batch stays visible on
            # the stale primary until the new primary replaces its
            # state.
            assert y in a.neighbors(x)
            with pytest.raises(QueryError) as excinfo:
                a.ingest("s", 2, [["-", x, y]])
            assert excinfo.value.kind == "not_primary"
        finally:
            a.stop_replication()
            b.stop_replication()

    def test_stale_promotion_is_fenced(self, base_rep):
        engine, _, _ = _make_engine(base_rep)
        engine.configure_replication(role="follower")
        engine.apply_replicated(
            4, after_lsn=0,
            frames=_frames(TermRecord(lsn=1, term=4)),
        )
        with pytest.raises(QueryError) as excinfo:
            engine.apply_replicated(3, promote=True)
        assert excinfo.value.kind == "fenced"

    def test_replay_duplicate_across_promotion(self, base_rep):
        """The acked-then-retried batch: replicated to the follower,
        primary dies, client replays the same (stream, seq) — the
        promoted follower answers ``duplicate: true``."""
        a, _, _ = _make_engine(base_rep)
        b, _, _ = _make_engine(base_rep)
        _pair(a, b)
        u, v = _free_pairs(base_rep, 1)[0]
        first = a.ingest("client", 9, [["+", u, v]])
        assert "lsn" in first
        a.stop_replication()
        b.apply_replicated(2, promote=True)
        retry = b.ingest("client", 9, [["+", u, v]])
        assert retry["duplicate"] is True
        assert retry["applied"] == first["applied"]
        b.stop_replication()


class TestFrameValidation:
    """A follower validates a whole ``replicate`` frame before it logs
    or applies any of it; every rejection is a ``bad_request`` (which
    the primary answers with a snapshot) that changes nothing."""

    def _follower(self, base_rep, tmp_path):
        follower, wal, store = _make_engine(base_rep, tmp_path / "f")
        follower.configure_replication(role="follower", store=store)
        return follower, wal

    @staticmethod
    def _batch(lsn, u, v):
        return WalRecord(
            lsn=lsn, stream="s", seq=lsn, mutations=(("+", u, v),)
        )

    def _assert_rejected(self, follower, wal_dir, match, term, **frame):
        state, log = _state_bytes(follower), _wal_bytes(wal_dir)
        with pytest.raises(QueryError, match=match) as excinfo:
            follower.apply_replicated(term, **frame)
        assert excinfo.value.kind == "bad_request"
        assert _state_bytes(follower) == state
        assert _wal_bytes(wal_dir) == log

    def test_frame_starting_past_the_log_is_rejected(
        self, base_rep, tmp_path
    ):
        follower, wal = self._follower(base_rep, tmp_path)
        (u, v), = _free_pairs(base_rep, 1)
        self._assert_rejected(
            follower, tmp_path / "f", "records 1-2 are missing", 1,
            after_lsn=None, frames=_frames(self._batch(3, u, v)),
        )
        assert wal.last_lsn == 0

    def test_frame_skipping_an_lsn_is_rejected(self, base_rep, tmp_path):
        follower, wal = self._follower(base_rep, tmp_path)
        follower.apply_replicated(
            1, after_lsn=0,
            frames=_frames(TermRecord(lsn=1, term=1)),
        )
        (a, b), (c, d) = _free_pairs(base_rep, 2)
        # Resumes at the right cursor but one LSN too far ...
        self._assert_rejected(
            follower, tmp_path / "f", "record 2 is missing", 1,
            after_lsn=0, frames=_frames(self._batch(3, a, b)),
        )
        # ... or starts right and skips an LSN mid-frame.
        self._assert_rejected(
            follower, tmp_path / "f", "not contiguous", 1,
            after_lsn=1,
            frames=_frames(self._batch(2, a, b), self._batch(4, c, d)),
        )
        assert wal.last_lsn == 1
        assert follower.applied_lsn == 1

    def test_frame_during_replay_is_deferred(self, base_rep, tmp_path):
        follower, wal = self._follower(base_rep, tmp_path)
        follower.replaying = True
        with pytest.raises(QueryError) as excinfo:
            follower.apply_replicated(
                1, after_lsn=0,
                frames=_frames(TermRecord(lsn=1, term=1)),
            )
        assert excinfo.value.kind == "overloaded"
        assert wal.last_lsn == 0

    def test_promotion_during_replay_is_deferred(self, base_rep, tmp_path):
        """A promotion must not stamp its term at the end of a log the
        state has not replayed to: it is refused whole, leaving role,
        term, replicator and WAL as they were."""
        follower, wal = self._follower(base_rep, tmp_path)
        follower.apply_replicated(
            1, after_lsn=0,
            frames=_frames(TermRecord(lsn=1, term=1)),
        )
        follower.replaying = True
        state, log = _state_bytes(follower), _wal_bytes(tmp_path / "f")
        with pytest.raises(QueryError) as excinfo:
            follower.apply_replicated(
                2, promote=True, followers=[["a", 0]]
            )
        assert excinfo.value.kind == "overloaded"
        assert (follower.role, follower.term) == ("follower", 1)
        assert follower._replicator is None
        assert _state_bytes(follower) == state
        assert _wal_bytes(tmp_path / "f") == log

    @pytest.mark.parametrize("defect", ["version", "missing_key"])
    def test_malformed_snapshot_is_rejected(
        self, base_rep, tmp_path, defect
    ):
        primary, _, _ = _make_engine(base_rep)
        primary.configure_replication(role="primary")
        (u, v), = _free_pairs(base_rep, 1)
        primary.ingest("s", 0, [["+", u, v]])
        snapshot = primary.snapshot_state()
        if defect == "version":
            snapshot["v"] = 99
        else:
            del snapshot["dedup"]
        follower, _ = self._follower(base_rep, tmp_path)
        follower.apply_replicated(
            1, after_lsn=0,
            frames=_frames(TermRecord(lsn=1, term=1)),
        )
        self._assert_rejected(
            follower, tmp_path / "f", "malformed snapshot", 1,
            snapshot=snapshot,
        )


class TestCatchUp:
    def test_follower_crash_recovery_then_incremental_catch_up(
        self, base_rep, tmp_path
    ):
        primary, _, _ = _make_engine(base_rep, tmp_path / "p")
        follower, f_wal, f_store = _make_engine(
            base_rep, tmp_path / "f"
        )
        _pair(primary, follower, follower_store=f_store)
        pairs = _free_pairs(base_rep, 6)
        for seq, (u, v) in enumerate(pairs[:3]):
            primary.ingest("s", seq, [["+", u, v]])
        # Follower "crashes": rebuild it from its own WAL + store.
        primary.stop_replication()
        f_wal.close()
        f_wal2 = WriteAheadLog(tmp_path / "f")
        revived, pending, report = recover_engine(
            base_rep, f_wal2, f_store,
            engine_factory=lambda dynamic: MutableQueryEngine(
                dynamic, wal=f_wal2
            ),
        )
        replay_tail(revived, pending, report)
        revived.configure_replication(role="follower", store=f_store)
        assert revived.term == primary.term
        # Reconnect the primary and write more; same term, so the
        # rejoin is an incremental WAL-tail ship, not a snapshot.
        primary.configure_replication(
            role="primary",
            followers=[("f", 0)],
            acks="quorum",
            connect=InProcessNetwork({"f": revived}),
        )
        for seq, (u, v) in enumerate(pairs[3:], start=3):
            primary.ingest("s", seq, [["+", u, v]])
        assert _state_bytes(primary) == _state_bytes(revived)
        # An incremental ship appends the primary's own records, so
        # the two logs hold the same bytes.
        assert _wal_bytes(tmp_path / "p") == _wal_bytes(tmp_path / "f")
        edges = set(base_rep.reconstruct_edges()) | set(pairs)
        assert deep_audit(
            revived.representation, Graph(base_rep.n, sorted(edges)),
            optimal=False,
        ) == []
        assert not series_value(
            revived.metrics.registry.snapshot(),
            "repro_replication_snapshots_installed_total",
        )
        primary.stop_replication()

    def test_far_behind_follower_gets_snapshot(self, base_rep, tmp_path):
        # One record per segment: truncation keeps the active segment,
        # so only a rolled log loses what a fresh follower needs.
        primary, p_wal, p_store = _make_engine(
            base_rep, tmp_path / "p", segment_bytes=1
        )
        pairs = _free_pairs(base_rep, 5)
        for seq, (u, v) in enumerate(pairs):
            primary.ingest("s", seq, [["+", u, v]])
        # Compact + truncate the primary's WAL: the incremental
        # records a fresh follower would need are gone.
        with primary._state_lock:
            state = primary.state.to_state()
        p_store.save(state, step=primary.applied_lsn)
        assert p_wal.truncate_through(primary.applied_lsn) == 4
        assert p_wal.truncated_lsn == 4
        follower, _, f_store = _make_engine(base_rep, tmp_path / "f")
        follower.configure_replication(role="follower", store=f_store)
        primary.configure_replication(
            role="primary",
            followers=[("f", 0)],
            acks="quorum",
            connect=InProcessNetwork({"f": follower}),
        )
        u, v = _free_pairs(base_rep, 6)[5]
        primary.ingest("s", 5, [["+", u, v]])
        assert _state_bytes(primary) == _state_bytes(follower)
        assert series_value(
            primary.metrics.registry.snapshot(),
            "repro_replication_ship_total", event="snapshots",
        ) == 1
        primary.stop_replication()


class TestDeterminismProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=59),
                    st.integers(min_value=0, max_value=59),
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_primary_and_follower_identical_at_every_acked_epoch(
        self, base_rep, batches
    ):
        """The determinism contract, Hypothesis-proven: after every
        acknowledged batch the follower's edge set, epoch, and full
        serialized state equal the primary's."""
        primary, _, _ = _make_engine(base_rep)
        follower, _, _ = _make_engine(base_rep)
        _pair(primary, follower)
        edges = set(base_rep.reconstruct().edges())
        seq = 0
        try:
            for batch in batches:
                mutations = []
                staged = set(edges)
                for u, v in batch:
                    if u == v:
                        continue
                    pair = (min(u, v), max(u, v))
                    if pair in staged:
                        mutations.append(["-", pair[0], pair[1]])
                        staged.discard(pair)
                    else:
                        mutations.append(["+", pair[0], pair[1]])
                        staged.add(pair)
                if not mutations:
                    continue
                primary.ingest("prop", seq, mutations)
                seq += 1
                edges = staged
                assert primary.epoch == follower.epoch
                assert (
                    set(primary.representation.reconstruct().edges())
                    == set(
                        follower.representation.reconstruct().edges()
                    )
                    == edges
                )
                assert _state_bytes(primary) == _state_bytes(follower)
        finally:
            primary.stop_replication()


class TestElectionFromMinorityView:
    def test_lagging_replica_alone_is_not_promoted(self, base_rep):
        """Three replicas, ``acks=quorum``: ``a`` acks W with ``b``
        while ``c`` lags, then ``a`` and ``b`` go unreachable.  ``c``
        alone is a minority view — promoting it would open a second
        term-1 primary without W.  Once ``b`` answers, ``b`` (which
        holds W) is promoted and W survives on every replica."""
        engines = {name: _make_engine(base_rep)[0] for name in "abc"}
        a, b, c = engines["a"], engines["b"], engines["c"]
        network = InProcessNetwork(engines)
        network.down = {"c"}
        for follower in (b, c):
            follower.configure_replication(role="follower", connect=network)
        a.configure_replication(
            role="primary",
            followers=[("b", 2), ("c", 3)],
            acks="quorum",
            connect=network,
        )
        shard = ShardPool(
            0,
            [
                ReplicaPool(
                    InstanceSpec(shard=0, replica=i, host=name, port=i + 1),
                    breaker_threshold=2,
                    breaker_reset_s=5.0,
                    connect=network,
                )
                for i, name in enumerate("abc")
            ],
            retry_policy=RetryPolicy(max_attempts=1),
            metrics=ServiceMetrics(),
        )
        (u, v), (x, y) = _free_pairs(base_rep, 2)
        try:
            a.ingest("s", 0, [["+", u, v]])  # W: quorum {a, b}
            assert v in b.neighbors(u) and v not in c.neighbors(u)
            a.stop_replication()
            network.down = {"a", "b"}
            assert shard.ensure_primary() is False
            assert (c.role, c.term) == ("follower", 0)

            network.down = {"a"}
            assert shard.ensure_primary() is True
            assert shard.primary == 1
            assert (b.role, b.term) == ("primary", 2)
            shard.request(
                "ingest", stream="t", seq=0, mutations=[["+", x, y]]
            )
            network.down = set()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not (
                _state_bytes(a) == _state_bytes(b) == _state_bytes(c)
            ):
                time.sleep(0.05)
            assert _state_bytes(a) == _state_bytes(b) == _state_bytes(c)
            for engine in (a, b, c):
                assert v in engine.neighbors(u)
                assert y in engine.neighbors(x)
            assert a.role == c.role == "follower"
        finally:
            for engine in engines.values():
                engine.stop_replication()
