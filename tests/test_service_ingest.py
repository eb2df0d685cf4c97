"""The ingest op end to end: engine, protocol, server, client retries."""

from __future__ import annotations

import re
import threading

import pytest

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.dynamic.summary import DynamicGraphSummary
from repro.graph import generators
from repro.resilience.faults import FaultInjector, FaultPlan, use_injector
from repro.resilience.retry import RetryPolicy
from repro.service import (
    MutableQueryEngine,
    QueryEngine,
    ServiceError,
    SummaryQueryServer,
    SummaryServiceClient,
)
from repro.service.engine import QueryError
from repro.service.protocol import (
    MAX_INGEST_MUTATIONS,
    ProtocolError,
    encode_message,
    validate_request,
    validate_response,
)


@pytest.fixture(scope="module")
def rep():
    graph = generators.planted_partition(120, 6, 0.65, 0.03, seed=5)
    return (
        MagsDMSummarizer(iterations=8, seed=1)
        .summarize(graph)
        .representation
    )


def _engine(rep, **kwargs):
    return MutableQueryEngine(
        DynamicGraphSummary.from_representation(rep), **kwargs
    )


def _free_edges(rep, count):
    edges = set(rep.reconstruct_edges())
    out = []
    for u in range(rep.n):
        for v in range(u + 1, rep.n):
            if (u, v) not in edges:
                out.append((u, v))
                if len(out) == count:
                    return out
    raise AssertionError("not enough free pairs")


def _wire_error(engine, stream, seq, mutations):
    """The error body of one ``ingest`` frame sent through the
    server's request path (schema check, then engine)."""
    response, _ = SummaryQueryServer(engine)._handle_line(
        encode_message({"id": 1, "op": "ingest", "stream": stream,
                        "seq": seq, "mutations": mutations})
    )
    assert response["ok"] is False
    return response["error"]


# ---------------------------------------------------------------------------
# Engine semantics
# ---------------------------------------------------------------------------
class TestMutableEngine:
    def test_ingest_applies_and_bumps_epoch(self, rep):
        engine = _engine(rep)
        (u, v), = _free_edges(rep, 1)
        assert v not in engine.neighbors(u)
        result = engine.ingest("s", 0, [["+", u, v]])
        assert result == {"applied": 1, "lsn": 1}
        assert engine.epoch == 1
        assert v in engine.neighbors(u)
        assert u in engine.neighbors(v)
        engine.ingest("s", 1, [["-", u, v]])
        assert engine.epoch == 2
        assert v not in engine.neighbors(u)

    def test_responses_echo_epoch(self, rep):
        engine = _engine(rep)
        response = engine.query({"id": 1, "op": "degree", "node": 0})
        assert response["epoch"] == 0
        (u, v), = _free_edges(rep, 1)
        engine.query(
            {"id": 2, "op": "ingest", "stream": "s", "seq": 0,
             "mutations": [["+", u, v]]}
        )
        response = engine.query({"id": 3, "op": "degree", "node": 0})
        assert response["epoch"] == 1

    def test_batch_responses_echo_epoch(self, rep):
        engine = _engine(rep)
        responses = engine.query_many(
            [{"id": 1, "op": "degree", "node": 0},
             {"id": 2, "op": "neighbors", "node": 1}]
        )
        assert all(r["epoch"] == 0 for r in responses)

    def test_duplicate_seq_deduped(self, rep):
        engine = _engine(rep)
        (u, v), = _free_edges(rep, 1)
        first = engine.ingest("s", 4, [["+", u, v]])
        again = engine.ingest("s", 4, [["+", u, v]])
        assert again == {**first, "duplicate": True}
        assert engine.epoch == 1  # applied exactly once

    def test_seq_reuse_with_different_batch_rejected(self, rep):
        """Dedup identity is sequence *and* content: the last seq
        replayed with different mutations must surface as an error,
        not be silently swallowed by the dedup cache."""
        engine = _engine(rep)
        (u, v), (x, y) = _free_edges(rep, 2)
        engine.ingest("s", 0, [["+", u, v]])
        with pytest.raises(QueryError, match="reused with different"):
            engine.ingest("s", 0, [["+", x, y]])
        assert y not in engine.neighbors(x)
        assert engine.epoch == 1
        # The true retry still dedups.
        again = engine.ingest("s", 0, [["+", u, v]])
        assert again.get("duplicate") is True

    def test_dry_run_validates_without_applying(self, rep):
        engine = _engine(rep)
        (u, v), = _free_edges(rep, 1)
        assert engine.ingest(
            "s", 0, [["+", u, v]], dry_run=True
        ) == {"validated": 1}
        # Nothing logged, applied, or remembered.
        assert engine.epoch == 0
        assert v not in engine.neighbors(u)
        result = engine.ingest("s", 0, [["+", u, v]])
        assert result == {"applied": 1, "lsn": 1}
        assert result.get("duplicate") is None
        # An inapplicable dry run is the same structured rejection as
        # a real one.
        with pytest.raises(QueryError, match="already exists"):
            engine.ingest("s", 1, [["+", u, v]], dry_run=True)
        # A dry run of the last acknowledged (seq, batch) answers from
        # the dedup cache — the prepare round of an already-applied
        # sub-batch reports acceptance, not a validation failure.
        again = engine.ingest("s", 0, [["+", u, v]], dry_run=True)
        assert again.get("duplicate") is True
        assert engine.epoch == 1

    def test_rewound_seq_rejected(self, rep):
        engine = _engine(rep)
        (u, v), (x, y) = _free_edges(rep, 2)
        engine.ingest("s", 7, [["+", u, v]])
        with pytest.raises(QueryError, match="sequence rewound"):
            engine.ingest("s", 3, [["+", x, y]])

    def test_inapplicable_batch_is_a_noop(self, rep):
        engine = _engine(rep)
        (u, v), (x, y) = _free_edges(rep, 2)
        # Second mutation re-inserts an edge the batch itself created.
        with pytest.raises(QueryError, match="already exists"):
            engine.ingest("s", 0, [["+", u, v], ["+", u, v]])
        assert engine.epoch == 0
        assert v not in engine.neighbors(u)
        # Delete of a never-present edge, same story.
        with pytest.raises(QueryError, match="does not exist"):
            engine.ingest("s", 0, [["-", x, y]])
        assert engine.epoch == 0

    @pytest.mark.parametrize(
        "stream,seq,mutations,message",
        [
            (None, 0, [["+", 0, 1]], "'stream'"),
            ("s", -1, [["+", 0, 1]], "'seq'"),
            ("s", True, [["+", 0, 1]], "'seq'"),
            ("s", 0, [], "non-empty"),
            ("s", 0, [["+", 0]], "must be a 3-item list"),
            ("s", 0, [["*", 0, 1]], "unknown sign"),
            ("s", 0, [["+", 0, "1"]], "integers"),
            ("s", 0, [["+", 0, 10**9]], "out of range"),
            ("s", 0, [["+", 3, 3]], "self-loop"),
        ],
    )
    def test_malformed_batches_rejected(
        self, rep, stream, seq, mutations, message
    ):
        # Shape is refused at the wire, range and self-loops by the
        # engine; either way nothing is applied.
        engine = _engine(rep)
        error = _wire_error(engine, stream, seq, mutations)
        assert error["type"] == "bad_request"
        assert re.search(message, error["message"])
        assert engine.epoch == 0

    def test_oversized_batch_rejected(self, rep):
        engine = _engine(rep)
        batch = [["+", 0, 1]] * (MAX_INGEST_MUTATIONS + 1)
        error = _wire_error(engine, "s", 0, batch)
        assert "exceeds the cap" in error["message"]
        assert engine.epoch == 0

    def test_replaying_parks_ingest_and_degrades_reads(self, rep):
        engine = _engine(rep)
        engine.replaying = True
        with pytest.raises(QueryError, match="replay in progress"):
            engine.ingest("s", 0, [["+", 0, 1]])
        response = engine.query({"id": 1, "op": "degree", "node": 0})
        assert response["degraded"] is True
        engine.replaying = False
        response = engine.query({"id": 2, "op": "degree", "node": 0})
        assert "degraded" not in response

    def test_inflight_cap_sheds_with_overloaded(self, rep):
        engine = _engine(rep, max_inflight=1)
        engine._inflight = 1  # simulate a parked admission slot
        with pytest.raises(QueryError, match="queue full") as excinfo:
            engine.ingest("s", 0, [["+", 0, 1]])
        assert excinfo.value.kind == "overloaded"
        engine._inflight = 0

    def test_budget_parks_ingest(self, rep):
        class TrippedBudget:
            def exhausted(self):
                return "memory_budget"

        engine = _engine(rep, budget=TrippedBudget())
        with pytest.raises(QueryError, match="budget exhausted"):
            engine.ingest("s", 0, [["+", 0, 1]])

    def test_pagerank_invalidated_by_commit(self, rep):
        engine = _engine(rep)
        (u, v), = _free_edges(rep, 1)
        before = engine.pagerank_score(u)
        for i in range(40):
            engine.ingest("s", i, [["+", u, v] if i % 2 == 0 else
                                   ["-", u, v]])
        engine.ingest("s", 40, [["+", u, v]])
        after = engine.pagerank_score(u)
        assert after != before

    def test_read_only_engine_rejects_ingest(self, rep):
        engine = QueryEngine(rep)
        with pytest.raises(QueryError, match="not enabled"):
            engine.query(
                {"id": 1, "op": "ingest", "stream": "s", "seq": 0,
                 "mutations": [["+", 0, 1]]}
            )

    def test_live_ingest_looks_each_edge_up_once(
        self, rep, tmp_path, monkeypatch
    ):
        """Validation and apply share one existence lookup per
        mutation: the check before the WAL append makes it, and the
        apply flips the correction it named."""
        from repro.durability.wal import WriteAheadLog
        from repro.queries.neighbors import SummaryNeighborIndex

        looked_up = []
        lookup = SummaryNeighborIndex.lookup

        def spy(index, u, v):
            looked_up.append((u, v))
            return lookup(index, u, v)

        monkeypatch.setattr(SummaryNeighborIndex, "lookup", spy)
        batch = [["+", u, v] for u, v in _free_edges(rep, 8)] + [
            ["-", u, v] for u, v in sorted(rep.reconstruct_edges())[:8]
        ]
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            engine = _engine(rep, wal=wal)
            assert engine.ingest("s", 0, batch)["applied"] == 16
        assert sorted(looked_up) == sorted((u, v) for _, u, v in batch)
        for sign, u, v in batch:
            assert (v in engine.neighbors(u)) == (sign == "+")

    def test_write_series_appear_with_the_first_write(self, rep, tmp_path):
        """The write path's metric handles are cached, yet a durable
        engine that has not ingested exports none of their series (an
        empty histogram would read ``{"count": 0}``, without a
        ``sum``)."""
        from repro.durability.wal import WriteAheadLog
        from repro.service import ServiceMetrics

        metrics = ServiceMetrics()
        names = (
            "repro_ingest_applied_total",
            "repro_wal_records_total",
            "repro_wal_fsync_seconds",
        )
        with WriteAheadLog(
            tmp_path, fsync="always", registry=metrics.registry
        ) as wal:
            engine = _engine(rep, wal=wal, metrics=metrics)
            assert not set(names) & set(metrics.registry.snapshot())
            (u, v), = _free_edges(rep, 1)
            engine.ingest("s", 0, [["+", u, v]])
            snapshot = metrics.registry.snapshot()
        assert snapshot["repro_ingest_applied_total"][0]["value"] == 1
        assert snapshot["repro_wal_records_total"][0]["labels"] == {
            "event": "appended"
        }
        assert snapshot["repro_wal_fsync_seconds"][0]["count"] >= 1

    def test_ingest_equivalent_to_from_scratch(self, rep):
        """The paper-level invariant: a summary mutated online equals
        a summary whose graph was edited before summarization."""
        engine = _engine(rep)
        pairs = _free_edges(rep, 3)
        for i, (u, v) in enumerate(pairs):
            engine.ingest("s", i, [["+", u, v]])
        graph = engine.state.dynamic.to_graph()
        expected = set(rep.reconstruct_edges()) | set(pairs)
        assert set(graph.edges()) == expected


# ---------------------------------------------------------------------------
# Protocol validation
# ---------------------------------------------------------------------------
class TestIngestProtocol:
    def _request(self, **overrides):
        request = {
            "id": 1, "op": "ingest", "stream": "s", "seq": 0,
            "mutations": [["+", 1, 2]],
        }
        request.update(overrides)
        return request

    def test_valid_request_passes(self):
        validate_request(self._request())

    @pytest.mark.parametrize(
        "overrides",
        [
            {"stream": 42},
            {"stream": ""},
            {"stream": "x" * 200},
            {"seq": "0"},
            {"seq": -1},
            {"seq": True},
            {"mutations": []},
            {"mutations": "nope"},
            {"mutations": [["+", 1]]},
            {"mutations": [["+", 1, -2]]},
            {"mutations": [["%", 1, 2]]},
            {"mutations": [["+", 1.5, 2]]},
            {"dry_run": 1},
            {"dry_run": "yes"},
            {"extra": 1},
        ],
    )
    def test_malformed_requests_rejected(self, overrides):
        with pytest.raises(ProtocolError):
            validate_request(self._request(**overrides))

    def test_dry_run_field_accepted(self):
        validate_request(self._request(dry_run=True))
        validate_request(self._request(dry_run=False))

    def test_oversized_batch_rejected_at_the_boundary(self):
        batch = [["+", 1, 2]] * (MAX_INGEST_MUTATIONS + 1)
        with pytest.raises(ProtocolError, match="cap"):
            validate_request(self._request(mutations=batch))

    def test_response_epoch_type_checked(self):
        good = {"id": 1, "ok": True, "op": "ingest",
                "result": {"applied": 1, "lsn": 1}, "epoch": 3}
        assert validate_response(good) == good
        with pytest.raises(ProtocolError, match="epoch"):
            validate_response({**good, "epoch": "3"})
        with pytest.raises(ProtocolError, match="epoch"):
            validate_response({**good, "epoch": -1})


# ---------------------------------------------------------------------------
# Server + client end to end
# ---------------------------------------------------------------------------
class TestIngestOverTheWire:
    @pytest.fixture
    def server(self, rep):
        with SummaryQueryServer(
            _engine(rep), workers=4, request_timeout=5.0
        ) as srv:
            yield srv

    def test_ingest_roundtrip_with_epoch(self, rep, server):
        host, port = server.address
        with SummaryServiceClient(host, port) as client:
            (u, v), = _free_edges(rep, 1)
            result = client.ingest([["+", u, v]])
            assert result["applied"] == 1
            assert v in client.neighbors(u)
            raw = client.request_raw(
                {"id": 99, "op": "degree", "node": u}
            )
            assert raw["epoch"] == 1

    def test_error_responses_carry_epoch(self, rep, server):
        host, port = server.address
        with SummaryServiceClient(host, port) as client:
            (u, v), = _free_edges(rep, 1)
            client.ingest([["+", u, v]])
            raw = client.request_raw(
                {"id": 100, "op": "degree", "node": 10**9}
            )
            assert raw["ok"] is False
            assert raw["epoch"] == 1

    def test_client_auto_seq_consumed_even_on_rejection(
        self, rep, server
    ):
        """A failed ingest burns its sequence number: after a cluster
        partial failure the number may already be recorded on some
        server, and reusing it for *different* mutations would let
        that server dedup — silently drop — the new batch.  Servers
        accept sequence gaps, so burning is always safe."""
        host, port = server.address
        with SummaryServiceClient(host, port) as client:
            (u, v), = _free_edges(rep, 1)
            client.ingest([["+", u, v]])
            assert client._ingest_seq == 1
            with pytest.raises(ServiceError, match="already exists"):
                client.ingest([["+", u, v]])
            # The rejected batch consumed seq 1; the next batch lands
            # at seq 2 and the server accepts the gap.
            assert client._ingest_seq == 2
            result = client.ingest([["-", u, v]])
            assert result["applied"] == 1
            assert client._ingest_seq == 3

    def test_lost_ack_retry_is_deduplicated(self, rep, server):
        """The satellite-4 contract: a retry after a lost *response*
        resends the original sequence number, so the server applies
        once and answers ``duplicate: true``."""
        host, port = server.address
        client = SummaryServiceClient(
            host, port, timeout=10.0,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.001, max_delay=0.01
            ),
        )
        (u, v), = _free_edges(rep, 1)
        injector = FaultInjector(
            # The request is *sent* (and applied server-side); the
            # acknowledgement never arrives.
            FaultPlan().drop("client:recv", after=0, times=1)
        )
        with use_injector(injector):
            result = client.ingest([["+", u, v]])
        assert injector.fired_count("client:recv") == 1
        assert result["applied"] == 1
        assert result.get("duplicate") is True  # second delivery deduped
        assert v in client.neighbors(u)
        # Applied exactly once: deleting it once succeeds, twice fails.
        client.ingest([["-", u, v]])
        with pytest.raises(ServiceError, match="does not exist"):
            client.ingest([["-", u, v]])
        client.close()

    def test_shutdown_never_retried_ingest_needs_identity(self):
        from repro.service.client import _retry_safe

        assert _retry_safe("neighbors", {"node": 1}) is True
        assert _retry_safe("shutdown", {}) is False
        assert _retry_safe(
            "ingest", {"stream": "s", "seq": 0, "mutations": []}
        ) is True
        assert _retry_safe("ingest", {"seq": 0}) is False
        assert _retry_safe("ingest", {"stream": "s"}) is False

    def test_concurrent_ingest_streams_all_land(self, rep, server):
        host, port = server.address
        pairs = _free_edges(rep, 8)
        errors = []

        def worker(pair):
            try:
                with SummaryServiceClient(host, port) as client:
                    client.ingest([["+", pair[0], pair[1]]])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(pair,))
            for pair in pairs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        with SummaryServiceClient(host, port) as client:
            for u, v in pairs:
                assert v in client.neighbors(u)
            raw = client.request_raw({"id": 1, "op": "ping"})
            assert raw["epoch"] == len(pairs)
