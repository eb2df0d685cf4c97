"""Tests for the thread-safe summary query engine."""

import threading
import time

import pytest

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.core.serialization import save_representation
from repro.obs.metrics import counter_total, series_value
from repro.queries.neighbors import neighbor_query
from repro.queries.pagerank import pagerank_summary
from repro.queries.traversal import bfs_distances
from repro.queries.neighbors import SummaryNeighborIndex
from repro.service.engine import (
    OPS,
    QueryEngine,
    QueryError,
    QueryTimeout,
)
from repro.service.protocol import encode_message
from repro.service.server import SummaryQueryServer


@pytest.fixture
def rep(community_graph):
    return (
        MagsDMSummarizer(iterations=8, seed=1)
        .summarize(community_graph)
        .representation
    )


@pytest.fixture
def engine(rep):
    return QueryEngine(rep, cache_size=64)


class TestNeighbors:
    def test_matches_one_shot_query(self, engine, rep):
        for q in range(rep.n):
            assert set(engine.neighbors(q)) == neighbor_query(rep, q)

    def test_warm_cache_answers_match_cold(self, engine, rep):
        cold = {q: engine.neighbors(q) for q in range(60)}
        warm = {q: engine.neighbors(q) for q in range(60)}
        assert cold == warm

    def test_cache_hit_miss_accounting(self, engine):
        engine.neighbors(3)
        engine.neighbors(3)
        engine.neighbors(4)
        registry = engine.metrics.registry
        assert registry.counter("service_cache_misses_total").value == 2
        assert registry.counter("service_cache_hits_total").value == 1

    def test_cache_eviction_respects_capacity(self, rep):
        small = QueryEngine(rep, cache_size=8)
        for q in range(30):
            small.neighbors(q)
        assert small.cache_len == 8
        # Evicted entries recompute correctly.
        assert set(small.neighbors(0)) == neighbor_query(rep, 0)

    def test_zero_cache_disables_caching(self, rep):
        uncached = QueryEngine(rep, cache_size=0)
        uncached.neighbors(1)
        uncached.neighbors(1)
        assert uncached.cache_len == 0
        hits = uncached.metrics.registry.counter("service_cache_hits_total")
        assert hits.value == 0

    def test_degree(self, engine, rep):
        for q in range(0, rep.n, 7):
            assert engine.degree(q) == len(neighbor_query(rep, q))

    def test_out_of_range_rejected(self, engine, rep):
        with pytest.raises(QueryError, match="out of range"):
            engine.neighbors(rep.n)
        with pytest.raises(QueryError):
            engine.neighbors(-1)

    def test_verify_against_helper(self, engine, rep):
        assert all(engine.verify_against(q) for q in range(0, rep.n, 11))


class TestKhop:
    def test_matches_bfs_distances(self, engine, rep):
        index = SummaryNeighborIndex(rep)
        full = bfs_distances(index, 0)
        for k in (0, 1, 2, 3):
            got = engine.khop(0, k)
            want = {v: d for v, d in full.items() if d <= k}
            assert got == want

    def test_negative_k_rejected(self, engine):
        with pytest.raises(QueryError, match="k must be"):
            engine.khop(0, -1)

    def test_deadline_enforced(self, engine):
        with pytest.raises(QueryTimeout):
            engine.khop(0, 5, deadline=time.monotonic() - 1.0)


class TestPageRank:
    def test_scores_match_algorithm7(self, engine, rep):
        expected = pagerank_summary(rep)
        for q in (0, 5, rep.n - 1):
            assert engine.pagerank_score(q) == pytest.approx(expected[q])

    def test_vector_built_once(self, engine):
        engine.pagerank_score(0)
        first = engine._pagerank_scores
        engine.pagerank_score(1)
        assert engine._pagerank_scores is first


class TestQueryDict:
    def test_all_ops_listed(self):
        assert set(OPS) == {
            "neighbors", "degree", "khop", "pagerank", "telemetry", "ping",
        }

    def test_query_response_shape(self, engine, rep):
        response = engine.query({"id": 9, "op": "neighbors", "node": 2})
        assert response["id"] == 9
        assert response["ok"] is True
        assert response["result"] == sorted(neighbor_query(rep, 2))

    def test_unknown_op_rejected(self, engine):
        with pytest.raises(QueryError, match="unknown op"):
            engine.query({"op": "frobnicate"})

    def test_missing_node_rejected(self, engine):
        # The shape of a request is checked at the wire, not by the
        # engine, so the frame goes through the server's request path.
        response, _ = SummaryQueryServer(engine)._handle_line(
            encode_message({"id": 1, "op": "degree"})
        )
        assert response["id"] == 1
        assert response["error"]["type"] == "bad_request"
        assert "integer 'node'" in response["error"]["message"]

    def test_stats_includes_cache_occupancy(self, engine):
        engine.neighbors(1)
        registry = engine.query({"op": "telemetry"})["result"]["registry"]
        assert series_value(registry, "service_cache_entries") == 1
        assert series_value(registry, "service_cache_capacity") == 64

    def test_stats_includes_registry_snapshot(self, engine):
        engine.query({"op": "neighbors", "node": 2})
        engine.query({"op": "ping"})
        result = engine.query({"op": "telemetry"})["result"]
        registry = result["registry"]
        requests = {
            entry["labels"]["op"]: entry["value"]
            for entry in registry["service_requests_total"]
        }
        assert requests["neighbors"] == 1
        assert requests["ping"] == 1
        (latency,) = [
            entry
            for entry in registry["service_request_seconds"]
            if entry["labels"]["op"] == "neighbors"
        ]
        assert latency["kind"] == "histogram"
        assert latency["count"] == 1
        import json

        json.dumps(result)  # the telemetry body must stay JSON-serialisable

    def test_metrics_registry_counts_requests_and_errors(self, engine):
        engine.query({"op": "neighbors", "node": 2})
        with pytest.raises(QueryError):
            engine.query({"op": "neighbors", "node": -1})
        snap = engine.metrics.registry.snapshot()
        assert counter_total(snap, "service_requests_total") == 2
        assert counter_total(snap, "service_errors_total") == 1
        registry = engine.metrics.registry
        assert registry.counter(
            "service_requests_total", op="neighbors"
        ).value == 2
        assert registry.counter(
            "service_errors_total", op="neighbors"
        ).value == 1


class TestQueryMany:
    def test_batch_matches_individual(self, engine, rep):
        requests = [
            {"id": i, "op": "neighbors", "node": i % 20} for i in range(60)
        ]
        responses = engine.query_many(requests)
        assert len(responses) == 60
        for request, response in zip(requests, responses):
            assert response["id"] == request["id"]
            assert response["ok"]
            assert response["result"] == sorted(
                neighbor_query(rep, request["node"])
            )

    def test_batch_deduplicates_expansions(self, rep):
        engine = QueryEngine(rep, cache_size=64)
        requests = [
            {"id": i, "op": "neighbors", "node": i % 5} for i in range(50)
        ]
        engine.query_many(requests)
        registry = engine.metrics.registry
        # 5 unique nodes -> exactly 5 expansions despite 50 queries.
        assert registry.counter("service_cache_misses_total").value == 5
        batch = {
            name: registry.counter(f"service_{name}_total").value
            for name in ("batches", "batch_queries", "batch_unique_queries")
        }
        assert batch == {
            "batches": 1, "batch_queries": 50, "batch_unique_queries": 5
        }

    def test_batch_mixes_ops(self, engine, rep):
        requests = [
            {"id": 0, "op": "neighbors", "node": 1},
            {"id": 1, "op": "degree", "node": 1},
            {"id": 2, "op": "pagerank", "node": 1},
            {"id": 3, "op": "ping"},
        ]
        responses = engine.query_many(requests)
        assert [r["ok"] for r in responses] == [True] * 4
        assert responses[1]["result"] == len(neighbor_query(rep, 1))

    def test_batch_errors_inline(self, engine, rep):
        requests = [
            {"id": 0, "op": "neighbors", "node": 0},
            {"id": 1, "op": "neighbors", "node": rep.n + 5},
            {"id": 2, "op": "nope"},
            {"id": 3, "op": "degree", "node": 1},
        ]
        responses = engine.query_many(requests)
        assert responses[0]["ok"] and responses[3]["ok"]
        assert not responses[1]["ok"]
        assert responses[1]["error"]["type"] == "bad_request"
        assert not responses[2]["ok"]
        assert responses[2]["id"] == 2


class TestConcurrency:
    def test_parallel_readers_agree_with_oracle(self, engine, rep):
        failures = []

        def hammer(offset):
            try:
                for q in range(offset, rep.n, 4):
                    for _ in range(3):
                        got = set(engine.neighbors(q))
                        if got != neighbor_query(rep, q):
                            failures.append(q)
            except Exception as exc:  # pragma: no cover
                failures.append(repr(exc))

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []


class TestFromFile:
    def test_engine_from_saved_summary(self, tmp_path, rep):
        path = tmp_path / "s.txt.gz"
        save_representation(path, rep)
        engine = QueryEngine.from_file(path, cache_size=16)
        assert engine.representation.n == rep.n
        assert set(engine.neighbors(0)) == neighbor_query(rep, 0)
