"""Tests for the consistent-hash router: bit-identity with a single
server, batch fan-out semantics, and replica failover."""

import random
import threading
import time

import pytest

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.cluster.manager import start_local_cluster
from repro.cluster.router import (
    BREAKER_STATES,
    RouterEngine,
    ShardDownError,
    chunks,
    first_refusal,
    khop_step,
    plan_batch,
    plan_ingest,
)
from repro.cluster.sharder import shard_graph
from repro.cluster.topology import TopologyError, default_spec, shard_for_node
from repro.graph.generators import planted_partition
from repro.obs.metrics import counter_total, series_value
from repro.resilience.retry import RetryPolicy
from repro.service.engine import QueryError
from repro.service.protocol import MAX_BATCH_REQUESTS
from repro.service import (
    QueryEngine,
    ServiceError,
    SummaryQueryServer,
    SummaryServiceClient,
)

SEED = 0
SHARDS = 2

#: Keeps failover tests fast: one sweep per request, no backoff.
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.02)


def summarize(graph):
    return (
        MagsDMSummarizer(iterations=8, seed=1)
        .summarize(graph)
        .representation
    )


@pytest.fixture(scope="module")
def graph():
    return planted_partition(200, 10, 0.6, 0.03, seed=11)


@pytest.fixture(scope="module")
def full_rep(graph):
    return summarize(graph)


@pytest.fixture(scope="module")
def shard_reps(graph):
    return [summarize(sub) for sub in shard_graph(graph, SHARDS, seed=SEED)]


@pytest.fixture(scope="module")
def single_engine(full_rep):
    return QueryEngine(full_rep, cache_size=1024)


def far_deadline():
    return time.monotonic() + 30.0


@pytest.fixture(scope="module")
def single_client(full_rep):
    """A plain one-server deployment, the wire-level reference."""
    engine = QueryEngine(full_rep, cache_size=1024)
    with SummaryQueryServer(engine, workers=4) as server:
        host, port = server.address
        with SummaryServiceClient(host, port, timeout=30.0) as client:
            yield client


@pytest.fixture(scope="module")
def cluster(shard_reps, graph):
    with start_local_cluster(
        shard_reps,
        replicas=1,
        seed=SEED,
        n=graph.n,
        retry_policy=FAST_RETRY,
    ) as local:
        yield local


@pytest.fixture(scope="module")
def router_client(cluster):
    host, port = cluster.router_address
    with SummaryServiceClient(host, port, timeout=30.0) as client:
        yield client


class TestRoutingPlan:
    """The pure routing decisions, on a hand-made owner table: nodes
    0-1 live on shard 0, nodes 2-3 on shard 1."""

    N = 4
    OWNER = staticmethod({0: 0, 1: 0, 2: 1, 3: 1}.__getitem__)

    @pytest.mark.parametrize("mutations, expected", [
        # An edge inside one shard goes to its one owner.
        ([["+", 0, 1]], {0: [0]}),
        # A cut edge goes to both endpoint owners.
        ([["-", 1, 2]], {0: [0], 1: [0]}),
        # Each owner keeps its mutations in batch order.
        (
            [["+", 2, 3], ["+", 0, 3], ["-", 0, 1]],
            {1: [0, 1], 0: [1, 2]},
        ),
    ])
    def test_ingest_split(self, mutations, expected):
        assert plan_ingest(mutations, self.N, self.OWNER) == expected

    @staticmethod
    def _refused(message):
        return ServiceError({"type": "bad_request", "message": message})

    @pytest.mark.parametrize("errors, expected", [
        # Batch [+0-1 (free), -2-3 (absent), +0-1 again (now present)]:
        # shard 0 refuses its sub-batch's #1, batch #2; shard 1 its
        # #0, batch #1.  One engine names #1, whichever shard answers
        # first.
        (
            {
                0: "mutation #1: edge (0, 1) already exists",
                1: "mutation #0: edge (2, 3) does not exist",
            },
            ("bad_request", "mutation #1: edge (2, 3) does not exist"),
        ),
        (
            {
                1: "mutation #0: edge (2, 3) does not exist",
                0: "mutation #1: edge (0, 1) already exists",
            },
            ("bad_request", "mutation #1: edge (2, 3) does not exist"),
        ),
        # One refusing shard: its index, mapped to the batch's.
        (
            {0: "mutation #1: edge (0, 1) already exists"},
            ("bad_request", "mutation #2: edge (0, 1) already exists"),
        ),
    ])
    def test_first_refusal_names_the_first_bad_mutation(
        self, errors, expected
    ):
        plan = plan_ingest(
            [["+", 0, 1], ["-", 2, 3], ["+", 0, 1]], self.N, self.OWNER
        )
        assert plan == {0: [0, 2], 1: [1]}
        chosen = first_refusal(
            {shard: self._refused(m) for shard, m in errors.items()}, plan
        )
        assert (chosen.kind, str(chosen)) == expected

    def test_first_refusal_relays_other_errors_in_shard_order(self):
        down = ShardDownError(0, 2)
        timeout = ServiceError({"type": "timeout", "message": "slow"})
        assert first_refusal({1: timeout, 0: down}, {0: [0], 1: [0]}) is down

    @pytest.mark.parametrize("mutations, message", [
        ([["+", 0, 4]], "mutation #0: node 4 out of range [0, 4)"),
        ([["+", -1, 2]], "mutation #0: node -1 out of range [0, 4)"),
        (
            [["+", 0, 1], ["+", 5, 1]],
            "mutation #1: node 5 out of range [0, 4)",
        ),
        # The first bad mutation decides, as on one engine.
        (
            [["+", 0, 1], ["+", 3, 3], ["+", 9, 1]],
            "mutation #1 is a self-loop (3, 3)",
        ),
    ])
    def test_ingest_refuses_what_one_engine_refuses(self, mutations, message):
        with pytest.raises(QueryError) as info:
            plan_ingest(mutations, self.N, self.OWNER)
        assert (info.value.kind, str(info.value)) == ("bad_request", message)

    def test_batch_split_keeps_local_and_out_of_range_items_local(self):
        requests = [
            {"op": "neighbors", "node": 0},   # 0 -> shard 0
            {"op": "khop", "node": 2, "k": 1},  # BFS runs at the router
            {"op": "ping"},
            {"op": "degree", "node": 4},      # out of range
            {"op": "degree", "node": -1},     # out of range
            {"op": "pagerank", "node": 3},    # 5 -> shard 1
            {"op": "telemetry"},
            {"op": "degree", "node": 1},      # 7 -> shard 0
        ]
        by_shard, local = plan_batch(requests, self.N, self.OWNER)
        assert by_shard == {0: [0, 7], 1: [5]}
        assert local == [1, 2, 3, 4, 6]

    @pytest.mark.parametrize("size, expected", [
        (0, []),
        (1, [1]),
        (MAX_BATCH_REQUESTS, [MAX_BATCH_REQUESTS]),
        (MAX_BATCH_REQUESTS + 1, [MAX_BATCH_REQUESTS, 1]),
    ])
    def test_chunks_fit_the_wire_cap(self, size, expected):
        items = list(range(size))
        pieces = chunks(items)
        assert [len(piece) for piece in pieces] == expected
        assert [i for piece in pieces for i in piece] == items

    def test_khop_step(self):
        """Path 0-1-2-3 plus chord 1-3: from {0}, level 1 reaches 1;
        level 2 reaches 2 and 3 once each, in expansion order, and
        never re-reaches a node already at a smaller distance."""
        expansions = {0: (1,), 1: (0, 3, 2), 2: (1, 3), 3: (1, 2)}
        distances = {0: 0}
        assert khop_step([0], distances, expansions, 1) == {1: 1}
        distances[1] = 1
        reached = khop_step([1], distances, expansions, 2)
        assert reached == {3: 2, 2: 2}
        assert list(reached) == [3, 2]
        distances.update(reached)
        assert khop_step([3, 2], distances, expansions, 3) == {}


class TestBitIdentity:
    """Router answers must be indistinguishable from a single server's
    on a randomized corpus (the acceptance bar for the cluster)."""

    def test_neighbors_every_node(
        self, router_client, single_engine, graph
    ):
        for node in range(graph.n):
            want = single_engine.query(
                {"op": "neighbors", "node": node}, far_deadline()
            )["result"]
            assert router_client.neighbors(node) == want

    def test_degree_every_node(self, router_client, single_engine, graph):
        for node in range(graph.n):
            want = single_engine.query(
                {"op": "degree", "node": node}, far_deadline()
            )["result"]
            assert router_client.degree(node) == want

    def test_khop_randomized(self, router_client, single_engine, graph):
        rng = random.Random(99)
        for _ in range(30):
            node = rng.randrange(graph.n)
            k = rng.randrange(0, 5)
            want = single_engine.query(
                {"op": "khop", "node": node, "k": k}, far_deadline()
            )["result"]
            got = router_client.khop(node, k)
            assert got == {int(v): d for v, d in want.items()}

    def test_batch_randomized(self, router_client, single_engine, graph):
        rng = random.Random(5)
        requests = []
        for i in range(200):
            op = rng.choice(["neighbors", "degree", "khop", "ping"])
            request = {"id": f"r{i}", "op": op}
            if op != "ping":
                request["node"] = rng.randrange(graph.n)
            if op == "khop":
                request["k"] = rng.randrange(0, 4)
            requests.append(request)
        want = single_engine.query_many(requests, far_deadline())
        got = router_client.batch(requests)
        assert got == want

    def test_error_messages_identical(
        self, router_client, single_client, graph
    ):
        """Rejections must carry the exact single-server wording."""
        bad = [
            {"op": "neighbors"},                      # missing node
            {"op": "degree", "node": "x"},            # non-int node
            {"op": "neighbors", "node": graph.n},     # out of range
            {"op": "neighbors", "node": -1},          # negative
            {"op": "khop", "node": 0, "k": "x"},      # bad k
            {"op": "khop", "node": 0, "k": -2},       # negative k
        ]
        for request in bad:
            params = {k: v for k, v in request.items() if k != "op"}
            with pytest.raises(ServiceError) as want:
                single_client.request(request["op"], **params)
            with pytest.raises(ServiceError) as got:
                router_client.request(request["op"], **params)
            assert got.value.type == want.value.type
            assert got.value.message == want.value.message

    def test_ping_and_unknown_op(self, router_client, single_client):
        assert router_client.ping() == "pong"
        with pytest.raises(ServiceError) as want:
            single_client.request("frobnicate")
        with pytest.raises(ServiceError) as got:
            router_client.request("frobnicate")
        assert got.value.message == want.value.message

    def test_telemetry_reports_breaker_gauges(self, router_client, cluster):
        telemetry = router_client.telemetry()
        assert telemetry["instance"] == "router"
        registry = telemetry["registry"]
        for instance in cluster.spec.instances:
            state = series_value(
                registry, "router_breaker_state", instance=instance.label
            )
            assert BREAKER_STATES[int(state)] == "closed"

    def test_telemetry_makes_no_instance_calls(self, router_client, cluster):
        # The router reports only itself; the cluster-wide view is
        # the collector's, one telemetry call per target.
        def served():
            return {
                label: counter_total(
                    engine.metrics.registry.snapshot(),
                    "service_requests_total",
                )
                for label, engine in cluster.engines.items()
            }

        router_client.degree(0)
        before = served()
        assert len(before) == SHARDS
        router_client.telemetry()
        assert served() == before


class TestBatchFanOut:
    """Satellite: router-split batches must preserve the client's
    per-request ordering and ids however sub-batches come back."""

    def test_order_preserved_when_one_shard_is_slow(self, cluster, graph):
        """Delay one shard's sub-batch so it returns after the other;
        the reassembled list must still match input order exactly."""
        engine = cluster.router_engine
        slow = engine._shards[0]
        original = slow.request

        def delayed(op, **params):
            time.sleep(0.05)
            return original(op, **params)

        requests = [
            {"id": i, "op": "degree", "node": node}
            for i, node in enumerate(range(graph.n))
        ]
        slow.request = delayed
        try:
            responses = engine.query_many(requests, far_deadline())
        finally:
            slow.request = original
        assert [r["id"] for r in responses] == list(range(graph.n))
        assert all(r["ok"] for r in responses)

    def test_batch_at_protocol_cap(self, router_client, graph):
        """1024 requests — the protocol maximum — through the router."""
        rng = random.Random(1)
        requests = [
            {"id": i, "op": "degree", "node": rng.randrange(graph.n)}
            for i in range(1024)
        ]
        responses = router_client.batch(requests)
        assert len(responses) == 1024
        assert [r["id"] for r in responses] == list(range(1024))
        assert all(r["ok"] for r in responses)

    def test_oversized_batch_rejected_like_single_server(
        self, router_client
    ):
        requests = [
            {"id": i, "op": "ping"} for i in range(1025)
        ]
        with pytest.raises(ServiceError) as info:
            router_client.batch(requests)
        assert info.value.type == "bad_request"

    def test_sub_batch_chunking_beyond_cap(self, cluster, graph):
        """query_many() called directly (no wire cap) must chunk a
        shard's sub-batch at the protocol limit transparently."""
        engine = cluster.router_engine
        requests = [
            {"id": i, "op": "degree", "node": i % graph.n}
            for i in range(1500)
        ]
        responses = engine.query_many(requests, far_deadline())
        assert len(responses) == 1500
        assert [r["id"] for r in responses] == list(range(1500))
        assert all(r["ok"] for r in responses)

    def test_batch_landing_on_single_shard(self, router_client, graph):
        """A batch whose nodes all hash to one shard takes the
        single-fan-out path and must behave identically."""
        nodes = [
            u for u in range(graph.n)
            if shard_for_node(u, SHARDS, SEED) == 1
        ][:40]
        assert nodes, "corpus has no shard-1 nodes?"
        requests = [
            {"id": f"n{u}", "op": "neighbors", "node": u} for u in nodes
        ]
        responses = router_client.batch(requests)
        assert [r["id"] for r in responses] == [f"n{u}" for u in nodes]
        assert all(r["ok"] for r in responses)

    def test_mixed_validity_batch(self, router_client, single_client, graph):
        # "nope" is refused at the wire by both, the out-of-range node
        # by the engine and by the router.
        requests = [
            {"id": 0, "op": "degree", "node": 0},
            {"id": 1, "op": "degree", "node": graph.n + 5},
            {"id": 2, "op": "nope"},
            {"id": 3, "op": "degree", "node": 1},
        ]
        want = single_client.batch(requests)
        got = router_client.batch(requests)
        assert got == want


class TestRouterEngineDirect:
    def test_requires_planned_spec(self):
        spec = default_spec(2, 1)  # template: no n recorded
        with pytest.raises(TopologyError, match="plan"):
            RouterEngine(spec)

    def test_describe(self, cluster):
        text = cluster.router_engine.describe()
        assert "router" in text
        assert f"{SHARDS} shard(s)" in text

    def test_router_cache_serves_repeats(self, cluster, graph):
        engine = cluster.router_engine
        node = 3
        first = engine.query(
            {"op": "neighbors", "node": node}, far_deadline()
        )
        before = engine.cache_len
        again = engine.query(
            {"op": "neighbors", "node": node}, far_deadline()
        )
        assert first["result"] == again["result"]
        assert engine.cache_len == before


class TestConnectionCap:
    """The replica pool must never open more connections than the
    instance server has workers to serve — persistent pooled
    connections beyond that would starve in the accept queue and
    masquerade as replica death (a 10s timeout, then a false
    ejection)."""

    def test_pool_blocks_at_cap_instead_of_opening_more(
        self, shard_reps, graph
    ):
        import threading

        cluster = start_local_cluster(
            shard_reps, seed=SEED, n=graph.n, workers=2,
            retry_policy=FAST_RETRY,
        )
        try:
            engine = cluster.router_engine
            pool = engine._shards[0].replicas[0]
            assert pool._max == 1  # workers=2 -> cap workers-1

            errors: list[str] = []

            def hammer() -> None:
                try:
                    for _ in range(20):
                        pool.request("ping")
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))

            threads = [
                threading.Thread(target=hammer) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            # Contention made callers wait; it never minted extras.
            assert pool._open <= 1
        finally:
            cluster.close()

    def test_direct_client_not_starved_by_the_pool(
        self, shard_reps, graph
    ):
        """After router traffic saturates the pools, a fresh direct
        connection to an instance must still get served (one worker
        is reserved for exactly this)."""
        cluster = start_local_cluster(
            shard_reps, seed=SEED, n=graph.n, workers=2,
            retry_policy=FAST_RETRY,
        )
        try:
            with SummaryServiceClient(
                *cluster.router_address
            ) as router:
                router.batch([
                    {"id": i, "op": "degree", "node": i % graph.n}
                    for i in range(64)
                ])
            inst = cluster.spec.instances_for(0)[0]
            with SummaryServiceClient(
                *inst.address, timeout=5.0
            ) as direct:
                assert direct.ping() == "pong"
        finally:
            cluster.close()

    def test_closing_pool_releases_waiters(self, shard_reps, graph):
        import threading

        cluster = start_local_cluster(
            shard_reps, seed=SEED, n=graph.n, workers=2,
            retry_policy=FAST_RETRY,
        )
        closed = False
        try:
            engine = cluster.router_engine
            pool = engine._shards[0].replicas[0]
            held = pool._acquire()  # cap is 1: next acquire waits
            outcome: list[str] = []

            def waiter() -> None:
                try:
                    pool._acquire()
                    outcome.append("acquired")
                except ConnectionError:
                    outcome.append("closed")
                except TimeoutError:
                    outcome.append("timeout")

            thread = threading.Thread(target=waiter)
            thread.start()
            time.sleep(0.1)
            cluster.close()
            closed = True
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert outcome == ["closed"]
            held.close()
        finally:
            if not closed:
                cluster.close()


class TestFailover:
    """Replica failover: ejection, readmission, and shard-down."""

    def make_cluster(self, shard_reps, graph, **kwargs):
        kwargs.setdefault("retry_policy", FAST_RETRY)
        kwargs.setdefault("breaker_threshold", 2)
        kwargs.setdefault("breaker_reset_s", 0.3)
        return start_local_cluster(
            shard_reps, seed=SEED, n=graph.n, **kwargs
        )

    def test_replica_loss_is_invisible(self, shard_reps, graph):
        """Kill one replica of each shard under traffic: zero
        client-visible errors, failovers recorded."""
        with self.make_cluster(shard_reps, graph, replicas=2) as local:
            host, port = local.router_address
            with SummaryServiceClient(host, port, timeout=30.0) as client:
                for node in range(0, 40):
                    client.degree(node)
                local.kill_instance("shard0/r0")
                local.kill_instance("shard1/r0")
                for node in range(graph.n):
                    assert client.degree(node) >= 0
                registry = (
                    local.router_engine.metrics.registry.snapshot()
                )
                failovers = registry.get("router_failover_total", [])
                assert failovers and sum(
                    row["value"] for row in failovers
                ) >= 1

    def test_dead_replica_is_ejected(self, shard_reps, graph):
        """After breaker_threshold transport failures the breaker
        opens and the replica leaves the rotation."""
        with self.make_cluster(
            shard_reps, graph, replicas=2, breaker_reset_s=60.0
        ) as local:
            engine = local.router_engine
            local.kill_instance("shard0/r0")
            shard0 = engine._shards[0]
            dead = next(
                p for p in shard0.replicas
                if p.instance.label == "shard0/r0"
            )
            # Drive traffic at shard 0 until the breaker trips.
            owned = [
                u for u in range(graph.n)
                if local.spec.owner(u) == 0
            ]
            for u in owned[:10]:
                shard0.request("degree", node=u)
            assert dead.breaker.state == "open"
            registry = engine.metrics.registry.snapshot()
            ejections = [
                row
                for row in registry.get("router_ejections_total", [])
                if row["labels"].get("instance") == "shard0/r0"
            ]
            assert ejections and ejections[0]["value"] >= 1
            # Ejected replicas are skipped: requests keep succeeding.
            for u in owned[10:20]:
                shard0.request("degree", node=u)

    def test_restarted_replica_is_readmitted(self, shard_reps, graph):
        """Half-open probe after breaker_reset_s readmits a replica
        that came back on the same address."""
        with self.make_cluster(
            shard_reps, graph, replicas=2, breaker_reset_s=0.2
        ) as local:
            engine = local.router_engine
            label = "shard0/r0"
            dead_spec = next(
                i for i in local.spec.instances if i.label == label
            )
            local.kill_instance(label)
            shard0 = engine._shards[0]
            owned = [
                u for u in range(graph.n)
                if local.spec.owner(u) == 0
            ]
            for u in owned[:10]:
                shard0.request("degree", node=u)
            pool = next(
                p for p in shard0.replicas
                if p.instance.label == label
            )
            assert pool.breaker.state == "open"

            # Resurrect the instance on its original port.
            revived = SummaryQueryServer(
                QueryEngine(shard_reps[0], cache_size=256),
                host=dead_spec.host,
                port=dead_spec.port,
                workers=2,
            ).start()
            local.servers[label] = revived
            time.sleep(0.25)  # let the reset window elapse
            for u in owned:
                shard0.request("degree", node=u)
            assert pool.breaker.state == "closed"

    def test_whole_shard_down_is_unavailable(self, shard_reps, graph):
        """Single-replica shard dies: owned nodes answer a structured
        'unavailable' error; the other shard keeps serving."""
        with self.make_cluster(shard_reps, graph, replicas=1) as local:
            host, port = local.router_address
            local.kill_instance("shard0/r0")
            down = next(
                u for u in range(graph.n) if local.spec.owner(u) == 0
            )
            alive = next(
                u for u in range(graph.n) if local.spec.owner(u) == 1
            )
            with SummaryServiceClient(host, port, timeout=30.0) as client:
                with pytest.raises(ServiceError) as info:
                    client.neighbors(down)
                assert info.value.type == "unavailable"
                assert "shard 0" in info.value.message
                assert client.degree(alive) >= 0
            registry = local.router_engine.metrics.registry.snapshot()
            assert registry.get("router_shard_down_total")

    def test_khop_degrades_when_shard_down(self, shard_reps, graph):
        """A BFS that crosses a dead shard returns a partial answer
        flagged degraded instead of failing outright."""
        with self.make_cluster(shard_reps, graph, replicas=1) as local:
            host, port = local.router_address
            local.kill_instance("shard0/r0")
            start = next(
                u for u in range(graph.n)
                if local.spec.owner(u) == 1 and graph.degree(u) > 0
            )
            with SummaryServiceClient(host, port, timeout=30.0) as client:
                response = client.request_raw(
                    {"id": 1, "op": "khop", "node": start, "k": 3}
                )
            assert response["ok"]
            assert response.get("degraded") is True
            assert response["result"][str(start)] == 0

    def test_shard_down_error_shape(self):
        exc = ShardDownError(3, 2)
        assert exc.kind == "unavailable"
        assert "shard 3" in str(exc)


class TestPerShardIngestLocks:
    """Router ingest ordering is per shard, not global: batches over
    disjoint shard sets overlap in time, batches sharing a shard
    serialize.  Fake shard pools stand in for the network."""

    class _FakePool:
        def __init__(self, shard, on_request=None):
            self.shard = shard
            self.on_request = on_request
            self.active = 0
            self.max_active = 0
            self._lock = threading.Lock()

        def request(self, op, **params):
            assert op == "ingest"
            with self._lock:
                self.active += 1
                self.max_active = max(self.max_active, self.active)
            try:
                if self.on_request is not None:
                    self.on_request(params)
                return {"applied": len(params["mutations"])}
            finally:
                with self._lock:
                    self.active -= 1

        def close(self):
            pass

    @staticmethod
    def _engine_with_fakes(pools):
        spec = default_spec(2, 1, n=64)
        engine = RouterEngine(spec)
        engine._shards = list(pools)
        return engine

    @staticmethod
    def _node_on(spec, shard, exclude=()):
        for node in range(spec.n):
            if spec.owner(node) == shard and node not in exclude:
                return node
        raise AssertionError(f"no node on shard {shard}")

    def _ingest_in_thread(self, engine, stream, mutations):
        errors = []

        def run():
            try:
                engine.query({
                    "op": "ingest", "stream": stream, "seq": 0,
                    "mutations": mutations,
                })
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        return thread, errors

    def test_disjoint_shard_batches_overlap(self):
        entered = [threading.Event(), threading.Event()]

        def rendezvous(me, other):
            def hook(params):
                entered[me].set()
                # Block until the *other* batch is mid-ingest too; a
                # global ingest lock would deadlock here and time out.
                assert entered[other].wait(timeout=5.0), (
                    "batches on disjoint shards did not overlap - "
                    "ingest ordering regressed to a global lock"
                )
            return hook

        pools = [
            self._FakePool(0, on_request=rendezvous(0, 1)),
            self._FakePool(1, on_request=rendezvous(1, 0)),
        ]
        engine = self._engine_with_fakes(pools)
        spec = engine.spec
        a0 = self._node_on(spec, 0)
        a1 = self._node_on(spec, 0, exclude={a0})
        b0 = self._node_on(spec, 1)
        b1 = self._node_on(spec, 1, exclude={b0})
        t0, e0 = self._ingest_in_thread(engine, "a", [["+", a0, a1]])
        t1, e1 = self._ingest_in_thread(engine, "b", [["+", b0, b1]])
        t0.join(timeout=10.0)
        t1.join(timeout=10.0)
        assert not t0.is_alive() and not t1.is_alive()
        assert e0 == [] and e1 == []

    def test_shared_shard_batches_serialize(self):
        pool = self._FakePool(0, on_request=lambda p: time.sleep(0.05))
        pools = [pool, self._FakePool(1)]
        engine = self._engine_with_fakes(pools)
        spec = engine.spec
        nodes = []
        while len(nodes) < 4:
            nodes.append(self._node_on(spec, 0, exclude=set(nodes)))
        threads = []
        for i, (u, v) in enumerate([nodes[:2], nodes[2:]]):
            threads.append(
                self._ingest_in_thread(engine, f"s{i}", [["+", u, v]])
            )
        for thread, errors in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert errors == []
        assert pool.max_active == 1, (
            "two batches touching the same shard ran concurrently"
        )
