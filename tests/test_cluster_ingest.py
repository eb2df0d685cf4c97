"""Router-level ingest: endpoint-owner fan-out over a mutable cluster,
and the crash and failover paths of its replicas."""

from __future__ import annotations

import dataclasses
import json
import random
import time
from pathlib import Path

import pytest

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.cluster.manager import start_local_cluster
from repro.cluster.sharder import shard_graph
from repro.core.serialization import load_representation
from repro.core.verify import deep_audit
from repro.durability import (
    WriteAheadLog,
    recover_engine,
    replay_tail,
    replication,
)
from repro.graph import generators
from repro.graph.graph import Graph
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.retry import RetryPolicy
from repro.service import ServiceError, SummaryServiceClient
from repro.service.engine import QueryError
from repro.service.ingest import MutableQueryEngine
from repro.service.node import Node


def _wait_for_edge(engine, u, v, timeout=5.0) -> bool:
    """Poll an engine until the background shipper has replicated
    edge ``(u, v)`` to it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if v in engine.neighbors(u):
            return True
        time.sleep(0.05)
    return False


def _wait(predicate, timeout=10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _wal_bytes(wal_dir) -> bytes:
    return b"".join(
        path.read_bytes() for path in sorted(Path(wal_dir).glob("wal-*.log"))
    )


def _state_bytes(engine) -> bytes:
    with engine._state_lock:
        state = engine.state.to_state()
    return json.dumps(state, sort_keys=True).encode()


def _recovered(config) -> MutableQueryEngine:
    """A stopped node's WAL directory recovered offline, from the
    artifact it served."""
    wal_dir = Path(config.wal_dir)
    wal = WriteAheadLog(wal_dir, fsync="never")
    try:
        engine, pending, report = recover_engine(
            load_representation(config.input), wal,
            CheckpointStore(wal_dir / "checkpoints"),
            engine_factory=lambda d: MutableQueryEngine(d, wal=wal),
        )
        replay_tail(engine, pending, report)
    finally:
        wal.close()
    return engine


def _script_on_shard(cluster, graph, shard, length, seed=0):
    """``length`` one-mutation batches that each touch ``shard`` and
    each apply after the ones before; returns them and the edge set
    they leave."""
    rng = random.Random(seed)
    owned = [u for u in range(graph.n) if cluster.spec.owner(u) == shard]
    edges = {tuple(sorted(edge)) for edge in graph.edges()}
    script = []
    while len(script) < length:
        u, v = rng.choice(owned), rng.randrange(graph.n)
        if u == v:
            continue
        pair = (min(u, v), max(u, v))
        script.append(["-" if pair in edges else "+", u, v])
        edges ^= {pair}
    return script, edges


@pytest.fixture(scope="module")
def graph():
    return generators.planted_partition(120, 6, 0.6, 0.05, seed=3)


@pytest.fixture(scope="module")
def shard_reps(graph):
    summarizer = MagsDMSummarizer(iterations=8, seed=1)
    return [
        summarizer.summarize(subgraph).representation
        for subgraph in shard_graph(graph, 2, seed=0)
    ]


@pytest.fixture
def cluster(graph, shard_reps):
    with start_local_cluster(
        shard_reps, replicas=1, seed=0, n=graph.n, mutable=True
    ) as local:
        yield local


def _free_cross_shard_edge(cluster, graph):
    """A non-edge whose endpoints live on different shards."""
    spec = cluster.spec
    edges = set(graph.edges())
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            if (u, v) in edges:
                continue
            if spec.owner(u) != spec.owner(v):
                return u, v
    raise AssertionError("no cross-shard free pair")


def _existing_edge_on_shard(cluster, graph, shard):
    """An edge of the base graph wholly owned by ``shard``."""
    spec = cluster.spec
    for u, v in graph.edges():
        if spec.owner(u) == shard and spec.owner(v) == shard:
            return u, v
    raise AssertionError(f"no intra-shard edge on shard {shard}")


def _free_pair_on_shard(cluster, graph, shard):
    """A non-edge whose endpoints are both owned by ``shard``."""
    spec = cluster.spec
    edges = set(graph.edges())
    nodes = [n for n in range(graph.n) if spec.owner(n) == shard]
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            pair = (u, v) if u < v else (v, u)
            if pair not in edges:
                return pair
    raise AssertionError(f"no intra-shard free pair on shard {shard}")


class TestRouterIngest:
    def test_cross_shard_insert_lands_on_both_owners(
        self, cluster, graph
    ):
        u, v = _free_cross_shard_edge(cluster, graph)
        host, port = cluster.router_address
        with SummaryServiceClient(host, port) as client:
            result = client.ingest([["+", u, v]])
            assert result["applied"] == 1
            # Both endpoint shards applied their sub-batch.
            assert set(result["shards"]) == {
                str(cluster.spec.owner(u)), str(cluster.spec.owner(v))
            }
            # Both directions answer through the router (each endpoint
            # is served by a different shard) - the 1-hop-closure
            # invariant held.
            assert v in client.neighbors(u)
            assert u in client.neighbors(v)
            client.ingest([["-", u, v]])
            assert v not in client.neighbors(u)
            assert u not in client.neighbors(v)

    def test_router_cache_invalidated_per_dirty_node(
        self, cluster, graph
    ):
        u, v = _free_cross_shard_edge(cluster, graph)
        host, port = cluster.router_address
        with SummaryServiceClient(host, port) as client:
            before = set(client.neighbors(u))  # warms the router cache
            client.ingest([["+", u, v]])
            assert set(client.neighbors(u)) == before | {v}

    def test_duplicate_batch_converges_per_shard(self, cluster, graph):
        u, v = _free_cross_shard_edge(cluster, graph)
        host, port = cluster.router_address
        with SummaryServiceClient(host, port) as client:
            client.ingest([["+", u, v]], stream="dup", seq=0)
            retry = client.ingest([["+", u, v]], stream="dup", seq=0)
            assert all(
                shard.get("duplicate") is True
                for shard in retry["shards"].values()
            )

    def test_batch_invalid_on_one_shard_applies_nowhere(
        self, cluster, graph
    ):
        """Cross-shard atomicity: the prepare round rejects a batch
        that any shard finds inapplicable *before* anything commits,
        so the shard whose sub-batch was valid must not have applied
        it either."""
        # An already-present edge wholly on shard 0 poisons that
        # shard's sub-batch; a free pair wholly on shard 1 would have
        # applied cleanly there.
        a, b = _existing_edge_on_shard(cluster, graph, 0)
        w, x = _free_pair_on_shard(cluster, graph, 1)
        host, port = cluster.router_address
        with SummaryServiceClient(host, port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.ingest([["+", w, x], ["+", a, b]])
            assert excinfo.value.message == (
                f"mutation #1: edge ({a}, {b}) already exists"
            )
            # Both shards refuse, shard 0 a later mutation than shard
            # 1: the router names the first bad one, as one engine.
            c, d = _free_pair_on_shard(cluster, graph, 0)
            with pytest.raises(ServiceError) as excinfo:
                client.ingest([["+", c, d], ["-", w, x], ["+", a, b]])
            assert excinfo.value.message == (
                f"mutation #1: edge ({w}, {x}) does not exist"
            )
            assert x not in client.neighbors(w)
            assert d not in client.neighbors(c)
            # Shard 1 never applied (w, x) during the rejected batch:
            # inserting it now at a fresh seq succeeds rather than
            # failing with "already exists".
            assert client.ingest([["+", w, x]])["applied"] == 1
            assert x in client.neighbors(w)
            client.ingest([["-", w, x]])

    def test_client_dry_run_validates_without_committing(
        self, cluster, graph
    ):
        """A client-sent ``dry_run`` through the router stops after
        the prepare round: every shard validates, nothing commits."""
        u, v = _free_cross_shard_edge(cluster, graph)
        host, port = cluster.router_address
        with SummaryServiceClient(host, port) as client:
            result = client.request(
                "ingest", stream="dr", seq=0,
                mutations=[["+", u, v]], dry_run=True,
            )
            assert result == {"validated": 1}
            assert v not in client.neighbors(u)
            # An inapplicable dry run is rejected the same way a real
            # ingest would be.
            a, b = _existing_edge_on_shard(cluster, graph, 0)
            with pytest.raises(ServiceError, match="already exists"):
                client.request(
                    "ingest", stream="dr", seq=0,
                    mutations=[["+", a, b]], dry_run=True,
                )

    def test_kill_instance_leaves_the_wal_dir_as_acknowledged(
        self, cluster, graph
    ):
        """A killed node writes nothing a SIGKILL would not: no final
        checkpoint, no WAL byte changed, and a restart from its
        directory recovers every acknowledged batch."""
        label = "shard0/r0"
        node = cluster.nodes[label]
        # The compactor is on, but its first fold is far away.
        assert node.config.compact_interval >= 30
        wal_dir = Path(node.config.wal_dir)
        store = CheckpointStore(wal_dir / "checkpoints")
        u, v = _free_pair_on_shard(cluster, graph, 0)
        batches = 5
        host, port = cluster.router_address
        with SummaryServiceClient(host, port) as client:
            for seq in range(batches):
                sign = "+" if seq % 2 == 0 else "-"
                result = client.ingest([[sign, u, v]], stream="k", seq=seq)
                assert result["applied"] == 1
        steps, logged = store.steps(), _wal_bytes(wal_dir)
        cluster.kill_instance(label)
        assert store.steps() == steps == []
        assert _wal_bytes(wal_dir) == logged
        revived = Node(dataclasses.replace(node.config, port=0)).start()
        try:
            _wait(lambda: not revived.engine.replaying)
            assert revived.engine.epoch == batches
            assert revived.engine.state.dedup["k"][0] == batches - 1
            assert v in revived.engine.neighbors(u)
        finally:
            revived.kill()

    def test_malformed_ingest_rejected_before_fanout(self, cluster):
        host, port = cluster.router_address
        with SummaryServiceClient(host, port) as client:
            with pytest.raises(ServiceError, match="out of range"):
                client.ingest([["+", 0, 10**9]])
            with pytest.raises(ServiceError) as excinfo:
                client.request("ingest", stream="s", seq=0,
                               mutations=[["+", 0, 0]])
            assert excinfo.value.type == "bad_request"


class TestReplicatedIngest:
    """Primary-routed writes over a replicas=2 mutable cluster."""

    @pytest.fixture
    def replicated(self, graph, shard_reps):
        with start_local_cluster(
            shard_reps,
            replicas=2,
            seed=0,
            n=graph.n,
            mutable=True,
            acks="leader",
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.02, max_delay=0.1
            ),
        ) as local:
            yield local

    def test_replicated_ingest_reaches_followers(
        self, replicated, graph
    ):
        u, v = _free_cross_shard_edge(replicated, graph)
        host, port = replicated.router_address
        with SummaryServiceClient(host, port) as client:
            assert client.ingest([["+", u, v]])["applied"] == 1
            # Both endpoint shards' *followers* converge to the write
            # (the primary ships it; leader acks mean we may need to
            # wait out the background shipper).
            for shard in {
                replicated.spec.owner(u), replicated.spec.owner(v)
            }:
                follower = replicated.engines[f"shard{shard}/r1"]
                assert _wait_for_edge(follower, u, v), (
                    f"shard {shard} follower never saw ({u}, {v})"
                )
            client.ingest([["-", u, v]])

    def test_read_only_replicated_cluster_still_rejects_ingest(
        self, graph, shard_reps
    ):
        with start_local_cluster(
            shard_reps, replicas=2, seed=0, n=graph.n
        ) as local:
            host, port = local.router_address
            with SummaryServiceClient(host, port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.ingest([["+", 0, 1]])
                assert excinfo.value.type == "bad_request"

    def test_killed_primary_stops_its_background_threads(
        self, replicated
    ):
        """A killed replica stops shipping and compacting: a dead
        primary must not keep sending frames to its followers."""
        label = "shard0/r0"
        engine = replicated.engines[label]
        deadline = time.monotonic() + 5.0
        while engine._replicator is None and time.monotonic() < deadline:
            time.sleep(0.01)
        threads = [
            engine._replicator._thread,
            replicated.nodes[label]._compactor._thread,
        ]
        assert [t.name for t in threads] == [
            "repro-replication", "wal-compactor"
        ]
        assert all(t.is_alive() for t in threads)
        replicated.kill_instance(label)
        assert not any(t.is_alive() for t in threads)

    def test_ingest_with_all_replicas_down_is_unavailable(
        self, replicated, graph
    ):
        u, v = _free_pair_on_shard(replicated, graph, 0)
        replicated.kill_instance("shard0/r0")
        replicated.kill_instance("shard0/r1")
        host, port = replicated.router_address
        with SummaryServiceClient(host, port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.ingest([["+", u, v]])
            assert excinfo.value.type == "unavailable"

    def test_retry_across_promotion_dedups(self, replicated, graph):
        """A batch acked just before the primary dies is answered
        ``duplicate: true`` by the promoted follower when the client
        replays the same ``(stream, seq)``."""
        u, v = _free_pair_on_shard(replicated, graph, 0)
        shard = replicated.spec.owner(u)
        host, port = replicated.router_address
        with SummaryServiceClient(host, port) as client:
            first = client.ingest(
                [["+", u, v]], stream="failover", seq=7
            )
            assert first["applied"] == 1
            # The primary replicated the batch before dying: wait for
            # the follower to hold it, then kill the primary.
            follower = replicated.engines[f"shard{shard}/r1"]
            assert _wait_for_edge(follower, u, v)
            replicated.kill_instance(f"shard{shard}/r0")
            retry = client.ingest(
                [["+", u, v]], stream="failover", seq=7
            )
            assert retry["shards"][str(shard)].get("duplicate") is True
            # The router re-elected without operator action.
            pool = replicated.router_engine._shards[shard]
            assert pool.replicas[pool.primary].instance.replica == 1
            assert follower.role == "primary"
            assert pool.term == follower.term >= 2

    def test_fenced_primary_batch_lands_once_on_new_primary(
        self, graph, shard_reps
    ):
        """Shard 0's follower is promoted behind the router's back.
        The routed batch reaches the stale primary, whose quorum ship
        is fenced: it answers ``not_primary``, the router re-elects,
        and the batch commits exactly once, on the new primary."""
        with start_local_cluster(
            shard_reps, replicas=2, seed=0, n=graph.n, mutable=True,
            acks="quorum",
        ) as local:
            u, v = _free_pair_on_shard(local, graph, 0)
            stale = local.engines["shard0/r0"]
            fresh = local.engines["shard0/r1"]
            stale_address = local.spec.instances_for(0)[0].address
            fresh.apply_replicated(
                2, promote=True, followers=[list(stale_address)],
                acks="quorum",
            )
            response = local.router_engine.query({
                "op": "ingest", "stream": "s", "seq": 0,
                "mutations": [["+", u, v]],
            })
            assert response["result"]["shards"]["0"]["applied"] == 1
            pool = local.router_engine._shards[0]
            assert (pool.primary, pool.term) == (1, 2)
            assert (stale.role, fresh.role) == ("follower", "primary")
            assert fresh.metrics.registry.counter(
                "repro_ingest_applied_total"
            ).value == 1
            assert fresh.state.dedup["s"][0] == 0
            # The new primary's quorum ship replaced the stale
            # primary's state, its unacknowledged apply included.
            assert stale.state.to_state() == fresh.state.to_state()
            assert v in stale.neighbors(u)

    def test_quorum_timeout_is_relayed_after_one_wait(
        self, graph, shard_reps, monkeypatch
    ):
        """With one of two replicas dead a ``quorum`` write cannot
        commit.  The router's backend timeout outlasts the survivor's
        quorum wait, so its structured ``unavailable`` is relayed
        after one wait — not mistaken for a dead primary, charged to
        its breaker, and resent into a second wait."""
        wait = 1.0
        monkeypatch.setattr(replication, "QUORUM_TIMEOUT_S", wait)
        with start_local_cluster(
            shard_reps, replicas=2, seed=0, n=graph.n, mutable=True,
            acks="quorum",
        ) as local:
            u, v = _free_pair_on_shard(local, graph, 0)
            local.kill_instance("shard0/r0")
            started = time.monotonic()
            with pytest.raises(QueryError) as excinfo:
                local.router_engine.query({
                    "op": "ingest", "stream": "s", "seq": 0,
                    "mutations": [["+", u, v]],
                })
            elapsed = time.monotonic() - started
            assert excinfo.value.kind == "unavailable"
            assert elapsed < 1.5 * wait
            survivor = local.engines["shard0/r1"]
            # Past the dead primary's term 1, even when the survivor
            # never received that opening term record.
            assert (survivor.role, survivor.term) == ("primary", 2)
            assert survivor.metrics.registry.counter(
                "repro_replication_ship_total", event="quorum_timeouts"
            ).value == 1
            pool = local.router_engine._shards[0]
            assert pool.replicas[1].breaker.state == "closed"
            assert local.router_engine.metrics.registry.counter(
                "router_failover_total", shard="0"
            ).value == 1

    @pytest.mark.parametrize("acks", ["leader", "quorum"])
    def test_primary_kill_failover_and_rejoin(
        self, graph, shard_reps, monkeypatch, acks
    ):
        """Shard 0 loses its primary after ``k`` acked batches.  The
        router promotes r1 on its own; under ``leader`` acks r1
        acknowledges the next batch, under ``quorum`` (one of two
        replicas) it cannot.  r0 comes back from its WAL directory as
        a follower, and the client resends that batch with the same
        ``(stream, seq)`` and finishes its script.  The batch lands
        once, r0 follows r1 at r1's term, both replicas hold the same
        bytes live and after offline recovery, and every answer is
        the oracle's."""
        monkeypatch.setattr(replication, "QUORUM_TIMEOUT_S", 1.0)
        with start_local_cluster(
            shard_reps, replicas=2, seed=0, n=graph.n, mutable=True,
            acks=acks,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.02, max_delay=0.1
            ),
        ) as local:
            router = local.router_engine
            script, oracle = _script_on_shard(local, graph, 0, 10)
            k = 4

            def ingest(seq: int) -> dict:
                return router.query({
                    "op": "ingest", "stream": "failover", "seq": seq,
                    "mutations": [script[seq]],
                })["result"]

            for seq in range(k):
                assert ingest(seq)["applied"] == 1
            r0, r1 = local.nodes["shard0/r0"], local.nodes["shard0/r1"]
            # Leader acks ship in the background: kill only once r1
            # holds every acknowledged batch.
            _wait(lambda: r1.engine.applied_lsn == r0.engine.applied_lsn)
            local.kill_instance("shard0/r0")
            if acks == "leader":
                assert ingest(k)["shards"]["0"]["applied"] == 1
            else:
                with pytest.raises(QueryError) as excinfo:
                    ingest(k)
                assert excinfo.value.kind == "unavailable"

            pool = router._shards[0]
            assert pool.primary == 1 and pool.term >= 2
            assert router.metrics.registry.counter(
                "repro_replication_promotions_total", shard="0"
            ).value >= 1

            # The supervisor restarts r0 from its WAL directory on its
            # old port, as a follower; r1's shipper finds it there.
            revived = Node(dataclasses.replace(
                r0.config,
                port=local.spec.instances_for(0)[0].port,
                repl_role="follower",
                repl_follower=(),
            )).start()
            local.nodes["shard0/r0"] = revived  # close() stops it

            def caught_up() -> bool:
                return (
                    revived.engine.term == r1.engine.term
                    and revived.engine.applied_lsn == r1.engine.applied_lsn
                )

            _wait(caught_up)
            assert ingest(k)["shards"]["0"]["duplicate"] is True
            for seq in range(k + 1, len(script)):
                assert ingest(seq)["applied"] == 1
            _wait(caught_up)
            assert (revived.engine.role, r1.engine.role) == (
                "follower", "primary"
            )
            assert revived.engine.term == r1.engine.term >= 2
            live = _state_bytes(r1.engine)
            assert _state_bytes(revived.engine) == live
            for node in range(graph.n):
                got = router.query({"op": "neighbors", "node": node})
                want = sorted(
                    b if a == node else a
                    for a, b in oracle if node in (a, b)
                )
                assert got["result"] == want, node

            revived.kill()
            r1.kill()
            recovered = [_recovered(n.config) for n in (revived, r1)]
            assert [_state_bytes(e) for e in recovered] == [live, live]
            owned = [
                edge for edge in sorted(oracle)
                if 0 in {local.spec.owner(edge[0]), local.spec.owner(edge[1])}
            ]
            assert deep_audit(
                recovered[0].representation, Graph(graph.n, owned),
                optimal=False,
            ) == []
