"""Property: a router over a sharded cluster answers like one server.

Whole clusters run in process: every shard replica is an engine
behind ``tests/inprocess.py``'s transport, so each router-to-shard
call goes through the real codec and ``validate_request`` with no
sockets.  Hypothesis draws the layout (1-4 shards, 1-2 replicas, the
``ClusterSpec`` seed) and the traffic, seeded so a failure replays.

* Reads: every ``neighbors``/``degree``/``khop``/``ping`` request and
  ``batch`` — out-of-range nodes included — gets the router's encoded
  response byte-equal to one :class:`QueryEngine`'s over the unsharded
  summary, and so does a batch longer than ``MAX_BATCH_REQUESTS``
  handed to ``query_many``.
* Ingest: after the same mutation batches, accepted or refused alike,
  every node's ``neighbors`` through the router equals one
  :class:`MutableQueryEngine`'s.

``pagerank`` is left out: the router answers it shard-locally.
"""

from __future__ import annotations

import functools
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.cluster.router import RouterEngine
from repro.cluster.sharder import shard_graph
from repro.cluster.topology import default_spec
from repro.dynamic.summary import DynamicGraphSummary
from repro.graph.generators import planted_partition
from repro.service.engine import QueryEngine
from repro.service.ingest import MutableQueryEngine
from repro.service.protocol import MAX_BATCH_REQUESTS, encode_message
from repro.service.server import SummaryQueryServer
from tests.inprocess import InProcessNetwork

GRAPH = planted_partition(40, 4, 0.5, 0.08, seed=3)
N = GRAPH.n

_SETTINGS = dict(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _summarize(graph):
    return MagsDMSummarizer(iterations=5, seed=1).summarize(
        graph
    ).representation


FULL_REP = _summarize(GRAPH)


@functools.lru_cache(maxsize=None)
def _shard_reps(shards: int, seed: int) -> tuple:
    return tuple(
        _summarize(sub) for sub in shard_graph(GRAPH, shards, seed=seed)
    )


layouts = st.tuples(
    st.integers(1, 4), st.integers(1, 2), st.integers(0, 2**16)
)

#: Nodes just outside ``[0, N)`` too: both sides must refuse them
#: with the same bytes.
nodes = st.integers(-2, N + 1)

reads = st.one_of(
    st.builds(
        lambda op, node: {"op": op, "node": node},
        st.sampled_from(["neighbors", "degree"]),
        nodes,
    ),
    st.builds(
        lambda node, k: {"op": "khop", "node": node, "k": k},
        nodes,
        st.integers(0, 3),
    ),
    st.just({"op": "ping"}),
)


def _cluster(layout, make_engine):
    """A router over ``make_engine(rep)`` replicas of each shard of
    ``GRAPH`` under ``layout``, wired in process; returns the router
    and every replica engine by ``(shard, replica)``."""
    shards, replicas, seed = layout
    spec = default_spec(shards, replicas, seed=seed, n=N)
    network = InProcessNetwork()
    engines = {}
    for instance in spec.instances:
        engine = make_engine(_shard_reps(shards, seed)[instance.shard])
        network.add(instance.address, engine)
        engines[instance.shard, instance.replica] = engine
    return RouterEngine(spec, connect=network), engines, network


def _wire(server: SummaryQueryServer, request: dict) -> dict:
    """The response ``server`` gives ``request``'s encoded line."""
    line = encode_message(request).rstrip(b"\n")
    response, _ = server._handle_line(line)
    return response


def _far_deadline() -> float:
    return time.monotonic() + 60.0


@given(
    layout=layouts,
    singles=st.lists(reads, max_size=12),
    batches=st.lists(st.lists(reads, max_size=10), max_size=3),
)
@settings(**_SETTINGS)
def test_reads_answer_like_one_server(layout, singles, batches):
    router, _, _ = _cluster(layout, lambda rep: QueryEngine(rep))
    reference = QueryEngine(FULL_REP)
    routed, single = SummaryQueryServer(router), SummaryQueryServer(reference)
    try:
        frames = [{"id": i, **request} for i, request in enumerate(singles)]
        frames += [
            {"id": f"b{i}", "op": "batch", "requests": [
                {"id": j, **item} for j, item in enumerate(items)
            ]}
            for i, items in enumerate(batches)
        ]
        for frame in frames:
            assert encode_message(_wire(routed, frame)) == encode_message(
                _wire(single, frame)
            ), frame
        # One shard's share of this batch exceeds the wire cap, so the
        # router must split it into sub-batches and reassemble.
        owner = router.spec.owner
        hot = [u for u in range(N) if owner(u) == owner(0)]
        big = [{"id": i, **r} for i, r in enumerate(singles)] + [
            {"id": len(singles) + i, "op": "degree", "node": hot[i % len(hot)]}
            for i in range(MAX_BATCH_REQUESTS + 1)
        ]
        assert encode_message(
            {"r": router.query_many(big, _far_deadline())}
        ) == encode_message(
            {"r": reference.query_many(big, _far_deadline())}
        )
    finally:
        router.close()


mutations = st.tuples(nodes, nodes, st.integers(0, 9))


def _mutable(rep) -> MutableQueryEngine:
    return MutableQueryEngine(DynamicGraphSummary.from_representation(rep))


@given(
    layout=layouts,
    batches=st.lists(st.lists(mutations, min_size=1, max_size=6),
                     min_size=1, max_size=6),
)
@settings(**_SETTINGS)
def test_ingest_answers_like_one_server(layout, batches):
    """Signs toggle a model edge set, so most batches apply; a draw of
    0 in the third field flips one sign, and endpoints may repeat or
    leave ``[0, N)``, so some batches are refused — by both sides."""
    router, engines, network = _cluster(layout, _mutable)
    shards, replicas, _ = layout
    if replicas == 2:
        for shard in range(shards):
            follower = router.spec.instances_for(shard)[1]
            engines[shard, 1].configure_replication(
                role="follower", connect=network
            )
            engines[shard, 0].configure_replication(
                role="primary", followers=[follower.address],
                acks=router.spec.acks, connect=network,
            )
    reference = _mutable(FULL_REP)
    routed, single = SummaryQueryServer(router), SummaryQueryServer(reference)
    edges = {tuple(sorted(edge)) for edge in GRAPH.edges()}
    try:
        for seq, batch in enumerate(batches):
            staged = set(edges)
            request = {"id": seq, "op": "ingest", "stream": "prop",
                       "seq": seq, "mutations": []}
            for u, v, flip in batch:
                pair = (min(u, v), max(u, v))
                insert = pair not in staged
                staged.symmetric_difference_update({pair})
                if flip == 0:
                    insert = not insert
                request["mutations"].append(["+" if insert else "-", u, v])
            expected = _wire(single, request)
            got = _wire(routed, request)
            assert got["ok"] == expected["ok"], (request, got, expected)
            if expected["ok"]:
                edges = staged
            else:
                # The whole error; only the body differs, by the
                # ``epoch`` a mutable server stamps.
                assert got["error"] == expected["error"], request
        for node in range(N):
            frame = {"id": node, "op": "neighbors", "node": node}
            assert _wire(routed, frame)["result"] == _wire(
                single, frame
            )["result"], node
    finally:
        router.close()
        for engine in engines.values():
            engine.stop_replication()
