"""Property-based tests (hypothesis) on the core invariants.

The central contracts exercised over arbitrary random graphs and merge
sequences:

* optimal-encoding costs obey Equation 2 bounds;
* the partition's weight tables conserve edge mass under any merges;
* every algorithm's output is lossless and never larger than trivial;
* the summary-side queries agree with the original graph exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    GreedySummarizer,
    MagsDMSummarizer,
    MagsSummarizer,
    SWeGSummarizer,
)
from repro.core.costs import pair_cost, potential_self_edges
from repro.core.encoding import Representation, encode
from repro.core.minhash import MinHashSignatures, exact_jaccard
from repro.core.supernodes import SuperNodePartition
from repro.core.verify import verify_lossless
from repro.graph.graph import Graph
from repro.graph.io import clean_edges
from repro.queries.neighbors import SummaryNeighborIndex
from repro.queries.analytics import degree_vector
from repro.queries.pagerank import (
    SummaryPageRank,
    pagerank_input_graph,
    pagerank_reference,
    pagerank_summary,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def graphs(draw, max_nodes: int = 24, max_extra_edges: int = 60) -> Graph:
    """Arbitrary simple undirected graphs (possibly disconnected)."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not possible:
        return Graph(n, [])
    count = draw(st.integers(0, min(len(possible), max_extra_edges)))
    indices = draw(
        st.lists(
            st.integers(0, len(possible) - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    return Graph(n, [possible[i] for i in indices])


@st.composite
def graphs_with_merges(draw):
    """A graph plus a random valid merge sequence."""
    graph = draw(graphs())
    merge_count = draw(st.integers(0, max(0, graph.n - 1)))
    pair_seeds = draw(
        st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
            min_size=merge_count,
            max_size=merge_count,
        )
    )
    return graph, pair_seeds


def _apply_merges(graph: Graph, pair_seeds) -> SuperNodePartition:
    partition = SuperNodePartition(graph)
    for a, b in pair_seeds:
        roots = sorted(partition.roots())
        if len(roots) < 2:
            break
        u = roots[a % len(roots)]
        v = roots[b % len(roots)]
        if u != v:
            partition.merge(u, v)
    return partition


# ----------------------------------------------------------------------
# Cost calculus
# ----------------------------------------------------------------------


@given(st.integers(1, 500), st.integers(0, 500))
def test_pair_cost_bounds(pi, edges):
    if edges > pi:
        edges = pi
    cost = pair_cost(pi, edges)
    assert 0 <= cost <= max(edges, 1)
    assert cost <= pi - edges + 1 or edges == 0


@given(st.integers(1, 100))
def test_potential_self_edges_is_binomial(size):
    assert potential_self_edges(size) == size * (size - 1) // 2


# ----------------------------------------------------------------------
# Partition invariants under arbitrary merges
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(graphs_with_merges())
def test_partition_invariants_under_merges(data):
    graph, pair_seeds = data
    partition = _apply_merges(graph, pair_seeds)
    partition.check_invariants()


@settings(max_examples=60, deadline=None)
@given(graphs_with_merges())
def test_encoding_is_lossless_for_any_partition(data):
    graph, pair_seeds = data
    partition = _apply_merges(graph, pair_seeds)
    rep = encode(partition)
    verify_lossless(graph, rep)


@settings(max_examples=60, deadline=None)
@given(graphs_with_merges())
def test_total_cost_matches_encoding_cost(data):
    """Equation 3 == Equation 1: the partition's incremental cost and
    the encoded representation's size must agree exactly."""
    graph, pair_seeds = data
    partition = _apply_merges(graph, pair_seeds)
    rep = encode(partition)
    assert partition.total_cost() == rep.cost


@settings(max_examples=40, deadline=None)
@given(graphs_with_merges())
def test_merged_cost_prediction_is_exact(data):
    graph, pair_seeds = data
    partition = _apply_merges(graph, pair_seeds)
    roots = sorted(partition.roots())
    if len(roots) < 2:
        return
    u, v = roots[0], roots[1]
    predicted = partition.merged_cost(u, v)
    w = partition.merge(u, v)
    assert partition.node_cost(w) == predicted


@settings(max_examples=40, deadline=None)
@given(graphs_with_merges())
def test_positive_saving_implies_cost_drop(data):
    graph, pair_seeds = data
    partition = _apply_merges(graph, pair_seeds)
    roots = sorted(partition.roots())
    if len(roots) < 2:
        return
    u, v = roots[-2], roots[-1]
    saving = partition.saving(u, v)
    before = partition.total_cost()
    partition.merge(u, v)
    after = partition.total_cost()
    if saving > 1e-12:
        assert after < before
    elif saving < -1e-12:
        assert after > before


# ----------------------------------------------------------------------
# MinHash
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(graphs(max_nodes=16))
def test_minhash_similarity_one_iff_same_signature(graph):
    sig = MinHashSignatures(graph, 16, seed=0)
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            if exact_jaccard(graph, u, v) == 1.0 and graph.neighbors(u):
                assert sig.similarity(u, v) == 1.0


@settings(max_examples=30, deadline=None)
@given(graphs(max_nodes=16), st.integers(0, 10_000))
def test_minhash_merge_equals_union(graph, pick):
    if graph.n < 2:
        return
    u = pick % graph.n
    v = (pick // graph.n) % graph.n
    if u == v:
        return
    sig = MinHashSignatures(graph, 8, seed=1)
    merged = np.minimum(sig.column(u).copy(), sig.column(v).copy())
    sig.merge(u, v)
    assert np.array_equal(sig.column(u), merged)


# ----------------------------------------------------------------------
# End-to-end algorithm properties
# ----------------------------------------------------------------------

_FAST_ALGOS = [
    lambda: GreedySummarizer(),
    lambda: MagsSummarizer(iterations=4, seed=1),
    lambda: MagsDMSummarizer(iterations=4, seed=1),
    lambda: SWeGSummarizer(iterations=4, seed=1),
]


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(graphs(max_nodes=18), st.integers(0, 3))
def test_any_algorithm_is_lossless_on_any_graph(graph, which):
    result = _FAST_ALGOS[which]().summarize(graph)
    verify_lossless(graph, result.representation)
    assert result.cost <= graph.m


@settings(max_examples=20, deadline=None)
@given(graphs(max_nodes=16))
def test_summary_queries_agree_with_graph(graph):
    result = MagsDMSummarizer(iterations=4, seed=2).summarize(graph)
    index = SummaryNeighborIndex(result.representation)
    for q in range(graph.n):
        assert index.neighbors(q) == set(graph.neighbors(q))


@settings(max_examples=15, deadline=None)
@given(graphs(max_nodes=14))
def test_summary_pagerank_agrees_with_input(graph):
    result = MagsDMSummarizer(iterations=4, seed=3).summarize(graph)
    expected = pagerank_input_graph(graph, 0.85, 6)
    got = pagerank_summary(result.representation, 0.85, 6)
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)


@st.composite
def block_partitions(draw):
    """A graph drawn block by block over a random node grouping, and
    that grouping.

    Each block (a group's interior, or the pairs between two groups) is
    empty, complete, complete but for a few holes, or random, so that
    encoding the grouping yields self super-edges, removal corrections,
    additions, isolated nodes and, when no block is dense, no
    super-edge at all.
    """
    n = draw(st.integers(1, 16))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    groups = [
        [x for x in range(n) if labels[x] == label]
        for label in sorted(set(labels))
    ]
    edges = []
    for i, a in enumerate(groups):
        for b in groups[i:]:
            pairs = sorted(
                {(min(x, y), max(x, y)) for x in a for y in b if x != y}
            )
            kind = draw(st.sampled_from(("empty", "full", "holes", "random")))
            if not pairs or kind == "empty":
                continue
            if kind == "random":
                pairs = draw(st.lists(st.sampled_from(pairs), unique=True))
            elif kind == "holes":
                holes = draw(
                    st.sets(
                        st.integers(0, len(pairs) - 1),
                        min_size=1, max_size=max(1, len(pairs) // 3),
                    )
                )
                pairs = [p for k, p in enumerate(pairs) if k not in holes]
            edges.extend(pairs)
    return Graph(n, edges), groups


def _encode_grouping(graph: Graph, groups) -> Representation:
    partition = SuperNodePartition(graph)
    for group in groups:
        for x in group[1:]:
            partition.merge(partition.find(group[0]), partition.find(x))
    return encode(partition)


@settings(max_examples=80, deadline=None)
@given(block_partitions())
# No super-edge at all (and an isolated node): the plan's super-edge
# bincount returns int64 zeros.
@example((Graph(3, [(0, 1)]), [[0], [1], [2]]))
# A self super-edge with one removal correction, and an isolated node.
@example(
    (Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), [[0, 1, 2, 3], [4]])
)
def test_pagerank_plan_matches_reference(data):
    """Algorithm 7's prebuilt plan agrees with literal Equation 8, and
    the degrees it recovers from ``(S, C)`` are the graph's, for any
    grouping."""
    graph, groups = data
    rep = _encode_grouping(graph, groups)
    np.testing.assert_allclose(
        SummaryPageRank(rep).run(0.85, 6),
        pagerank_reference(graph, 0.85, 6),
        rtol=1e-10,
    )
    np.testing.assert_array_equal(degree_vector(rep), graph.degrees())


# ----------------------------------------------------------------------
# I/O normalisation
# ----------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=80
    )
)
def test_clean_edges_properties(raw):
    n, edges = clean_edges(raw)
    assert all(0 <= u < v < n for u, v in edges)
    assert len(set(edges)) == len(edges)
    # Cleaning is idempotent.
    assert clean_edges(edges) == (n, edges)


@settings(max_examples=25, deadline=None)
@given(graphs_with_merges())
def test_text_serialization_roundtrip(data):
    """The v1 text format round-trips any valid representation."""
    import tempfile
    from pathlib import Path

    from repro.core.serialization import (
        load_representation,
        save_representation,
    )

    graph, pair_seeds = data
    partition = _apply_merges(graph, pair_seeds)
    rep = encode(partition)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "summary.txt"
        save_representation(path, rep)
        loaded = load_representation(path)
    assert loaded.reconstruct_edges() == graph.edge_set()
    assert loaded.cost == rep.cost


@settings(max_examples=25, deadline=None)
@given(graphs_with_merges())
def test_binary_codec_roundtrip(data):
    """The binary summary blob round-trips any valid representation."""
    from repro.compression.codec import SummaryCodec

    graph, pair_seeds = data
    partition = _apply_merges(graph, pair_seeds)
    rep = encode(partition)
    decoded = SummaryCodec.decode(SummaryCodec.encode(rep))
    assert decoded.reconstruct_edges() == graph.edge_set()


@settings(max_examples=20, deadline=None)
@given(graphs_with_merges(), st.floats(0.0, 1.0))
def test_lossy_bound_holds_for_any_partition(data, epsilon):
    """Bounded-error pruning respects the per-node budget on any
    representation, not just algorithm outputs."""
    from repro.core.lossy import make_lossy, neighborhood_errors

    graph, pair_seeds = data
    partition = _apply_merges(graph, pair_seeds)
    rep = encode(partition)
    lossy = make_lossy(rep, epsilon)
    errors = neighborhood_errors(graph, lossy.representation)
    for v in range(graph.n):
        assert errors[v] <= epsilon * graph.degree(v) + 1e-9


@settings(max_examples=20, deadline=None)
@given(graphs_with_merges())
def test_components_and_degrees_from_any_partition(data):
    """Summary-side components and degree vectors agree with the graph
    for arbitrary partitions."""
    from repro.queries.traversal import num_connected_components

    graph, pair_seeds = data
    partition = _apply_merges(graph, pair_seeds)
    rep = encode(partition)
    np.testing.assert_array_equal(degree_vector(rep), graph.degrees())

    # Reference component count via BFS on the original graph.
    seen = set()
    components = 0
    for start in range(graph.n):
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for v in graph.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    assert num_connected_components(rep) == components
