"""Tests for the Graph substrate."""

import numpy as np
import pytest

from repro.graph.graph import Graph, GraphError


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.n == 0
        assert g.m == 0
        assert g.avg_degree == 0.0

    def test_nodes_without_edges(self):
        g = Graph(4, [])
        assert g.n == 4
        assert g.m == 0
        assert all(g.degree(u) == 0 for u in g.nodes())

    def test_basic_graph(self, triangle):
        assert triangle.n == 3
        assert triangle.m == 3
        assert triangle.avg_degree == 2.0

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1, [])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(3, [(0, 1), (0, 1)])

    def test_reversed_duplicate_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(3, [(0, 3)])



class TestAccessors:
    def test_neighbors_symmetric(self, triangle):
        for u in triangle.nodes():
            for v in triangle.neighbors(u):
                assert u in triangle.neighbors(v)

    def test_neighbors_is_readonly_view(self, triangle):
        assert isinstance(triangle.neighbors(0), frozenset)

    def test_degree_matches_neighbors(self, star_graph):
        assert star_graph.degree(0) == 9
        assert all(star_graph.degree(leaf) == 1 for leaf in range(1, 10))

    def test_has_edge(self, triangle):
        assert triangle.has_edge(0, 1)
        assert triangle.has_edge(1, 0)
        assert not triangle.has_edge(0, 0)

    def test_has_edge_out_of_range_is_false(self, triangle):
        assert not triangle.has_edge(0, 99)
        assert not triangle.has_edge(-1, 0)

    def test_edges_are_ordered_and_unique(self, paper_like_graph):
        edges = list(paper_like_graph.edges())
        assert len(edges) == paper_like_graph.m
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == len(edges)

    def test_edge_set_roundtrip(self, paper_like_graph):
        rebuilt = Graph(
            paper_like_graph.n, sorted(paper_like_graph.edge_set())
        )
        assert rebuilt == paper_like_graph

    def test_avg_degree(self, paper_like_graph):
        g = paper_like_graph
        assert g.avg_degree == pytest.approx(2 * g.m / g.n)

    def test_equality(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(0, 1)])
        c = Graph(3, [(0, 2)])
        assert a == b
        assert a != c
        assert a != "not a graph"

    def test_not_hashable(self, triangle):
        with pytest.raises(TypeError):
            hash(triangle)

    def test_repr_mentions_sizes(self, triangle):
        assert "n=3" in repr(triangle)
        assert "m=3" in repr(triangle)


class TestDerivedStructures:
    def test_csr_shape(self, paper_like_graph):
        indptr, indices = paper_like_graph.csr()
        assert len(indptr) == paper_like_graph.n + 1
        assert len(indices) == 2 * paper_like_graph.m

    def test_csr_segments_match_adjacency(self, paper_like_graph):
        indptr, indices = paper_like_graph.csr()
        for u in paper_like_graph.nodes():
            segment = set(indices[indptr[u]:indptr[u + 1]].tolist())
            assert segment == set(paper_like_graph.neighbors(u))

    def test_csr_is_cached(self, triangle):
        assert triangle.csr() is triangle.csr()

    def test_csr_sorted_within_segment(self, paper_like_graph):
        indptr, indices = paper_like_graph.csr()
        for u in paper_like_graph.nodes():
            seg = indices[indptr[u]:indptr[u + 1]]
            assert list(seg) == sorted(seg)

    def test_degrees_array(self, star_graph):
        degrees = star_graph.degrees()
        assert degrees.dtype == np.int64
        assert degrees[0] == 9
        assert degrees[1:].tolist() == [1] * 9

    def test_subgraph_keeps_induced_edges(self, paper_like_graph):
        sub = paper_like_graph.subgraph([0, 1, 2])
        # Nodes 0,1,2 relabel to 0,1,2; edges (0,2),(1,2) survive.
        assert sub.n == 3
        assert sub.edge_set() == {(0, 2), (1, 2)}

    def test_subgraph_relabels_densely(self, paper_like_graph):
        sub = paper_like_graph.subgraph([5, 6, 7])
        assert sub.n == 3
        assert sub.m == 0

    def test_subgraph_ignores_duplicate_keep_ids(self, triangle):
        sub = triangle.subgraph([0, 1, 1, 0])
        assert sub.n == 2
        assert sub.edge_set() == {(0, 1)}


class TestSubgraphValidation:
    def test_out_of_range_keep_rejected(self, triangle):
        with pytest.raises(GraphError, match="keep ids"):
            triangle.subgraph([0, 99])
        with pytest.raises(GraphError, match="keep ids"):
            triangle.subgraph([-1, 0])

    def test_empty_keep(self, triangle):
        sub = triangle.subgraph([])
        assert sub.n == 0
        assert sub.m == 0
