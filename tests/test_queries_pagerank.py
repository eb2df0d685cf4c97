"""Tests for PageRank on the input graph vs. on the summary (Alg. 7)."""

import numpy as np
import pytest

from repro.algorithms.mags import MagsSummarizer
from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.core.encoding import encode
from repro.core.supernodes import SuperNodePartition
from repro.graph.generators import caveman, planted_partition, templated_web
from repro.graph.graph import Graph
from repro.queries.pagerank import (
    SummaryPageRank,
    pagerank_input_graph,
    pagerank_reference,
    pagerank_summary,
)


class TestInputGraphPageRank:
    def test_matches_reference(self, paper_like_graph):
        fast = pagerank_input_graph(paper_like_graph, 0.85, 10)
        slow = pagerank_reference(paper_like_graph, 0.85, 10)
        assert np.allclose(fast, slow)

    def test_isolated_nodes_get_base_rank(self):
        g = Graph(3, [(0, 1)])
        ranks = pagerank_input_graph(g, 0.85, 5)
        assert ranks[2] == pytest.approx(0.15)

    def test_symmetric_nodes_equal_rank(self, triangle):
        ranks = pagerank_input_graph(triangle, 0.85, 15)
        assert np.allclose(ranks, ranks[0])

    def test_hub_outranks_leaves(self, star_graph):
        ranks = pagerank_input_graph(star_graph, 0.85, 15)
        assert ranks[0] > ranks[1]

    def test_empty_graph(self):
        assert pagerank_input_graph(Graph(0, []), 0.85, 3).shape == (0,)

    def test_zero_iterations_returns_initial(self, triangle):
        assert np.allclose(pagerank_input_graph(triangle, 0.85, 0), 1.0)


class TestSummaryPageRank:
    def _assert_summary_matches(self, graph, merges=()):
        partition = SuperNodePartition(graph)
        for u, v in merges:
            partition.merge(partition.find(u), partition.find(v))
        rep = encode(partition)
        expected = pagerank_input_graph(graph, 0.85, 12)
        got = pagerank_summary(rep, 0.85, 12)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_singleton_encoding(self, paper_like_graph):
        self._assert_summary_matches(paper_like_graph)

    def test_with_cross_superedges(self, paper_like_graph):
        self._assert_summary_matches(
            paper_like_graph, [(0, 1), (3, 4), (5, 6), (5, 7)]
        )

    def test_with_self_superedge(self, clique_graph):
        self._assert_summary_matches(
            clique_graph, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]
        )

    def test_with_removal_corrections(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        self._assert_summary_matches(g, [(0, 1), (2, 3)])

    def test_on_mags_output(self, community_graph):
        result = MagsSummarizer(iterations=10, seed=1).summarize(
            community_graph
        )
        expected = pagerank_input_graph(community_graph, 0.85, 15)
        got = pagerank_summary(result.representation, 0.85, 15)
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_on_mags_dm_output(self):
        g = templated_web(300, 10, 40, 6, 0.05, seed=4)
        result = MagsDMSummarizer(iterations=10, seed=1).summarize(g)
        expected = pagerank_input_graph(g, 0.85, 15)
        got = pagerank_summary(result.representation, 0.85, 15)
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_isolated_nodes(self):
        g = Graph(5, [(0, 1), (0, 2)])
        partition = SuperNodePartition(g)
        partition.merge(1, 2)
        rep = encode(partition)
        expected = pagerank_input_graph(g, 0.85, 8)
        np.testing.assert_allclose(
            pagerank_summary(rep, 0.85, 8), expected
        )

    def test_engine_reuse(self, community_graph):
        result = MagsDMSummarizer(iterations=8, seed=2).summarize(
            community_graph
        )
        engine = SummaryPageRank(result.representation)
        a = engine.run(0.85, 5)
        b = engine.run(0.85, 5)
        np.testing.assert_array_equal(a, b)

    def test_recovered_degrees_are_true_degrees(self):
        g = caveman(4, 6, seed=1)
        result = MagsDMSummarizer(iterations=10, seed=3).summarize(g)
        engine = SummaryPageRank(result.representation)
        np.testing.assert_array_equal(engine.degrees, g.degrees())

    def test_work_proportional_to_representation(self):
        """Algorithm 7's operation count is O(|E| + |C|) per iteration
        — on a highly compressible graph the summary side touches far
        fewer index entries than the input side."""
        g = templated_web(600, 10, 60, 8, 0.01, seed=6)
        result = MagsDMSummarizer(iterations=15, seed=1).summarize(g)
        engine = SummaryPageRank(result.representation)
        # Entries an iteration gathers: the super-edge list and the
        # signed correction list of the plan.
        summary_entries = len(engine._edge_src) + len(engine._corr_src)
        input_entries = 2 * g.m
        assert summary_entries < 0.5 * input_entries


class TestPlantedPartitionAgreement:
    def test_full_pipeline_agreement(self):
        g = planted_partition(200, 10, 0.6, 0.02, seed=9)
        result = MagsDMSummarizer(iterations=12, seed=5).summarize(g)
        reference = np.array(pagerank_reference(g, 0.85, 10))
        summary = pagerank_summary(result.representation, 0.85, 10)
        np.testing.assert_allclose(summary, reference, rtol=1e-8)
