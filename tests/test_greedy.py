"""Tests for the Greedy baseline (Section 2.3)."""

from repro.algorithms.greedy import GreedySummarizer, two_hop_pairs
from repro.core.supernodes import SuperNodePartition
from repro.graph.generators import planted_partition
from repro.graph.graph import Graph


class TestTwoHopPairs:
    def test_path(self, path_graph):
        p = SuperNodePartition(path_graph)
        assert two_hop_pairs(p, 0) == {1, 2}
        assert two_hop_pairs(p, 2) == {0, 1, 3, 4}

    def test_excludes_self(self, triangle):
        p = SuperNodePartition(triangle)
        assert 0 not in two_hop_pairs(p, 0)

    def test_isolated_node(self):
        g = Graph(3, [(0, 1)])
        p = SuperNodePartition(g)
        assert two_hop_pairs(p, 2) == set()

    def test_respects_merged_structure(self, paper_like_graph):
        p = SuperNodePartition(paper_like_graph)
        w = p.merge(0, 1)
        reachable = two_hop_pairs(p, w)
        assert 2 in reachable and 3 in reachable


class TestGreedy:
    def test_collapses_clique_fully(self, clique_graph):
        result = GreedySummarizer().summarize(clique_graph)
        assert result.representation.num_supernodes == 1
        assert result.cost == 1

    def test_merges_all_twins(self, twin_graph):
        result = GreedySummarizer().summarize(twin_graph)
        rep = result.representation
        for i in range(4):
            assert rep.supernode_of(2 * i) == rep.supernode_of(2 * i + 1)

    def test_caveman_collapses_to_cliques(self):
        from repro.graph.generators import caveman

        g = caveman(4, 5, seed=0)
        result = GreedySummarizer().summarize(g)
        # Greedy should get close to the 4-super-node optimum.
        assert result.representation.num_supernodes <= 8
        assert result.relative_size < 0.5

    def test_every_merge_reduces_cost(self, community_graph):
        """Greedy only merges positive-saving pairs; with the exact
        saving, its final cost is strictly below the trivial cost
        whenever any positive pair existed."""
        result = GreedySummarizer().summarize(community_graph)
        assert result.cost < community_graph.m

    def test_compactness_beats_thresholded_methods(self):
        """The paper's premise: Greedy is the compactness gold standard
        (Figure 4).  Compare against SWeG on a structured graph."""
        from repro.algorithms.sweg import SWeGSummarizer

        g = planted_partition(120, 8, 0.7, 0.03, seed=9)
        greedy = GreedySummarizer().summarize(g)
        sweg = SWeGSummarizer(iterations=10, seed=9).summarize(g)
        assert greedy.cost <= sweg.cost

    def test_empty_graph(self):
        result = GreedySummarizer().summarize(Graph(0, []))
        assert result.cost == 0

    def test_records_phases(self, twin_graph):
        result = GreedySummarizer().summarize(twin_graph)
        assert {"init", "merge", "output"} <= set(result.phase_seconds)
