"""Tests for Mags (Section 3): candidate generation and greedy merge."""

import pytest

from repro.algorithms.greedy import GreedySummarizer
from repro.algorithms.mags import CandidatePairs, MagsSummarizer
from repro.core.supernodes import SuperNodePartition
from repro.core.verify import verify_lossless
from repro.graph.generators import caveman, planted_partition, templated_web
from repro.graph.graph import Graph
from tests.test_mags_dm import _WEB, _digest


class TestCandidatePairs:
    def test_add_and_lookup_both_directions(self):
        cp = CandidatePairs()
        cp.add(1, 2, 0.4)
        assert cp.saving(1, 2) == 0.4
        assert cp.saving(2, 1) == 0.4
        assert len(cp) == 1

    def test_partners_index(self):
        cp = CandidatePairs()
        cp.add(1, 2, 0.4)
        cp.add(1, 3, 0.2)
        assert set(cp.partners(1)) == {2, 3}
        assert set(cp.partners(2)) == {1}

    def test_discard(self):
        cp = CandidatePairs()
        cp.add(1, 2, 0.4)
        cp.discard(2, 1)
        assert cp.saving(1, 2) is None
        assert len(cp) == 0

    def test_discard_absent_is_noop(self):
        cp = CandidatePairs()
        cp.discard(5, 6)

    def test_replace_node_rekeys_pairs(self):
        cp = CandidatePairs()
        cp.add(1, 2, 0.4)
        cp.add(1, 3, 0.2)
        moved = cp.replace_node(1, 9)
        assert sorted(moved) == [2, 3]
        assert cp.saving(9, 2) == 0.4
        assert cp.saving(9, 3) == 0.2
        assert cp.saving(1, 2) is None

    def test_replace_node_drops_pair_with_survivor(self):
        cp = CandidatePairs()
        cp.add(1, 9, 0.4)
        moved = cp.replace_node(1, 9)
        assert moved == []
        assert cp.saving(9, 9) is None

    def test_replace_keeps_existing_survivor_pair(self):
        cp = CandidatePairs()
        cp.add(1, 2, 0.4)
        cp.add(9, 2, 0.3)
        cp.replace_node(1, 9)
        # Existing (9,2) saving wins over the moved stale one.
        assert cp.saving(9, 2) == 0.3

    def test_pairs_listing(self):
        cp = CandidatePairs()
        cp.add(3, 1, 0.1)
        cp.add(2, 4, 0.2)
        assert sorted(cp.pairs()) == [(1, 3), (2, 4)]


class TestParameterDefaults:
    def test_k_default_follows_paper(self):
        mags = MagsSummarizer()
        dense = planted_partition(100, 5, 0.8, 0.05, seed=1)
        assert mags._resolved_k(dense) == min(int(5 * dense.avg_degree), 30)

    def test_h_default_follows_paper(self):
        mags = MagsSummarizer()
        sparse = Graph(10, [(i, i + 1) for i in range(9)])
        assert mags._resolved_h(sparse) == min(int(10 * sparse.avg_degree), 50)

    def test_explicit_overrides(self):
        mags = MagsSummarizer(k=7, h=13)
        g = Graph(4, [(0, 1)])
        assert mags._resolved_k(g) == 7
        assert mags._resolved_h(g) == 13

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            MagsSummarizer(iterations=0)
        with pytest.raises(ValueError):
            MagsSummarizer(b=0)
        with pytest.raises(ValueError):
            MagsSummarizer(candidate_method="magic")
        with pytest.raises(TypeError):
            MagsSummarizer(workers=2)


class TestMags:
    def test_clique_collapses(self, clique_graph):
        result = MagsSummarizer(iterations=5).summarize(clique_graph)
        assert result.representation.num_supernodes == 1

    def test_twins_merged(self, twin_graph):
        result = MagsSummarizer(iterations=5).summarize(twin_graph)
        rep = result.representation
        merged = sum(
            rep.supernode_of(2 * i) == rep.supernode_of(2 * i + 1)
            for i in range(4)
        )
        assert merged == 4

    def test_matches_greedy_on_structured_graph(self):
        """The paper's headline: < 0.1% average difference to Greedy.
        On a small structured graph the gap should be tiny."""
        g = planted_partition(120, 8, 0.75, 0.02, seed=5)
        greedy = GreedySummarizer().summarize(g)
        mags = MagsSummarizer(iterations=30).summarize(g)
        assert mags.cost <= greedy.cost * 1.05

    def test_naive_candidate_variant(self):
        g = caveman(4, 5, seed=2)
        fast = MagsSummarizer(iterations=10).summarize(g)
        naive = MagsSummarizer(
            iterations=10, candidate_method="naive"
        ).summarize(g)
        verify_lossless(g, naive.representation)
        # Figure 8: the two variants have near-identical compactness.
        assert naive.cost <= fast.cost * 1.1 + 2
        assert fast.cost <= naive.cost * 1.1 + 2

    def test_more_iterations_never_hurt_much(self):
        g = planted_partition(100, 10, 0.7, 0.03, seed=6)
        few = MagsSummarizer(iterations=5).summarize(g)
        many = MagsSummarizer(iterations=40).summarize(g)
        assert many.cost <= few.cost + 2

    def test_phases_recorded(self, twin_graph):
        result = MagsSummarizer(iterations=3).summarize(twin_graph)
        assert {"candidate_generation", "greedy_merge", "output"} <= set(
            result.phase_seconds
        )

    def test_merge_stats_collected(self, twin_graph):
        mags = MagsSummarizer(iterations=4)
        result = mags.summarize(twin_graph)
        assert len(mags.last_iteration_merges) == 4
        assert sum(map(len, mags.last_iteration_merges)) == result.num_merges

    def test_isolated_nodes_survive(self):
        g = Graph(6, [(0, 1), (0, 2), (1, 2)])
        result = MagsSummarizer(iterations=5).summarize(g)
        verify_lossless(g, result.representation)
        rep = result.representation
        assert all(
            node in rep.node_to_supernode for node in range(6)
        )

    def test_candidate_budget_respected(self):
        g = planted_partition(80, 8, 0.7, 0.05, seed=2)
        mags = MagsSummarizer(iterations=1, k=3)
        pairs = mags._minhash_candidates(g)
        per_node: dict[int, int] = {}
        for u, v in pairs:
            per_node[u] = per_node.get(u, 0) + 1
            per_node[v] = per_node.get(v, 0) + 1
        # Each node generates at most k pairs itself; it can also be
        # chosen by others, so the global bound is k*n total pairs.
        assert len(pairs) <= 3 * g.n


class TestByteIdentity:
    """Mags summaries must not change under merge-loop rewrites.

    One case per candidate generator; the digests cover the saved
    summary's bytes and the merge count (see ``tests/test_mags_dm.py``).
    """

    CASES = {
        "minhash": (
            {},
            "54d493c4e6c0d15789d2fcb88642b23b12a6525e02fb25a60a9f8539f95bf07b",
        ),
        "naive": (
            dict(candidate_method="naive"),
            "05e37fb508f31544a3f9df438afc3c00f4f8590d7de6c841fe0b7f2091f1bab4",
        ),
    }

    @pytest.fixture(scope="class")
    def graph(self):
        return templated_web(**_WEB)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_summary_bytes_unchanged(self, graph, tmp_path, case):
        params, expected = self.CASES[case]
        result = MagsSummarizer(iterations=6, seed=3, **params).summarize(
            graph
        )
        assert _digest(result, tmp_path / "s.txt") == expected


class TestRekeyAfterMerge:
    """Regression tests for the stale-saving re-key bug.

    ``CandidatePairs.replace_node`` seeds moved pairs with the dead
    root's old saving — a value describing a super-node that no longer
    exists.  ``_rekey_after_merge`` must overwrite it (table *and*
    heap) with the saving of the actual surviving super-node.
    """

    @staticmethod
    def _partition_and_candidates():
        # Two dense communities sharing a bridge: merging inside one
        # community changes the savings of pairs that straddle it.
        g = planted_partition(24, 3, 0.9, 0.1, seed=21)
        partition = SuperNodePartition(g)
        candidates = CandidatePairs()
        for u in sorted(partition.roots()):
            for v in sorted(partition.weights(u)):
                if u < v:
                    candidates.add(u, v, partition.saving(u, v))
        return partition, candidates

    def test_heap_entries_match_authoritative_savings(self):
        partition, candidates = self._partition_and_candidates()
        heap: list[tuple[float, int, int]] = []
        u, v = next(
            (u, v) for (u, v) in candidates.pairs()
            if len(candidates.partners(u)) > 1
            and len(candidates.partners(v)) > 1
        )
        survivor = partition.merge(u, v)
        dead = v if survivor == u else u
        moved = MagsSummarizer._rekey_after_merge(
            partition, candidates, heap, survivor, dead
        )
        assert moved  # the merge must actually have re-keyed pairs
        for neg_s, a, b in heap:
            assert a == survivor
            assert candidates.saving(a, b) == -neg_s
            assert partition.saving(a, b) == -neg_s

    def test_stale_placeholder_is_overwritten(self):
        partition, candidates = self._partition_and_candidates()
        heap: list[tuple[float, int, int]] = []
        # Find a merge after which some moved pair's fresh saving
        # differs from the placeholder replace_node would seed — the
        # configuration in which the old code corrupted the heap order.
        for u, v in candidates.pairs():
            partners = set(candidates.partners(u)) | set(
                candidates.partners(v)
            )
            partners -= {u, v}
            if not partners:
                continue
            stale = {
                p: candidates.saving(u, p)
                if candidates.saving(u, p) is not None
                else candidates.saving(v, p)
                for p in partners
            }
            survivor = partition.merge(u, v)
            dead = v if survivor == u else u
            MagsSummarizer._rekey_after_merge(
                partition, candidates, heap, survivor, dead
            )
            changed = [
                p
                for p in partners
                if p in candidates.partners(survivor)
                and candidates.saving(survivor, p) != stale[p]
            ]
            assert changed, "merge did not change any saving; bad fixture"
            for p in changed:
                assert candidates.saving(survivor, p) == partition.saving(
                    survivor, p
                )
            return
        pytest.fail("no mergeable pair with outside partners found")
