"""Direct tests for the shared divide-and-merge helpers."""

import random

from repro.algorithms._dm_common import (
    divide_by_single_hash,
    divide_recursive,
    shuffled_rows,
)
from repro.core.minhash import MinHashSignatures
from repro.graph.graph import Graph


class TestShuffledRows:
    def test_is_permutation(self):
        rows = shuffled_rows(10, random.Random(1))
        assert sorted(rows) == list(range(10))

    def test_deterministic_per_rng_state(self):
        assert shuffled_rows(8, random.Random(5)) == shuffled_rows(
            8, random.Random(5)
        )

    def test_varies_with_state(self):
        outputs = {tuple(shuffled_rows(8, random.Random(s))) for s in range(6)}
        assert len(outputs) > 1


class TestDividers:
    def test_single_hash_groups_partition_input(self, community_graph):
        sig = MinHashSignatures(community_graph, 4, seed=3)
        roots = list(community_graph.nodes())
        groups = divide_by_single_hash(roots, sig, 0)
        flattened = [r for g in groups for r in g]
        assert len(flattened) == len(set(flattened))
        assert set(flattened) <= set(roots)

    def test_recursive_divider_with_cap_one_matches_single_hash(
        self, community_graph
    ):
        """Forcing a split at every level with only one hash function
        available degenerates to single-hash dividing."""
        sig = MinHashSignatures(community_graph, 8, seed=3)
        roots = list(community_graph.nodes())
        single = divide_by_single_hash(roots, sig, 0)
        recursive = divide_recursive(roots, sig, [0], 1)
        assert sorted(map(sorted, single)) == sorted(map(sorted, recursive))

    def test_recursive_divider_keeps_groups_under_cap_whole(
        self, community_graph
    ):
        sig = MinHashSignatures(community_graph, 8, seed=3)
        roots = list(community_graph.nodes())
        groups = divide_recursive(roots, sig, list(range(8)), 10_000)
        # Cap larger than n: the whole root set stays one group.
        assert groups == [roots]

    def test_recursive_divider_zero_depth_keeps_group(self):
        g = Graph(4, [(0, 1), (2, 3)])
        sig = MinHashSignatures(g, 4, seed=1)
        groups = divide_recursive([0, 1, 2, 3], sig, [], 2)
        assert groups == [[0, 1, 2, 3]]

    def test_identical_signature_group_not_split(self, twin_graph):
        sig = MinHashSignatures(twin_graph, 6, seed=4)
        # Nodes 0 and 1 share all signatures; cap of 1 cannot split them.
        groups = divide_recursive([0, 1], sig, list(range(6)), 1)
        assert groups == [[0, 1]]
