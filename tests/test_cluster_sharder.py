"""Tests for graph sharding and the cluster planning step."""

import pytest

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.cluster.sharder import ARTIFACT_TEMPLATE, plan_cluster, shard_graph
from repro.cluster.topology import default_spec, load_topology, shard_for_node
from repro.core.serialization import load_representation
from repro.graph.generators import planted_partition
from repro.graph.graph import Graph


@pytest.fixture(scope="module")
def graph():
    return planted_partition(150, 10, 0.7, 0.02, seed=42)


class TestShardGraph:
    def test_union_of_shard_edges_is_input(self, graph):
        subgraphs = shard_graph(graph, 3, seed=1)
        union = set()
        for sub in subgraphs:
            union.update(sub.edges())
        assert union == set(graph.edges())

    def test_owned_neighborhoods_are_complete(self, graph):
        """The closure property routing correctness rests on: shard s
        holds the *full* global neighborhood of every node it owns."""
        shards = 3
        subgraphs = shard_graph(graph, shards, seed=1)
        for u in range(graph.n):
            owner = shard_for_node(u, shards, 1)
            assert set(subgraphs[owner].neighbors(u)) == set(
                graph.neighbors(u)
            )

    def test_cut_edges_duplicated_on_both_shards(self, graph):
        shards = 2
        subgraphs = shard_graph(graph, shards, seed=0)
        for u, v in graph.edges():
            su, sv = (
                shard_for_node(u, shards, 0),
                shard_for_node(v, shards, 0),
            )
            owners = {su, sv}
            for s in owners:
                assert (u, v) in set(subgraphs[s].edges())

    def test_global_id_space_preserved(self, graph):
        for sub in shard_graph(graph, 4, seed=0):
            assert sub.n == graph.n

    def test_single_shard_is_identity(self, graph):
        (only,) = shard_graph(graph, 1, seed=0)
        assert set(only.edges()) == set(graph.edges())

    def test_bad_shard_count_rejected(self, graph):
        with pytest.raises(ValueError, match="shards"):
            shard_graph(graph, 0)

    def test_empty_graph(self):
        subgraphs = shard_graph(Graph(5, []), 2, seed=0)
        assert all(sub.m == 0 and sub.n == 5 for sub in subgraphs)


class TestPlanCluster:
    def test_plan_writes_artifacts_and_topology(self, graph, tmp_path):
        spec = default_spec(2, 1, seed=0, base_port=7500)
        factory = lambda: MagsDMSummarizer(iterations=5, seed=0)  # noqa: E731
        report = plan_cluster(graph, spec, tmp_path, factory)

        assert spec.n == graph.n
        assert set(spec.artifacts) == {0, 1}
        for shard in (0, 1):
            path = tmp_path / ARTIFACT_TEMPLATE.format(shard=shard)
            assert path.exists()
            assert spec.artifact_path(shard) == path
        assert (tmp_path / "topology.json").exists()
        assert len(report.rows) == 2
        assert sum(row["owned_nodes"] for row in report.rows) == graph.n
        assert len(report.summary_lines()) == 2

    def test_planned_artifacts_reconstruct_shard_subgraphs(
        self, graph, tmp_path
    ):
        spec = default_spec(2, 1, seed=3, base_port=7500)
        factory = lambda: MagsDMSummarizer(iterations=5, seed=0)  # noqa: E731
        plan_cluster(graph, spec, tmp_path, factory)
        subgraphs = shard_graph(graph, 2, seed=3)
        for shard, sub in enumerate(subgraphs):
            rep = load_representation(spec.artifact_path(shard))
            assert set(rep.reconstruct().edges()) == set(sub.edges())

    def test_planned_topology_loads_back(self, graph, tmp_path):
        spec = default_spec(2, 2, seed=0, base_port=7500)
        factory = lambda: MagsDMSummarizer(iterations=5, seed=0)  # noqa: E731
        plan_cluster(graph, spec, tmp_path, factory)
        loaded = load_topology(tmp_path / "topology.json")
        assert loaded.n == graph.n
        assert loaded.artifact_path(0).exists()
        assert loaded.artifact_path(1).exists()
