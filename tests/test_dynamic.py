"""Tests for dynamic graph summarization (corrections overlay)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.core.verify import verify_lossless
from repro.dynamic import DynamicGraphSummary
from repro.graph.generators import planted_partition
from repro.graph.graph import Graph


def _dynamic(graph, rebuild_factor=None):
    return DynamicGraphSummary(
        graph,
        summarizer_factory=lambda: MagsDMSummarizer(iterations=8, seed=1),
        rebuild_factor=rebuild_factor,
    )


class TestConstruction:
    def test_initial_state_matches_graph(self, paper_like_graph):
        dyn = _dynamic(paper_like_graph)
        assert dyn.n == paper_like_graph.n
        assert dyn.m == paper_like_graph.m
        assert dyn.to_graph() == paper_like_graph

    def test_invalid_rebuild_factor(self, triangle):
        with pytest.raises(ValueError):
            DynamicGraphSummary(triangle, rebuild_factor=0.5)

    def test_relative_size_sane(self, community_graph):
        dyn = _dynamic(community_graph)
        assert 0 < dyn.relative_size <= 1.0


class TestEdgeUpdates:
    def test_insert_then_query(self, paper_like_graph):
        dyn = _dynamic(paper_like_graph)
        assert not dyn.has_edge(0, 7)
        dyn.insert_edge(0, 7)
        assert dyn.has_edge(0, 7)
        assert 7 in dyn.neighbors(0)
        assert dyn.m == paper_like_graph.m + 1

    def test_delete_then_query(self, paper_like_graph):
        dyn = _dynamic(paper_like_graph)
        dyn.delete_edge(0, 2)
        assert not dyn.has_edge(0, 2)
        assert 2 not in dyn.neighbors(0)
        assert dyn.m == paper_like_graph.m - 1

    def test_delete_edge_covered_by_superedge(self, clique_graph):
        dyn = _dynamic(clique_graph)
        dyn.delete_edge(0, 1)
        assert not dyn.has_edge(0, 1)
        rep = dyn.to_representation()
        assert rep.reconstruct_edges() == clique_graph.edge_set() - {(0, 1)}

    def test_insert_cancels_removal_correction(self, clique_graph):
        dyn = _dynamic(clique_graph)
        cost_before = dyn.cost
        dyn.delete_edge(0, 1)
        dyn.insert_edge(0, 1)
        assert dyn.cost == cost_before
        assert dyn.to_graph() == clique_graph

    def test_delete_cancels_addition_correction(self, path_graph):
        dyn = _dynamic(path_graph)
        dyn.insert_edge(0, 5)
        dyn.delete_edge(0, 5)
        assert dyn.to_graph() == path_graph

    def test_duplicate_insert_rejected(self, triangle):
        dyn = _dynamic(triangle)
        with pytest.raises(ValueError, match="already exists"):
            dyn.insert_edge(0, 1)

    def test_missing_delete_rejected(self, path_graph):
        dyn = _dynamic(path_graph)
        with pytest.raises(ValueError, match="does not exist"):
            dyn.delete_edge(0, 5)

    def test_self_loop_rejected(self, triangle):
        dyn = _dynamic(triangle)
        with pytest.raises(ValueError, match="self-loop"):
            dyn.insert_edge(1, 1)

    def test_out_of_range_rejected(self, triangle):
        dyn = _dynamic(triangle)
        with pytest.raises(IndexError):
            dyn.insert_edge(0, 99)


class TestExactness:
    def test_random_update_sequence_stays_exact(self, community_graph):
        """The core contract: after any update sequence, the overlay
        reconstructs the evolved graph exactly."""
        dyn = _dynamic(community_graph)
        edges = set(community_graph.edge_set())
        rng = random.Random(7)
        universe = [
            (u, v)
            for u in range(community_graph.n)
            for v in range(u + 1, community_graph.n)
        ]
        for __ in range(300):
            u, v = universe[rng.randrange(len(universe))]
            if (u, v) in edges:
                dyn.delete_edge(u, v)
                edges.discard((u, v))
            else:
                dyn.insert_edge(u, v)
                edges.add((u, v))
        assert dyn.to_graph().edge_set() == edges
        for q in range(0, community_graph.n, 13):
            expected = {b if a == q else a for a, b in edges if q in (a, b)}
            assert dyn.neighbors(q) == expected

    def test_snapshot_is_verifiable(self, community_graph):
        dyn = _dynamic(community_graph)
        dyn.delete_edge(*next(iter(community_graph.edges())))
        verify_lossless(dyn.to_graph(), dyn.to_representation())


class TestRebuilds:
    def test_automatic_rebuild_fires(self):
        graph = planted_partition(100, 5, 0.8, 0.02, seed=3)
        dyn = _dynamic(graph, rebuild_factor=1.05)
        rng = random.Random(1)
        inserted = set()
        while dyn.num_rebuilds == 0 and len(inserted) < 2_000:
            u, v = rng.randrange(graph.n), rng.randrange(graph.n)
            if u != v and not dyn.has_edge(u, v):
                dyn.insert_edge(u, v)
                inserted.add((u, v))
        assert dyn.num_rebuilds >= 1

    def test_rebuild_preserves_graph(self, community_graph):
        dyn = _dynamic(community_graph)
        dyn.delete_edge(*next(iter(community_graph.edges())))
        before = dyn.to_graph()
        dyn.resummarize()
        assert dyn.to_graph() == before
        assert dyn.num_rebuilds == 1

    def test_rebuild_restores_compactness(self):
        """Structured drift inflates the correction set; a rebuild
        re-compacts.  Completing every community into a clique makes
        the evolved graph *more* compressible, but the frozen overlay
        can only express the new edges as corrections."""
        graph = planted_partition(120, 6, 0.6, 0.0, seed=5)
        dyn = _dynamic(graph, rebuild_factor=None)
        for u in range(graph.n):
            for v in range(u + 1, graph.n):
                if u % 6 == v % 6 and not dyn.has_edge(u, v):
                    dyn.insert_edge(u, v)
        drifted = dyn.cost
        dyn.resummarize()
        assert dyn.cost < drifted

    def test_no_auto_rebuild_when_disabled(self, community_graph):
        dyn = _dynamic(community_graph, rebuild_factor=None)
        for u, v in list(community_graph.edges())[:50]:
            dyn.delete_edge(u, v)
        assert dyn.num_rebuilds == 0


class TestLocalResummarize:
    def test_noop_when_clean(self, community_graph):
        dyn = _dynamic(community_graph)
        # Fresh summaries may carry corrections from the summarizer
        # itself; a clean state means no corrections at all.
        if dyn.to_representation().num_corrections == 0:
            assert dyn.resummarize_local() == 0

    def test_preserves_graph(self, community_graph):
        dyn = _dynamic(community_graph)
        dyn.delete_edge(*next(iter(community_graph.edges())))
        before = dyn.to_graph()
        processed = dyn.resummarize_local()
        assert processed >= 1
        assert dyn.to_graph() == before
        verify_lossless(dyn.to_graph(), dyn.to_representation())

    def test_recompacts_structured_drift(self):
        graph = planted_partition(120, 6, 0.6, 0.0, seed=5)
        dyn = _dynamic(graph, rebuild_factor=None)
        for u in range(graph.n):
            for v in range(u + 1, graph.n):
                if u % 6 == v % 6 and not dyn.has_edge(u, v):
                    dyn.insert_edge(u, v)
        drifted = dyn.cost
        dyn.resummarize_local()
        assert dyn.cost < drifted

    def test_counts_as_rebuild(self, community_graph):
        dyn = _dynamic(community_graph)
        dyn.delete_edge(*next(iter(community_graph.edges())))
        dyn.resummarize_local()
        assert dyn.num_rebuilds == 1

    def test_targets_subset_only_touches_selected_region(self):
        graph = planted_partition(120, 6, 0.6, 0.0, seed=5)
        dyn = _dynamic(graph, rebuild_factor=None)
        for u in range(graph.n):
            for v in range(u + 1, graph.n):
                if u % 6 == v % 6 and not dyn.has_edge(u, v):
                    dyn.insert_edge(u, v)
        before = dyn.to_graph()
        dirty = dyn.dirty_supernodes()
        assert dirty
        subset = sorted(dirty)[: max(1, len(dirty) // 3)]
        processed = dyn.resummarize_local(targets=subset)
        assert 0 < processed <= len(subset)
        assert dyn.to_graph() == before
        verify_lossless(dyn.to_graph(), dyn.to_representation())

    def test_unprocessed_dirtiness_carries_over(self):
        graph = planted_partition(120, 6, 0.6, 0.0, seed=5)
        dyn = _dynamic(graph, rebuild_factor=None)
        for u in range(graph.n):
            for v in range(u + 1, graph.n):
                if u % 6 == v % 6 and not dyn.has_edge(u, v):
                    dyn.insert_edge(u, v)
        dirty = dyn.dirty_supernodes()
        subset = sorted(dirty)[: max(1, len(dirty) // 3)]
        skipped_dirt = sum(
            count for sid, count in dirty.items() if sid not in subset
        )
        dyn.resummarize_local(targets=subset)
        remaining = dyn.dirty_supernodes()
        # Dirt on the untargeted region survives the pass (remapped to
        # the rebuilt ids), so the next pass still knows where to look.
        assert sum(remaining.values()) == skipped_dirt

    def test_merge_budget_caps_work(self):
        from repro.resilience.guard import ResourceBudget

        graph = planted_partition(120, 6, 0.6, 0.0, seed=5)
        dyn = _dynamic(graph, rebuild_factor=None)
        for u in range(graph.n):
            for v in range(u + 1, graph.n):
                if u % 6 == v % 6 and not dyn.has_edge(u, v):
                    dyn.insert_edge(u, v)
        before = dyn.to_graph()
        budget = ResourceBudget(max_merges=3)
        budget.start()
        dyn.resummarize_local(budget=budget)
        budget.stop()
        assert dyn.to_graph() == before
        verify_lossless(dyn.to_graph(), dyn.to_representation())


class TestDirtinessTracking:
    def test_mutations_mark_touched_supernodes(self, community_graph):
        dyn = _dynamic(community_graph)
        assert dyn.dirty_supernodes() == {}
        u, v = next(iter(community_graph.edges()))
        dyn.delete_edge(u, v)
        dirty = dyn.dirty_supernodes()
        assert dirty
        assert all(count >= 1 for count in dirty.values())

    def test_relative_size_infinite_when_empty_but_costly(self):
        # Deleting every edge of a clique leaves the super-node's
        # self-loop plus one removal per pair: m == 0 with cost > 0.
        import itertools

        edges = list(itertools.combinations(range(4), 2))
        dyn = _dynamic(Graph(4, edges), rebuild_factor=None)
        for u, v in edges:
            dyn.delete_edge(u, v)
        assert dyn.m == 0
        assert dyn.cost > 0
        # Worse than any graph's trivial encoding — never 0.0, which
        # would read as "perfectly compact".
        assert dyn.relative_size == float("inf")


_CHECK_BASE = (
    MagsDMSummarizer(iterations=6, seed=2)
    .summarize(planted_partition(24, 4, 0.6, 0.05, seed=9))
    .representation
)


def _overlay(rebuild_factor):
    return DynamicGraphSummary.from_representation(
        _CHECK_BASE,
        summarizer_factory=lambda: MagsDMSummarizer(iterations=4, seed=1),
        rebuild_factor=rebuild_factor,
    )


class TestCheckedBatches:
    """``EngineState.check`` + ``toggle_batch`` (one lookup per
    mutation) must equal ``insert_edge``/``delete_edge`` one by one."""

    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 23), st.integers(0, 23)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=1,
            max_size=40,
        ),
        rebuild_factor=st.sampled_from([None, 1.0, 1.3]),
    )
    def test_checked_batch_matches_single_updates(self, pairs, rebuild_factor):
        from repro.durability.state import EngineState

        edges = set(_CHECK_BASE.reconstruct_edges())
        batch = []
        for u, v in pairs:
            key = (min(u, v), max(u, v))
            batch.append(("-" if key in edges else "+", u, v))
            edges ^= {key}
        checked, single = _overlay(rebuild_factor), _overlay(rebuild_factor)
        states = EngineState(checked).check(batch)
        assert len(states) == len(batch)
        checked.toggle_batch(batch, states)
        for sign, u, v in batch:
            (single.insert_edge if sign == "+" else single.delete_edge)(u, v)
        assert checked.to_representation() == single.to_representation()
        assert checked.num_rebuilds == single.num_rebuilds
        assert checked.dirty_supernodes() == single.dirty_supernodes()
        assert set(checked.to_graph().edges()) == edges

    @pytest.mark.parametrize(
        "case",
        [
            lambda a, b: (
                [("+", a, b), ("+", b, a)],
                rf"#1: edge \({b}, {a}\) already exists",
            ),
            lambda a, b: (
                [("+", a, b), ("-", a, b), ("-", b, a)],
                rf"#2: edge \({b}, {a}\) does not exist",
            ),
            lambda a, b: ([("+", a, b), ("+", a, 24)], r"#1: node 24 out of range"),
            lambda a, b: ([("+", a, b), ("+", -1, a)], r"#1: node -1 out of range"),
            lambda a, b: ([("+", a, b), ("-", a, a)], r"#1 is a self-loop"),
        ],
        ids=["insert-existing", "delete-missing", "high", "negative", "loop"],
    )
    def test_check_names_first_bad_mutation(self, case):
        """The first failing mutation is named — counting the batch's
        own earlier flips — and the summary is left as it was."""
        from repro.durability.state import EngineState

        edges = set(_CHECK_BASE.reconstruct_edges())
        batch, message = case(*next(
            (u, v) for u in range(24) for v in range(u + 1, 24)
            if (u, v) not in edges
        ))
        dyn = _overlay(None)
        before = dyn.to_representation()
        with pytest.raises(ValueError, match=f"mutation {message}"):
            EngineState(dyn).check(batch)
        assert dyn.to_representation() == before
