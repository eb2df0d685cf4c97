"""Tests for Mags-DM (Section 4) and its strategy ablations."""

import hashlib
import random

import pytest

import numpy as np

from repro.algorithms import mags_dm
from repro.algorithms._dm_common import divide_recursive, shuffled_rows
from repro.algorithms.mags_dm import (
    MagsDMSummarizer,
    agreement_matrix,
    agreement_with,
)
from repro.algorithms.sweg import SWeGSummarizer
from repro.core.minhash import MinHashSignatures
from repro.core.serialization import save_representation
from repro.core.verify import verify_lossless
from repro.graph.generators import planted_partition, templated_web
from repro.graph.graph import Graph
from repro.resilience import (
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    use_injector,
)


class TestDividingStrategy:
    def test_groups_respect_size_cap(self):
        g = templated_web(300, 4, 30, 5, 0.0, seed=1)
        signatures = MinHashSignatures(g, 12, seed=1)
        rng = random.Random(0)
        groups = divide_recursive(
            list(g.nodes()), signatures, shuffled_rows(12, rng), 20
        )
        # Groups may exceed the cap only when the hash pool cannot
        # split them (identical signatures).
        for group in groups:
            if len(group) > 20:
                col0 = signatures.sig[:, group[0]]
                assert all(
                    (signatures.sig[:, v] == col0).all() for v in group
                )

    def test_no_singleton_groups(self, community_graph):
        signatures = MinHashSignatures(community_graph, 8, seed=2)
        groups = divide_recursive(
            list(community_graph.nodes()), signatures,
            shuffled_rows(8, random.Random(1)), 50,
        )
        assert all(len(group) >= 2 for group in groups)

    def test_twins_end_up_together(self, twin_graph):
        signatures = MinHashSignatures(twin_graph, 8, seed=3)
        groups = divide_recursive(
            list(twin_graph.nodes()), signatures,
            shuffled_rows(8, random.Random(1)), 4,
        )
        twin_together = 0
        for group in groups:
            for i in range(4):
                if 2 * i in group and 2 * i + 1 in group:
                    twin_together += 1
        assert twin_together >= 2


class TestParameters:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            MagsDMSummarizer(iterations=0)
        with pytest.raises(ValueError):
            MagsDMSummarizer(b=0)
        with pytest.raises(ValueError):
            MagsDMSummarizer(h=0)
        with pytest.raises(ValueError):
            MagsDMSummarizer(max_group_size=1)
        with pytest.raises(ValueError):
            MagsDMSummarizer(node_selection="best")
        with pytest.raises(ValueError):
            MagsDMSummarizer(similarity="cosine")
        with pytest.raises(ValueError):
            MagsDMSummarizer(threshold="fixed")
        with pytest.raises(TypeError):
            MagsDMSummarizer(workers=2)

    def test_params_recorded(self, twin_graph):
        result = MagsDMSummarizer(iterations=3, b=4, h=16).summarize(
            twin_graph
        )
        assert result.params["b"] == 4
        assert result.params["h"] == 16
        assert result.params["T"] == 3


class TestMagsDM:
    def test_clique_collapses(self, clique_graph):
        result = MagsDMSummarizer(iterations=6).summarize(clique_graph)
        assert result.representation.num_supernodes == 1

    def test_twins_merged(self, twin_graph):
        result = MagsDMSummarizer(iterations=6).summarize(twin_graph)
        rep = result.representation
        merged = sum(
            rep.supernode_of(2 * i) == rep.supernode_of(2 * i + 1)
            for i in range(4)
        )
        assert merged >= 3

    def test_group_stats_collected(self, community_graph):
        dm = MagsDMSummarizer(iterations=5)
        dm.summarize(community_graph)
        assert len(dm.last_group_sizes) == 5

    def test_close_to_mags_compactness(self):
        """Paper: Mags-DM within ~2.1% of Greedy on small graphs."""
        from repro.algorithms.mags import MagsSummarizer

        g = planted_partition(150, 10, 0.7, 0.02, seed=8)
        mags = MagsSummarizer(iterations=20).summarize(g)
        dm = MagsDMSummarizer(iterations=20).summarize(g)
        assert dm.cost <= mags.cost * 1.15


class TestAblations:
    @pytest.fixture(scope="class")
    def web_graph(self):
        return templated_web(400, 20, 50, 6, 0.1, seed=11)

    def test_no_dividing_strategy_runs(self, web_graph):
        result = MagsDMSummarizer(
            iterations=6, dividing_strategy=False
        ).summarize(web_graph)
        verify_lossless(web_graph, result.representation)

    def test_super_jaccard_variant_runs(self, web_graph):
        result = MagsDMSummarizer(
            iterations=6, similarity="super_jaccard"
        ).summarize(web_graph)
        verify_lossless(web_graph, result.representation)

    def test_theta_threshold_variant_runs(self, web_graph):
        result = MagsDMSummarizer(
            iterations=6, threshold="theta"
        ).summarize(web_graph)
        verify_lossless(web_graph, result.representation)

    def test_top1_selection_variant_runs(self, web_graph):
        result = MagsDMSummarizer(
            iterations=6, node_selection="top_1"
        ).summarize(web_graph)
        verify_lossless(web_graph, result.representation)

    def test_full_strategies_not_worse_than_none(self, web_graph):
        """Figures 9/10: the merging+dividing strategies should not
        lose to the SWeG-equivalent configuration."""
        full = MagsDMSummarizer(iterations=8, seed=4).summarize(web_graph)
        stripped = MagsDMSummarizer(
            iterations=8,
            seed=4,
            dividing_strategy=False,
            node_selection="top_1",
            similarity="super_jaccard",
            threshold="theta",
        ).summarize(web_graph)
        assert full.cost <= stripped.cost * 1.05

    def test_against_real_sweg(self, web_graph):
        """Mags-DM must be at least as compact as SWeG at equal T."""
        dm = MagsDMSummarizer(iterations=8, seed=4).summarize(web_graph)
        sweg = SWeGSummarizer(iterations=8, seed=4).summarize(web_graph)
        assert dm.cost <= sweg.cost * 1.05


class TestEdgeCases:
    def test_empty_graph(self):
        result = MagsDMSummarizer(iterations=3).summarize(Graph(0, []))
        assert result.cost == 0

    def test_edgeless_graph(self):
        result = MagsDMSummarizer(iterations=3).summarize(Graph(5, []))
        assert result.cost == 0
        assert result.representation.num_supernodes == 5

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        result = MagsDMSummarizer(iterations=3).summarize(g)
        verify_lossless(g, result.representation)


class TestAgreementMatrixDtype:
    """Boundary tests for the int16 -> int32 promotion at h > 32767.

    Agreement counts go up to ``h``; with int16 accumulation an
    ``h = 32768`` group of identical columns would wrap to -32768 and
    demote perfectly similar pairs below every dissimilar one.
    """

    @staticmethod
    def _identical_cols(h, size=3):
        # All columns equal: every off-diagonal count must equal h.
        return np.tile(np.arange(h, dtype=np.uint64)[:, None], (1, size))

    def test_int16_at_boundary(self):
        h = np.iinfo(np.int16).max  # 32767: largest safe h for int16
        matrix = agreement_matrix(self._identical_cols(h))
        assert matrix.dtype == np.int16
        assert matrix[0, 1] == h
        assert (np.diagonal(matrix) == -1).all()

    def test_int32_above_boundary(self):
        h = np.iinfo(np.int16).max + 1  # 32768 would wrap in int16
        matrix = agreement_matrix(self._identical_cols(h))
        assert matrix.dtype == np.int32
        assert matrix[0, 1] == h  # not -32768
        assert (np.diagonal(matrix) == -1).all()

    def test_counts_correct_for_mixed_columns(self):
        h = 6
        cols = np.zeros((h, 3), dtype=np.uint64)
        cols[:, 1] = np.arange(h)  # agrees with col 0 only in row 0
        cols[:, 2] = 7  # agrees with nothing
        matrix = agreement_matrix(cols)
        assert matrix[0, 1] == matrix[1, 0] == 1
        assert matrix[0, 2] == matrix[2, 0] == 0
        assert matrix[1, 2] == matrix[2, 1] == 0

    def test_agreement_with_matches_matrix_column(self):
        rng = np.random.default_rng(5)
        cols = rng.integers(0, 4, size=(9, 6)).astype(np.uint64)
        matrix = agreement_matrix(cols)
        for index in range(cols.shape[1]):
            column = agreement_with(cols, index, matrix.dtype)
            assert column.dtype == matrix.dtype
            expected = matrix[:, index].copy()
            expected[index] = cols.shape[0]  # matrix pins diagonal to -1
            assert (column == expected).all()

    def test_large_h_summarize_smoke(self):
        # End to end with h just over the boundary on a tiny graph:
        # slow-ish (32768-row signatures) but well under a second.
        g = planted_partition(12, 3, 0.9, 0.05, seed=2)
        result = MagsDMSummarizer(iterations=2, h=32768).summarize(g)
        verify_lossless(g, result.representation)


#: A 200-node web analog.  With ``max_group_size=6`` and a deep
#: recursion every group it divides into has at most b + 1 = 6 nodes;
#: with the default cap each iteration's one group is all the roots.
_WEB = dict(n=200, templates=10, hubs=20, template_size=6,
            mutation=0.2, seed=7)
_SMALL_GROUPS = dict(max_group_size=6, max_depth=40)


def _digest(result, path) -> str:
    """sha256 of the saved summary's bytes and the merge count."""
    save_representation(path, result.representation)
    digest = hashlib.sha256(path.read_bytes())
    digest.update(f"merges={result.num_merges}".encode())
    return digest.hexdigest()


def _resumed(graph, store, **params):
    """Crash a checkpointing run after iteration 3, then resume it."""
    injector = FaultInjector(
        FaultPlan().crash("summarize:iteration", after=3)
    )
    with use_injector(injector):
        with pytest.raises(InjectedFault):
            MagsDMSummarizer(**params).configure_checkpointing(
                store, interval=2
            ).summarize(graph)
    assert store.latest() is not None
    return MagsDMSummarizer(**params).configure_checkpointing(
        store, interval=2, resume=True
    ).summarize(graph)


class TestByteIdentity:
    """Summaries must not change under merge-loop rewrites.

    The digests were recorded from the NumPy-per-group merge loop
    (agreement matrix for every group, ``flatnonzero`` pivots), one
    case per path through ``_merge_group_minhash``; any change to the
    pivot draw, the shortlist or its tie order changes them.
    """

    CASES = {
        "small_groups": (
            _SMALL_GROUPS,
            "a09251676f124cfd2ef7c985b0a63299154d29d79d70c621ca30ba0598351049",
        ),
        "one_ranked_group": (
            dict(max_group_size=200),
            "a88e28abc4c2fee6159ab00ca6ab639a67d4b8b698c217ef042d9e691895a8a1",
        ),
        "top_1": (
            dict(node_selection="top_1"),
            "89a7d0d990f1f44bfa0be2ea2c5374a4a36513cc64b65bcfc3d775c40959deb5",
        ),
        # Shortlists of 30 pairs take the savings_many NumPy kernel.
        "kernel_shortlists": (
            dict(b=30),
            "b077c0e3905b516ae90f3d148845d52a0c28b16e54695ca970b84c48b124ebc1",
        ),
        "super_jaccard": (
            dict(similarity="super_jaccard"),
            "a69a72829c499aab4df9ed2c6c135c996259f5da018a64a8dec4e1a6e62b63ba",
        ),
    }
    #: A resumed run equals the uninterrupted one_ranked_group run.
    RESUMED = CASES["one_ranked_group"][1]

    @pytest.fixture(scope="class")
    def graph(self):
        return templated_web(**_WEB)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_summary_bytes_unchanged(self, graph, tmp_path, case):
        params, expected = self.CASES[case]
        result = MagsDMSummarizer(iterations=6, seed=3, **params).summarize(
            graph
        )
        assert _digest(result, tmp_path / "s.txt") == expected

    def test_resumed_summary_bytes_unchanged(self, graph, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        result = _resumed(graph, store, iterations=6, seed=3)
        assert _digest(result, tmp_path / "s.txt") == self.RESUMED


class TestSmallGroupPath:
    """Groups of at most b + 1 nodes never build an agreement matrix."""

    @staticmethod
    def _run_counting_matrices(monkeypatch, **params):
        """Summarize the test graph; returns (summarizer, matrices built)."""
        calls = []

        def counting(cols):
            calls.append(cols.shape[1])
            return agreement_matrix(cols)

        monkeypatch.setattr(mags_dm, "agreement_matrix", counting)
        dm = MagsDMSummarizer(iterations=6, seed=3, **params)
        dm.summarize(templated_web(**_WEB))
        return dm, len(calls)

    def test_small_groups_skip_the_matrix(self, monkeypatch):
        dm, built = self._run_counting_matrices(monkeypatch, **_SMALL_GROUPS)
        assert max(max(sizes) for sizes in dm.last_group_sizes) <= 6
        assert built == 0

    def test_ranked_group_builds_the_matrix(self, monkeypatch):
        dm, built = self._run_counting_matrices(monkeypatch)
        assert max(max(sizes) for sizes in dm.last_group_sizes) > 6
        assert built >= 1
