"""Tests of the batched cost kernels and the differential harness.

The contract under test (see ``docs/performance.md``): every fast
path in :class:`SuperNodePartition` — the cached scalar methods and
the batched NumPy kernel ``savings_many`` — returns values that are
``==`` (bit-identical, not approximately equal) to the pure-Python
oracle in :mod:`repro.core.reference`, for any reachable partition
state; and sending every group to the kernel, or none (via
``KERNEL_MIN_GROUP``), never changes a summarizer's output.
"""

import sys
from pathlib import Path

import pytest

from repro.algorithms.greedy import GreedySummarizer
from repro.algorithms.mags import MagsSummarizer
from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.core import reference, supernodes
from repro.core.supernodes import SuperNodePartition
from repro.graph.generators import (
    caveman,
    erdos_renyi,
    planted_partition,
)

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
import diff_fuzz  # noqa: E402


@pytest.fixture
def merged_partition():
    graph = planted_partition(48, 6, 0.7, 0.05, seed=3)
    partition = SuperNodePartition(graph)
    for u in range(0, 16, 2):
        partition.merge(partition.find(u), partition.find(u + 1))
    return partition


@pytest.fixture
def scalar_only(monkeypatch):
    """Force the scalar fallback for the duration of a test."""
    monkeypatch.setattr(supernodes, "KERNEL_MIN_GROUP", sys.maxsize)


def _candidate_pairs(partition):
    """All 2-hop pairs, grouped by first endpoint."""
    pairs = []
    for u in sorted(partition.roots()):
        two_hop = set()
        for x in partition.weights(u):
            two_hop.update(partition.weights(x))
        two_hop.discard(u)
        pairs.extend((u, v) for v in sorted(two_hop))
    return pairs


def _groups_by_first(pairs):
    """``[(u, [v, ...]), ...]`` runs of consecutive pairs sharing ``u``."""
    groups = []
    for u, v in pairs:
        if groups and groups[-1][0] == u:
            groups[-1][1].append(v)
        else:
            groups.append((u, [v]))
    return groups


class TestSavingsMany:
    def test_empty(self, merged_partition):
        assert merged_partition.savings_many([]) == []

    def test_order_preserved(self, merged_partition):
        pairs = _candidate_pairs(merged_partition)[:20]
        pairs = pairs[::-1]  # deliberately not grouped/sorted
        batch = merged_partition.savings_many(pairs)
        assert batch == [
            merged_partition.saving(u, v) for u, v in pairs
        ]

    def test_matches_scalar_everywhere(self, merged_partition):
        pairs = _candidate_pairs(merged_partition)
        batch = merged_partition.savings_many(pairs)
        scalar = [merged_partition.saving(u, v) for u, v in pairs]
        assert batch == scalar

    def test_matches_reference_bit_identical(self, merged_partition):
        pairs = _candidate_pairs(merged_partition)
        batch = merged_partition.savings_many(pairs)
        oracle = reference.savings_many(merged_partition, pairs)
        assert batch == oracle  # ==, never pytest.approx

    def test_disconnected_pair(self, merged_partition):
        roots = sorted(merged_partition.roots())
        u = roots[0]
        far = [v for v in roots if v not in merged_partition.weights(u)]
        far = [
            v
            for v in far
            if not any(
                v in merged_partition.weights(x)
                for x in merged_partition.weights(u)
            )
        ][:3]
        if not far:
            pytest.skip("graph too dense for a disconnected pair")
        pairs = [(u, v) for v in far]
        assert merged_partition.savings_many(pairs) == [
            reference.saving(merged_partition, u, v) for v in far
        ]

    def test_self_pair_rejected(self, merged_partition):
        u = next(iter(merged_partition.roots()))
        with pytest.raises(ValueError):
            merged_partition.savings_many([(u, u)])

    def test_scalar_fallback_path(self, merged_partition, scalar_only):
        pairs = _candidate_pairs(merged_partition)[:16]
        assert merged_partition.savings_many(
            pairs
        ) == reference.savings_many(merged_partition, pairs)

    def test_repeated_pairs_and_mixed_groups(self, merged_partition):
        pairs = _candidate_pairs(merged_partition)[:6]
        weird = pairs + pairs[::-1] + [pairs[0]] * 3
        assert merged_partition.savings_many(
            weird
        ) == reference.savings_many(merged_partition, weird)


class TestGroupDispatch:
    """Groups below ``KERNEL_MIN_GROUP`` take the scalar loop, wider
    ones the NumPy kernel; both must match the oracle exactly."""

    @pytest.fixture
    def wide_partition(self):
        graph = planted_partition(160, 4, 0.5, 0.02, seed=5)
        partition = SuperNodePartition(graph)
        for u in range(0, 24, 2):
            partition.merge(partition.find(u), partition.find(u + 1))
        return partition

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Group sizes handed to ``_savings_group``, in call order."""
        calls = []
        original = SuperNodePartition._savings_group

        def counting(self, u, vs):
            calls.append(len(vs))
            return original(self, u, vs)

        monkeypatch.setattr(SuperNodePartition, "_savings_group", counting)
        return calls

    def _group(self, partition, size):
        for u, vs in _groups_by_first(_candidate_pairs(partition)):
            if len(vs) >= size:
                return [(u, v) for v in vs[:size]]
        pytest.fail(f"no root has {size} two-hop candidates")

    @pytest.mark.parametrize("offset", [-1, 0], ids=["below", "at"])
    def test_crossover_boundary(self, wide_partition, kernel_calls, offset):
        size = supernodes.KERNEL_MIN_GROUP + offset
        pairs = self._group(wide_partition, size)
        assert wide_partition.savings_many(
            pairs
        ) == reference.savings_many(wide_partition, pairs)
        assert kernel_calls == ([size] if offset == 0 else [])

    def test_unsorted_mix_of_small_and_wide_groups(
        self, wide_partition, kernel_calls
    ):
        wide = self._group(wide_partition, supernodes.KERNEL_MIN_GROUP + 5)
        small = [
            (u, v)
            for u, vs in _groups_by_first(_candidate_pairs(wide_partition))
            if u != wide[0][0]
            for v in vs[:3]
        ][:30]
        pairs = small[:15] + wide + small[15:][::-1]
        assert wide_partition.savings_many(
            pairs
        ) == reference.savings_many(wide_partition, pairs)
        assert kernel_calls == [len(wide)]

    def test_mags_dm_shortlists_stay_scalar(self, kernel_calls):
        graph = planted_partition(60, 6, 0.65, 0.04, seed=13)
        MagsDMSummarizer(iterations=8).summarize(graph)
        assert kernel_calls == []

    def test_greedy_sweeps_use_the_kernel(self, wide_partition, kernel_calls):
        GreedySummarizer().summarize(wide_partition.graph)
        assert kernel_calls
        assert min(kernel_calls) >= supernodes.KERNEL_MIN_GROUP


class TestDifferentialAfterMerges:
    @pytest.mark.parametrize(
        "graph",
        [
            erdos_renyi(40, 0.12, seed=11),
            caveman(5, 6, seed=1),
            planted_partition(42, 7, 0.7, 0.03, seed=9),
        ],
        ids=["erdos_renyi", "caveman", "planted"],
    )
    def test_total_cost_and_savings_track_reference(self, graph):
        partition = SuperNodePartition(graph)
        for step in range(10):
            pairs = _candidate_pairs(partition)
            if not pairs:
                break
            assert partition.savings_many(
                pairs
            ) == reference.savings_many(partition, pairs)
            u, v = pairs[step % len(pairs)]
            partition.merge(u, v)
            partition.check_invariants()
            assert partition.total_cost() == reference.total_cost(
                partition
            )


class TestKernelSwapBitIdentity:
    """Summaries must be identical with every group on the scalar loop
    and with every group on the kernel."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MagsSummarizer(iterations=8),
            lambda: MagsSummarizer(iterations=8, candidate_method="naive"),
            lambda: GreedySummarizer(),
            lambda: MagsDMSummarizer(iterations=8),
        ],
        ids=["mags_minhash", "mags_naive", "greedy", "mags_dm"],
    )
    def test_summary_identical_across_kernel_swap(self, make, monkeypatch):
        graph = planted_partition(60, 6, 0.65, 0.04, seed=13)
        monkeypatch.setattr(supernodes, "KERNEL_MIN_GROUP", sys.maxsize)
        slow = make().summarize(graph).representation
        monkeypatch.setattr(supernodes, "KERNEL_MIN_GROUP", 1)
        fast = make().summarize(graph).representation
        assert fast.supernodes == slow.supernodes
        assert fast.summary_edges == slow.summary_edges
        assert fast.additions == slow.additions
        assert fast.removals == slow.removals


class TestDiffFuzzSmoke:
    def test_a_few_seeds_pass(self):
        comparisons = diff_fuzz.run(3)
        assert comparisons["kernel"] > 0
        assert comparisons["scalar"] > 0

    def test_cli_reports_clean_run(self, capsys):
        assert diff_fuzz.main(["--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 mismatches" in out
        assert "kernel 0," not in out and "scalar 0," not in out
