"""Tests for Figure 13's work-partition speedup model."""

import pytest

from repro.bench.experiments import lpt_partition, partition_speedup


class TestLptPartition:
    def test_makespan_within_lpt_bound(self):
        works = [5, 4, 3, 3, 3]
        assignment = lpt_partition(works, 2)
        loads = [sum(works[i] for i in bucket) for bucket in assignment]
        # Optimal makespan is 9 ({5,4} vs {3,3,3}); LPT guarantees
        # at most 4/3 of it.
        assert 9 <= max(loads) <= 12

    def test_every_item_assigned_once(self):
        assignment = lpt_partition([1.0] * 7, 3)
        flat = sorted(i for bucket in assignment for i in bucket)
        assert flat == list(range(7))

    def test_single_worker(self):
        assignment = lpt_partition([2, 1], 1)
        assert sorted(assignment[0]) == [0, 1]

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            lpt_partition([1], 0)

    def test_empty_work(self):
        assert lpt_partition([], 3) == [[], [], []]


class TestPartitionSpeedup:
    def test_single_worker_is_one(self):
        assert partition_speedup([3, 2, 1], 1) == 1.0

    def test_perfectly_parallel_work(self):
        speedup = partition_speedup([1.0] * 100, 10)
        assert speedup == pytest.approx(10.0, rel=0.01)

    def test_one_giant_item_limits_speedup(self):
        # One item holds 50% of the work: speedup can't pass 2.
        speedup = partition_speedup([50.0] + [1.0] * 50, 100)
        assert speedup < 2.01

    def test_sync_overhead_reduces_speedup(self):
        free = partition_speedup([1.0] * 100, 10)
        taxed = partition_speedup([1.0] * 100, 10, sync_overhead=10.0)
        assert taxed < free

    def test_serial_fraction_caps_speedup(self):
        # Amdahl: 20% serial caps speedup below 5 regardless of p.
        speedup = partition_speedup(
            [1.0] * 1000, 1000, serial_fraction=0.2
        )
        assert speedup < 5.1

    def test_zero_work(self):
        assert partition_speedup([], 4) == 1.0

    def test_monotone_in_workers(self):
        works = [float(w) for w in range(1, 40)]
        speedups = [partition_speedup(works, p) for p in (1, 2, 4, 8)]
        assert all(a <= b + 1e-9 for a, b in zip(speedups, speedups[1:]))
