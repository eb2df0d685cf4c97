"""Tests for the bench-results summary tool."""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import summarize_bench_results as tool  # noqa: E402


@pytest.fixture
def fake_results(tmp_path):
    (tmp_path / "fig4_compactness_small.txt").write_text(
        "Figures 4/6: small graphs (T=20)\n"
        "================================\n"
        "dataset  algorithm  relative_size\n"
        "---------------------------------\n"
        "CA       Mags       0.7000\n"
        "CA       Greedy     0.6900\n"
        "CA       LDME       0.8000\n"
    )
    return tmp_path


class TestRowParser:
    def test_parses_data_rows_only(self, fake_results):
        rows = tool.rows(
            "fig4_compactness_small",
            ["dataset", "algorithm", "rel"],
            results=fake_results,
        )
        assert len(rows) == 3
        assert rows[0] == {"dataset": "CA", "algorithm": "Mags", "rel": 0.7}

    def test_skips_chart_sections(self, tmp_path):
        (tmp_path / "x.txt").write_text(
            "dataset  algorithm  v\n"
            "A        a          1.0\n"
            "dataset=A\n"
            "  a  ##### 1.0\n"
        )
        rows = tool.rows("x", ["dataset", "algorithm", "v"], results=tmp_path)
        assert len(rows) == 1

    def test_none_for_missing_values(self, tmp_path):
        (tmp_path / "y.txt").write_text("UK  Slugger  -\n")
        rows = tool.rows("y", ["dataset", "algorithm", "v"], results=tmp_path)
        assert rows[0]["v"] is None


class TestAggregates:
    def test_gmean(self):
        assert tool.gmean([2.0, 8.0]) == pytest.approx(4.0)

    def test_cell_index(self, fake_results):
        rows = tool.rows(
            "fig4_compactness_small",
            ["dataset", "algorithm", "rel"],
            results=fake_results,
        )
        table = tool.cell(rows, "rel")
        assert table[("CA", "Greedy")] == pytest.approx(0.69)


import perf_gate  # noqa: E402


class TestPerfGateEvaluate:
    """The gate's pure comparison logic, on synthetic measurements."""

    TIMES = {
        "test_micro_encode": 0.010,
        perf_gate.SCALAR_BENCH: 0.020,
        perf_gate.BATCHED_BENCH: 0.008,
        perf_gate.SHORTLIST_SCALAR_BENCH: 0.0014,
        perf_gate.SHORTLIST_BENCH: 0.0015,
    }

    def _benches(self):
        return dict(self.TIMES)

    def _baseline(self):
        return {
            "benchmarks": {
                name: {"ref_s": ref_s} for name, ref_s in self.TIMES.items()
            }
        }

    def test_identical_run_passes(self):
        failures, _ = perf_gate.evaluate(self._benches(), self._baseline())
        assert failures == []

    def test_regression_beyond_threshold_fails(self):
        benches = self._benches()
        benches["test_micro_encode"] *= 1.4
        failures, lines = perf_gate.evaluate(
            benches, self._baseline(), threshold=0.25
        )
        assert any("test_micro_encode" in f for f in failures)
        assert any("REGRESSION" in line for line in lines)

    def test_calibration_normalizes_across_machines(self):
        # A twice-slower host: a round of 2 wall seconds between probes
        # of twice the reference length is 1 reference second.
        class Probe:
            def __init__(self, seconds):
                self.seconds = seconds

            def sample(self, count):
                return self.seconds

        def clock_of(ticks):
            ticks = iter(ticks)
            return lambda: next(ticks)

        fast = perf_gate.ReferenceClock(
            Probe(perf_gate.REFERENCE_PROBE_S), clock_of([0, 0, 1, 1])
        )
        slow = perf_gate.ReferenceClock(
            Probe(2 * perf_gate.REFERENCE_PROBE_S), clock_of([0, 0, 2, 2])
        )
        assert fast() == slow() == 0.0
        assert fast() == slow() == pytest.approx(1.0)

    def test_speedup_floor_enforced(self):
        benches = self._benches()
        benches[perf_gate.BATCHED_BENCH] = benches[perf_gate.SCALAR_BENCH]
        failures, _ = perf_gate.evaluate(
            benches, self._baseline(), min_speedup=1.5
        )
        assert any("speedup" in f for f in failures)

    def test_shortlist_floor_enforced(self):
        # The NumPy kernel on 5-pair groups: ~0.3x the scalar loop.
        benches = self._benches()
        benches[perf_gate.SHORTLIST_BENCH] = (
            benches[perf_gate.SHORTLIST_SCALAR_BENCH] / 0.3
        )
        failures, _ = perf_gate.evaluate(benches, self._baseline())
        assert any("shortlist ratio" in f for f in failures)

    def test_new_and_missing_benches_do_not_fail(self):
        benches = self._benches()
        benches["test_micro_brand_new"] = 0.5
        del benches["test_micro_encode"]
        failures, lines = perf_gate.evaluate(benches, self._baseline())
        assert failures == []
        assert any("(new bench)" in line for line in lines)
        assert any("(baseline only)" in line for line in lines)

    def test_missing_speedup_benches_fail(self):
        failures, _ = perf_gate.evaluate(
            {"test_micro_encode": 0.010}, self._baseline()
        )
        assert any("speedup benches missing" in f for f in failures)
        assert any("shortlist ratio benches missing" in f for f in failures)

    def test_committed_baseline_parses(self):
        if not perf_gate.DEFAULT_BASELINE.exists():
            pytest.skip("baseline not generated yet")
        import json

        with open(perf_gate.DEFAULT_BASELINE) as handle:
            baseline = json.load(handle)
        assert all(b["ref_s"] > 0 for b in baseline["benchmarks"].values())
        assert perf_gate.BATCHED_BENCH in baseline["benchmarks"]
        assert perf_gate.SCALAR_BENCH in baseline["benchmarks"]
