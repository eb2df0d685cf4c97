"""Tests for the Summarizer base plumbing (timing, budgets, results)."""

import time

import pytest

from repro.algorithms.base import (
    PhaseTimer,
    SummaryResult,
    Summarizer,
)
from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.core.encoding import encode
from repro.core.supernodes import SuperNodePartition


class TestPhaseTimer:
    def test_accumulates_named_phases(self):
        timer = PhaseTimer()
        timer.start("a")
        time.sleep(0.01)
        timer.start("b")
        time.sleep(0.01)
        timer.stop()
        assert timer.phases["a"] > 0
        assert timer.phases["b"] > 0

    def test_same_phase_accumulates(self):
        timer = PhaseTimer()
        timer.start("x")
        time.sleep(0.005)
        timer.stop()
        first = timer.phases["x"]
        timer.start("x")
        time.sleep(0.005)
        timer.stop()
        assert timer.phases["x"] > first

    def test_stop_without_start_is_noop(self):
        timer = PhaseTimer()
        timer.stop()
        assert timer.phases == {}

    def test_no_budget_never_raises(self):
        PhaseTimer().check_budget()


class TestSummaryResult:
    def _result(self, graph):
        rep = encode(SuperNodePartition(graph))
        return SummaryResult(
            algorithm="Demo",
            representation=rep,
            runtime_seconds=1.5,
            num_merges=0,
        )

    def test_properties_delegate(self, triangle):
        result = self._result(triangle)
        assert result.cost == result.representation.cost
        assert result.relative_size == pytest.approx(1.0)

    def test_summary_line_format(self, triangle):
        line = self._result(triangle).summary_line()
        assert line.startswith("Demo:")
        assert "relative_size=" in line
        assert "time=1.500s" in line


class TestSummarizerPlumbing:
    def test_extra_metrics_reset_between_runs(self, triangle, clique_graph):
        """A summarizer reused across graphs must not leak extra
        metrics from the previous run."""
        from repro.algorithms.slugger import SluggerSummarizer

        summarizer = SluggerSummarizer(iterations=3, seed=1)
        first = summarizer.summarize(clique_graph)
        second = summarizer.summarize(triangle)
        assert first.extra_metrics is not second.extra_metrics

    def test_reuse_is_deterministic(self, community_graph):
        summarizer = MagsDMSummarizer(iterations=5, seed=2)
        a = summarizer.summarize(community_graph)
        b = summarizer.summarize(community_graph)
        assert a.cost == b.cost

    def test_abstract_base_not_instantiable(self):
        with pytest.raises(TypeError):
            Summarizer()
