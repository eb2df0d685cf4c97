"""Traces of real summarizer runs: phase names, order, accounting.

These tests pin the contract the paper's ablation figures rely on:
every algorithm's trace decomposes into the documented phases, phase
wall-times approximately account for the whole run, and iteration
progress events are present.
"""

import pytest

from repro import obs
from repro.algorithms.greedy import GreedySummarizer
from repro.algorithms.mags import MagsSummarizer
from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.graph import generators


@pytest.fixture(autouse=True)
def restore_global_tracer():
    yield
    obs.stop_tracing()


@pytest.fixture
def graph():
    return generators.planted_partition(120, 8, 0.7, 0.03, seed=7)


def run_traced(summarizer, graph):
    tracer = obs.Tracer()
    with obs.use_tracer(tracer):
        result = summarizer.summarize(graph)
    return result, tracer.records()


def phase_sequence(records):
    """Phase names in start order (duplicates collapsed in order)."""
    spans = sorted(
        (r for r in records if r["name"].startswith("phase:")),
        key=lambda r: r["start_unix"],
    )
    out = []
    for record in spans:
        phase = record["attrs"]["phase"]
        if not out or out[-1] != phase:
            out.append(phase)
    return out


class TestMagsTrace:
    def test_phases_in_order(self, graph):
        __, records = run_traced(MagsSummarizer(iterations=3), graph)
        assert phase_sequence(records) == [
            "candidate_generation", "greedy_merge", "output",
        ]

    def test_root_span_attrs_and_counters(self, graph):
        result, records = run_traced(MagsSummarizer(iterations=3), graph)
        (root,) = [r for r in records if r["name"] == "summarize:Mags"]
        assert root["parent"] is None
        assert root["attrs"]["n"] == graph.n
        assert root["attrs"]["relative_size"] == pytest.approx(
            result.relative_size
        )
        assert root["counters"]["merges"] == result.num_merges

    def test_phase_walls_sum_to_total(self, graph):
        __, records = run_traced(MagsSummarizer(iterations=3), graph)
        (root,) = [r for r in records if r["name"] == "summarize:Mags"]
        phase_sum = sum(
            r["wall_s"] for r in records if r["name"].startswith("phase:")
        )
        total = root["wall_s"]
        assert phase_sum <= total + 1e-6
        assert abs(total - phase_sum) <= max(0.10 * total, 0.02)

    def test_iteration_events(self, graph):
        __, records = run_traced(MagsSummarizer(iterations=3), graph)
        merge_spans = [
            r for r in records
            if r["attrs"].get("phase") == "greedy_merge"
        ]
        events = [e for r in merge_spans for e in r["events"]]
        iteration_events = [e for e in events if e["name"] == "iteration"]
        assert iteration_events
        first = iteration_events[0]["attrs"]
        assert {"t", "threshold", "merges", "total_merges"} <= set(first)
        cg_spans = [
            r for r in records
            if r["attrs"].get("phase") == "candidate_generation"
        ]
        cg_events = [e for r in cg_spans for e in r["events"]]
        assert any(
            e["name"] == "candidates_generated" and e["attrs"]["pairs"] > 0
            for e in cg_events
        )

    def test_trace_validates(self, graph):
        __, records = run_traced(MagsSummarizer(iterations=3), graph)
        assert obs.validate_trace(records) == []


class TestMagsDMTrace:
    def test_phases_cover_all_and_order(self, graph):
        __, records = run_traced(MagsDMSummarizer(iterations=3), graph)
        sequence = phase_sequence(records)
        assert sequence[0] == "signatures"
        assert sequence[-1] == "output"
        assert set(sequence) == {"signatures", "divide", "merge", "output"}
        # Rounds alternate divide -> merge.
        middle = sequence[1:-1]
        assert middle == ["divide", "merge"] * (len(middle) // 2)

    def test_phase_walls_sum_to_total(self, graph):
        __, records = run_traced(MagsDMSummarizer(iterations=3), graph)
        (root,) = [r for r in records if r["name"] == "summarize:Mags-DM"]
        phase_sum = sum(
            r["wall_s"] for r in records if r["name"].startswith("phase:")
        )
        total = root["wall_s"]
        assert phase_sum <= total + 1e-6
        assert abs(total - phase_sum) <= max(0.10 * total, 0.02)

    def test_iteration_events_track_merges(self, graph):
        result, records = run_traced(MagsDMSummarizer(iterations=3), graph)
        events = [
            e
            for r in records
            if r["attrs"].get("phase") == "merge"
            for e in r["events"]
            if e["name"] == "iteration"
        ]
        assert len(events) == 3
        assert events[-1]["attrs"]["total_merges"] == result.num_merges
        assert all(
            {"t", "threshold", "groups", "candidates"} <= set(e["attrs"])
            for e in events
        )

    def test_phase_totals_match_result_phase_seconds(self, graph):
        result, records = run_traced(MagsDMSummarizer(iterations=3), graph)
        totals = obs.phase_totals(records)
        assert set(totals) == set(result.phase_seconds)
        for phase, seconds in totals.items():
            assert seconds == pytest.approx(
                result.phase_seconds[phase], rel=0.5, abs=0.02
            )


class TestRegistryRecording:
    def test_run_metrics_land_in_global_registry(self, graph):
        registry = obs.get_registry()
        registry.clear()
        try:
            result, __ = run_traced(GreedySummarizer(), graph)
            runs = registry.counter(
                "repro_summarize_runs_total", algorithm="Greedy"
            )
            merges = registry.counter(
                "repro_merges_total", algorithm="Greedy"
            )
            assert runs.value == 1
            assert merges.value == result.num_merges
            seconds = registry.histogram(
                "repro_summarize_seconds", algorithm="Greedy"
            )
            assert seconds.count == 1
            phase_families = registry.family("repro_phase_seconds")
            phases = {labels["phase"] for labels, __ in phase_families}
            assert "merge" in phases
        finally:
            registry.clear()

    def test_untraced_run_records_nothing(self, graph):
        registry = obs.get_registry()
        registry.clear()
        try:
            GreedySummarizer().summarize(graph)
            assert len(registry) == 0
        finally:
            registry.clear()
