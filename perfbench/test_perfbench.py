"""The benchmark's own tests: metric names and units in a quick run of
every workload, and a planted fault for every correctness check.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import checks, inputs, workloads
from perfbench.run import ROOT, SRC

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

#: The per-layer metrics each workload reports as 0, because it makes
#: no call into their layer: no Mags run, no server, no WAL.
BYPASSED = {
    "summarize": set(workloads.WITHOUT_SERVER) | set(workloads.WITHOUT_WAL),
    "read": set(workloads.WITHOUT_MAGS) | set(workloads.WITHOUT_WAL),
    "ingest": set(workloads.WITHOUT_MAGS),
}
QUICK_SECONDS = 1


def _run(tmp_cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_workloads_are_the_ones_run():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    bypassable = {
        **workloads.WITHOUT_MAGS, **workloads.WITHOUT_SERVER, **workloads.WITHOUT_WAL
    }
    assert set(bypassable.items()) <= {(name, UNITS[name]) for name in PER_LAYER}
    assert all(unit not in ("s", "ms", "us") for unit in bypassable.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_quick_run_reports_every_declared_metric(workload, trace):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "3",
        "--seconds", str(QUICK_SECONDS), "--trace", str(trace), "--quick",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    zero = BYPASSED[workload] if trace else set()
    for name, value in result["metrics"].items():
        assert set(value) == {"value", "unit"}
        assert value["unit"] == UNITS[name], name
        assert isinstance(value["value"], (int, float)), name
        assert (value["value"] == 0) == (name in zero), name
    assert "diagnostics" in json.loads(lines[-2])


def test_undeclared_metrics_print_no_result(monkeypatch, capsys):
    from perfbench import run

    def one_metric(*args, **kwargs):
        return workloads.Outcome(metrics={"setup_s": workloads.metric(1.0, "s")})

    monkeypatch.setattr(workloads, "run_workload", one_metric)
    assert run.main(["--workload", "read", "--seed", "1", "--seconds", "1"]) != 0
    assert '"correct"' not in capsys.readouterr().out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(
        tmp_path, "--workload", "read", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _quick(name: str, tmp_path):
    return workloads.run_workload(
        name, SRC, tmp_path / "work", seed=5, seconds=QUICK_SECONDS,
        traced=False, quick=True,
    )


def test_corrupted_summary_artifact_is_caught(tmp_path, monkeypatch):
    save = workloads.save_representation

    def save_corrupted(path, rep):
        rep.additions.discard(min(rep.additions))
        save(path, rep)

    monkeypatch.setattr(workloads, "save_representation", save_corrupted)
    outcome = _quick("read", tmp_path)
    assert not outcome.correct
    assert any(e.startswith("served artifact") for e in outcome.errors)


def test_dropped_acked_mutation_is_caught(tmp_path, monkeypatch):
    apply = inputs.apply_batches

    def apply_all_but_one(edges, batches):
        return apply(edges, batches[:-1] + [batches[-1][1:]])

    monkeypatch.setattr(inputs, "apply_batches", apply_all_but_one)
    outcome = _quick("ingest", tmp_path)
    assert not outcome.correct
    assert any(e.startswith("neighbors(") for e in outcome.errors)


def test_wrong_neighbor_set_is_caught(tmp_path, monkeypatch):
    served = workloads._served_neighbors

    def one_wrong(server, nodes):
        lines = served(server, nodes)
        response = json.loads(lines[0])
        response["result"] = response["result"][1:] + [max(nodes) + 10**6]
        lines[0] = (json.dumps(response) + "\n").encode()
        return lines

    monkeypatch.setattr(workloads, "_served_neighbors", one_wrong)
    outcome = _quick("read", tmp_path)
    assert not outcome.correct
    assert any(e.startswith("neighbors(") for e in outcome.errors)


def test_lossless_check_catches_a_dropped_correction():
    graph = inputs.make_graph(1, quick=True)
    rep = workloads.MagsDMSummarizer(iterations=3, seed=1).summarize(graph).representation
    checks.check_lossless("ok", rep, graph.edge_set())
    rep.additions.discard(min(rep.additions))
    with pytest.raises(checks.CheckFailed):
        checks.check_lossless("planted", rep, graph.edge_set())


def test_pagerank_check_catches_a_wrong_rank():
    ranks = np.ones(10)
    checks.check_pagerank(ranks, ranks.copy())
    wrong = ranks.copy()
    wrong[3] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_pagerank(wrong, ranks)


def test_mutation_script_is_seeded_and_valid():
    graph = inputs.make_graph(2, quick=True)
    script = list(itertools.islice(inputs.mutation_batches(graph, 2), 200))
    assert script == list(itertools.islice(inputs.mutation_batches(graph, 2), 200))
    base = edges = graph.edge_set()
    for batch in script:
        assert len({(min(u, v), max(u, v)) for _, u, v in batch}) == len(batch)
        for sign, u, v in batch:
            assert u != v
            assert ((min(u, v), max(u, v)) in edges) == (sign == "-")
        edges = inputs.apply_batches(edges, [batch])
        assert len(edges ^ base) <= inputs.BATCH_MUTATIONS // 2
    assert inputs.make_keys(graph, 50, 9) == inputs.make_keys(graph, 50, 9)
