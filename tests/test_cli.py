"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import ALGORITHMS, build_parser, main
from repro.graph.io import load_graph, save_graph
from repro.graph.generators import planted_partition


@pytest.fixture
def edge_file(tmp_path):
    graph = planted_partition(80, 5, 0.7, 0.05, seed=2)
    path = tmp_path / "graph.txt"
    save_graph(path, graph)
    return path, graph


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_summarize_defaults(self):
        args = build_parser().parse_args(["summarize", "g.txt"])
        assert args.algorithm == "mags-dm"
        assert args.iterations == 50
        assert args.epsilon == 0.0

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "summary.txt"])
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.workers == 8
        assert args.cache_size == 4096
        assert args.request_timeout == 10.0
        assert args.log_interval == 30.0

    def test_all_algorithms_registered(self):
        assert set(ALGORITHMS) == {
            "mags", "mags-dm", "greedy", "randomized",
            "sweg", "ldme", "slugger",
        }

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["summarize", "g.txt", "-a", "nope"])


class TestSummarize:
    def test_summarize_and_reconstruct(self, tmp_path, edge_file, capsys):
        path, graph = edge_file
        summary = tmp_path / "summary.txt"
        restored = tmp_path / "restored.txt"
        assert main([
            "summarize", str(path), "-a", "mags", "-T", "8",
            "-o", str(summary),
        ]) == 0
        assert "relative_size" in capsys.readouterr().out
        assert main(["reconstruct", str(summary), "-o", str(restored)]) == 0
        assert load_graph(restored) == graph

    def test_lossy_flag(self, tmp_path, edge_file, capsys):
        path, __ = edge_file
        assert main([
            "summarize", str(path), "-T", "8", "--epsilon", "0.3",
            "-o", str(tmp_path / "s.txt"),
        ]) == 0
        assert "lossy" in capsys.readouterr().out

    def test_no_verify_flag(self, edge_file):
        path, __ = edge_file
        assert main(["summarize", str(path), "-T", "4", "--no-verify"]) == 0


class TestOtherCommands:
    def test_stats(self, edge_file, capsys):
        path, graph = edge_file
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"{graph.n}" in out
        assert f"{graph.m}" in out

    def test_compare(self, edge_file, capsys):
        path, __ = edge_file
        assert main([
            "compare", str(path), "-a", "mags-dm,sweg", "-T", "5"
        ]) == 0
        out = capsys.readouterr().out
        assert "mags-dm" in out
        assert "sweg" in out

    def test_compare_unknown_algorithm(self, edge_file):
        path, __ = edge_file
        assert main(["compare", str(path), "-a", "nope"]) == 2

    def test_dataset_export(self, tmp_path, capsys):
        out_path = tmp_path / "ca.txt"
        assert main(["dataset", "CA", "-o", str(out_path)]) == 0
        exported = load_graph(out_path)
        assert exported.n > 0


class TestBenchCommand:
    def test_list_experiments(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table3" in out

    def test_unknown_experiment(self, capsys):
        assert main(["bench", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_table2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        monkeypatch.setenv("REPRO_BENCH_T", "3")
        assert main(["bench", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "CA" in out


class TestCheckpointCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["summarize", "g.txt"])
        assert args.checkpoint_dir is None
        assert args.checkpoint_interval == 5
        assert args.resume is False
        serve = build_parser().parse_args(["serve", "summary.txt"])
        assert serve.max_pending is None
        assert serve.degraded is False
        assert serve.breaker_threshold == 0
        cstart = build_parser().parse_args(
            ["cluster", "start", "topology.json"]
        )
        for parsed in (serve, cstart):
            assert parsed.maintenance_interval == 0.0
            assert parsed.maintenance_budget_seconds == 1.0
            assert parsed.maintenance_budget_merges is None
            assert parsed.maintenance_max_supernodes == 64

    def test_resume_requires_checkpoint_dir(self, edge_file, capsys):
        path, __ = edge_file
        assert main(["summarize", str(path), "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_checkpoint_then_resume(self, tmp_path, edge_file, capsys):
        path, __ = edge_file
        ckpt_dir = tmp_path / "ckpts"
        assert main([
            "summarize", str(path), "-a", "mags-dm", "-T", "6",
            "--checkpoint-dir", str(ckpt_dir),
            "--checkpoint-interval", "2",
        ]) == 0
        first = capsys.readouterr().out
        assert list(ckpt_dir.glob("ckpt-*.json"))
        assert main([
            "summarize", str(path), "-a", "mags-dm", "-T", "6",
            "--checkpoint-dir", str(ckpt_dir), "--resume",
        ]) == 0
        resumed = capsys.readouterr().out
        assert "resuming from checkpoint step 6" in resumed
        # The resumed run restores the finished state: same summary
        # (compare up to the wall-clock field, which always differs).
        line = [l for l in first.splitlines() if "relative_size" in l]
        assert line and line[0].split(" time=")[0] in resumed

    def test_resume_with_empty_dir_starts_fresh(
        self, tmp_path, edge_file, capsys
    ):
        path, __ = edge_file
        assert main([
            "summarize", str(path), "-a", "mags-dm", "-T", "4",
            "--checkpoint-dir", str(tmp_path / "none"), "--resume",
        ]) == 0
        assert "no valid checkpoint found" in capsys.readouterr().out


class TestServeStartup:
    """``repro serve`` rejects bad flags and artifacts before it
    creates anything on disk."""

    @pytest.fixture
    def summary(self, tmp_path, edge_file):
        path = tmp_path / "summary.txt"
        assert main([
            "summarize", str(edge_file[0]), "-T", "2", "-o", str(path),
        ]) == 0
        return path

    @pytest.mark.parametrize("flags, message", [
        (
            ["--repl-follower", "bad"],
            "--repl-follower only applies to --repl-role primary",
        ),
        (
            ["--repl-role", "follower", "--repl-follower", "h:1"],
            "--repl-follower only applies to --repl-role primary",
        ),
        (
            ["--repl-role", "primary", "--repl-follower", "bad"],
            "--repl-follower 'bad' is not HOST:PORT",
        ),
    ])
    def test_bad_replication_flags(
        self, tmp_path, summary, capsys, flags, message
    ):
        wal = tmp_path / "wal"
        capsys.readouterr()
        assert main(["serve", str(summary), "--wal-dir", str(wal), *flags]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: {message}\n"
        assert out == ""
        assert not wal.exists()

    def test_unreadable_artifact(self, tmp_path, capsys):
        wal, spans = tmp_path / "wal", tmp_path / "spans"
        missing = tmp_path / "missing.sum"
        assert main([
            "serve", str(missing), "--wal-dir", str(wal),
            "--trace-dir", str(spans),
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {missing}: not a readable")
        assert not wal.exists() and not spans.exists()


class TestClusterCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["cluster", "plan", "g.txt", "-o", "out"]
        )
        assert args.cluster_command == "plan"
        assert args.shards == 2
        assert args.replicas == 1
        assert args.base_port == 7400

    def test_plan_then_status_down(self, tmp_path, edge_file, capsys):
        path, graph = edge_file
        out = tmp_path / "cluster"
        code = main([
            "cluster", "plan", str(path),
            "-o", str(out),
            "--shards", "2",
            "-T", "4",
            "--base-port", "7610",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "topology written" in captured
        assert (out / "topology.json").exists()
        assert (out / "shard-0.summary.txt.gz").exists()
        assert (out / "shard-1.summary.txt.gz").exists()

        # Nothing is running: status reports every target down.
        code = main(["cluster", "status", str(out / "topology.json")])
        assert code == 1
        assert "DOWN" in capsys.readouterr().out

    def test_plan_rejects_mismatched_template(self, tmp_path, edge_file):
        import json

        path, _ = edge_file
        template = tmp_path / "template.json"
        from repro.cluster.topology import default_spec, save_topology

        save_topology(template, default_spec(4, 1))
        code = main([
            "cluster", "plan", str(path),
            "-o", str(tmp_path / "out"),
            "--shards", "2",
            "--topology", str(template),
        ])
        assert code == 2

    def test_stop_unreachable_reports_failure(self, tmp_path, edge_file):
        path, _ = edge_file
        out = tmp_path / "cluster"
        assert main([
            "cluster", "plan", str(path), "-o", str(out),
            "-T", "2", "--base-port", "7620",
        ]) == 0
        code = main([
            "cluster", "stop", str(out / "topology.json"),
            "--timeout", "0.5",
        ])
        assert code == 1

    def test_status_missing_topology(self, tmp_path, capsys):
        code = main([
            "cluster", "status", str(tmp_path / "missing.json")
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


def _snapshot(requests=0, errors=0, p99=None, role=None, term=0, lags=()):
    """A hand-built ``telemetry`` registry snapshot."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("service_requests_total", op="neighbors").inc(requests)
    registry.counter("service_errors_total", op="neighbors").inc(errors)
    if p99 is not None:
        registry.histogram(
            "service_request_seconds", op="neighbors"
        ).observe(p99)
    if role is not None:
        registry.gauge("repro_replication_role").set(role == "primary")
        registry.gauge("repro_replication_term").set(term)
    for index, lag in enumerate(lags):
        registry.gauge(
            "repro_replication_lag_lsns", follower=f"f{index}"
        ).set(lag)
    return {"instance": "", "pid": 1, "registry": registry.snapshot()}


class TestClusterStatus:
    """``repro cluster status`` rows come from one telemetry pull."""

    def test_up_target_reports_traffic(self):
        from repro.cluster import default_spec, probe_topology

        spec = default_spec(1, 1)
        telemetry = {
            "router": _snapshot(requests=7, errors=2, p99=0.25),
            "shard0/r0": _snapshot(requests=3),
        }
        router, instance = probe_topology(spec, telemetry)
        assert router == {
            "target": "router",
            "address": f"{spec.router_host}:{spec.router_port}",
            "up": True,
            "requests_total": 7,
            "errors_total": 2,
            "p99_ms": 250.0,
        }
        assert instance["up"] and instance["requests_total"] == 3
        assert instance["p99_ms"] is None
        assert "role" not in instance

    def test_down_target_carries_the_error(self):
        from repro.cluster import default_spec, probe_topology

        spec = default_spec(1, 1)
        telemetry = {
            "router": {"error": "ConnectionRefusedError: refused"},
        }
        router, instance = probe_topology(spec, telemetry)
        assert router["up"] is False
        assert router["error"] == "ConnectionRefusedError: refused"
        assert instance["up"] is False
        assert "requests_total" not in instance

    def test_replicated_roles_terms_and_lag(self):
        from repro.cluster import default_spec, probe_topology

        spec = default_spec(1, 3)
        telemetry = {
            "router": _snapshot(),
            "shard0/r0": _snapshot(role="primary", term=2, lags=(0, 5, 3)),
            "shard0/r1": _snapshot(role="follower", term=2),
            # A demoted primary keeps its old lag gauges: not reported.
            "shard0/r2": _snapshot(role="follower", term=2, lags=(9,)),
        }
        rows = {row["target"]: row for row in probe_topology(spec, telemetry)}
        assert "role" not in rows["router"]
        assert rows["shard0/r0"]["role"] == "primary"
        assert rows["shard0/r0"]["term"] == 2
        assert rows["shard0/r0"]["max_follower_lag"] == 5
        for label in ("shard0/r1", "shard0/r2"):
            assert rows[label]["role"] == "follower"
            assert rows[label]["term"] == 2
            assert "max_follower_lag" not in rows[label]

    def test_live_replicated_cluster(self, tmp_path, capsys):
        from repro.algorithms.mags_dm import MagsDMSummarizer
        from repro.cluster import save_topology, shard_graph
        from repro.cluster.manager import start_local_cluster
        from repro.obs.metrics import series_value

        graph = planted_partition(80, 5, 0.7, 0.05, seed=2)
        reps = [
            MagsDMSummarizer(iterations=4, seed=1).summarize(sub)
            .representation
            for sub in shard_graph(graph, 2, seed=0)
        ]
        with start_local_cluster(
            reps, replicas=2, mutable=True, n=graph.n
        ) as local:
            topology = tmp_path / "topology.json"
            save_topology(topology, local.spec)
            capsys.readouterr()  # the replicas' `repro serve` startup lines

            def calls(op):
                return {
                    label: series_value(
                        engine.metrics.registry.snapshot(),
                        "service_requests_total", op=op,
                    ) or 0
                    for label, engine in local.engines.items()
                }

            telemetry_before = calls("telemetry")
            repl_status_before = calls("repl_status")
            assert main(["cluster", "status", str(topology)]) == 0
            # One telemetry call per target, and no other probe.
            assert calls("telemetry") == {
                label: count + 1 for label, count in telemetry_before.items()
            }
            assert calls("repl_status") == repl_status_before
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5  # router + 2 shards x 2 replicas
        for line in lines:
            assert " up  requests=" in line and "p99_ms=" in line
        for shard in (0, 1):
            primary, follower = (
                next(line for line in lines if line.startswith(label))
                for label in (f"shard{shard}/r0", f"shard{shard}/r1")
            )
            # Whether the term record has shipped yet is up to the
            # background shipper, so follower term and lag vary.
            assert re.search(
                r"role=primary term=1 lag=\d+ lsn\(s\)$", primary
            )
            assert re.search(r"role=follower term=\d+$", follower)
            assert "lag=" not in follower
