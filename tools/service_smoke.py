"""End-to-end smoke test of ``python -m repro serve`` (and, with
``--router``, of the sharded cluster).

What CI runs after the unit suite: summarize a graph, start the real
server process on an ephemeral port, fire a concurrent batch of
queries from 8 client threads (verifying every neighbor answer
against Algorithm 6), then send SIGINT and assert a clean, graceful
exit.  The whole run is bounded by a watchdog so a wedged server
fails the job instead of hanging it.

``--router`` runs the cluster chaos drill instead: plan the committed
2-shard/2-replica example topology (``examples/cluster_topology.json``)
against a generated graph, launch every instance as a real
``repro serve`` subprocess with the router in front, hammer the router
from concurrent clients while one replica is SIGKILLed mid-run, and
assert **zero** failed requests, breaker ejection + readmission after
the replica restarts, and a clean shutdown of every process.

With ``--trace-dir DIR`` the router drill additionally exercises the
observability stack end to end: every process exports spans into
``DIR``, a traced cross-shard ``khop`` is issued through the router,
the collector reassembles a single connected span tree from the
per-instance files (written to ``DIR/merged_trace.jsonl``), cluster
telemetry is pulled from every process (``DIR/cluster_telemetry.json``)
and the default availability/latency SLOs must pass.

Run:  PYTHONPATH=src python tools/service_smoke.py [--router] [--trace-dir DIR]
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.algorithms.mags_dm import MagsDMSummarizer  # noqa: E402
from repro.core.serialization import save_representation  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.cluster.router import BREAKER_STATES  # noqa: E402
from repro.obs.metrics import counter_total, series_value  # noqa: E402
from repro.queries.neighbors import neighbor_query  # noqa: E402
from repro.service import SummaryServiceClient  # noqa: E402

CLIENT_THREADS = 8
STARTUP_TIMEOUT_S = 30
SHUTDOWN_TIMEOUT_S = 15

EXAMPLE_TOPOLOGY = REPO / "examples" / "cluster_topology.json"
CHAOS_VICTIM = "shard0/r1"


def main() -> int:
    graph = generators.planted_partition(300, 15, 0.6, 0.02, seed=5)
    rep = MagsDMSummarizer(iterations=8, seed=0).summarize(
        graph
    ).representation

    with tempfile.TemporaryDirectory() as tmp:
        summary_path = Path(tmp) / "summary.txt.gz"
        save_representation(summary_path, rep)

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                str(summary_path), "--port", "0", "--log-interval", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO,
        )
        try:
            port = _wait_for_port(proc)
            print(f"server up on port {port}")
            _hammer(rep, port)
            print("concurrent queries verified, sending SIGINT")
            proc.send_signal(signal.SIGINT)
            output, _ = proc.communicate(timeout=SHUTDOWN_TIMEOUT_S)
        except BaseException:
            proc.kill()
            output, _ = proc.communicate()
            print(output)
            raise
    if proc.returncode != 0:
        print(output)
        raise SystemExit(
            f"server exited with code {proc.returncode} after SIGINT"
        )
    if "shutdown complete" not in output:
        print(output)
        raise SystemExit("server did not report a graceful shutdown")
    print("graceful shutdown confirmed")
    print("service smoke test PASSED")
    return 0


def _wait_for_port(proc: subprocess.Popen) -> int:
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit("server exited before binding a port")
        match = re.match(r"serving on \S+:(\d+)", line)
        if match:
            return int(match.group(1))
    raise SystemExit("server did not report its port in time")


def _hammer(rep, port: int) -> None:
    failures: list[object] = []

    def worker(tid: int) -> None:
        try:
            with SummaryServiceClient("127.0.0.1", port) as client:
                assert client.ping() == "pong"
                for q in range(tid, rep.n, CLIENT_THREADS):
                    got = set(client.neighbors(q))
                    want = neighbor_query(rep, q)
                    if got != want:
                        failures.append(("mismatch", q))
                score = client.pagerank_score(tid)
                if not isinstance(score, float):
                    failures.append(("pagerank", tid))
                responses = client.batch([
                    {"id": i, "op": "degree", "node": (tid * 7 + i) % rep.n}
                    for i in range(32)
                ])
                if not all(r["ok"] for r in responses):
                    failures.append(("batch", tid))
        except Exception as exc:
            failures.append((tid, repr(exc)))

    threads = [
        threading.Thread(target=worker, args=(t,))
        for t in range(CLIENT_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise SystemExit(f"query failures: {failures[:5]}")

    with SummaryServiceClient("127.0.0.1", port) as client:
        registry = client.telemetry()["registry"]
    requests = counter_total(registry, "service_requests_total")
    expected = rep.n + 2 * CLIENT_THREADS  # neighbors + ping/pagerank
    if requests < expected:
        raise SystemExit(f"stats undercount: {requests:.0f} < {expected}")
    hits = counter_total(registry, "service_cache_hits_total")
    lookups = hits + counter_total(registry, "service_cache_misses_total")
    print(
        f"stats: {requests:.0f} requests, "
        f"hit rate {hits / lookups if lookups else 0.0:.0%}"
    )


def _free_ports(count: int) -> list[int]:
    sockets, ports = [], []
    for _ in range(count):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
        ports.append(sock.getsockname()[1])
    for sock in sockets:
        sock.close()
    return ports


def router_main(trace_dir: str | None = None) -> int:
    """The cluster chaos drill (see module docstring)."""
    from repro.cluster import (
        ClusterManager,
        InstanceSpec,
        load_topology,
        plan_cluster,
    )

    spec = load_topology(EXAMPLE_TOPOLOGY)
    print(
        f"loaded {EXAMPLE_TOPOLOGY.name}: {spec.shards} shard(s) x "
        f"{spec.replicas} replica(s)"
    )
    # Committed ports are a convention; remap to free ones so the
    # drill cannot collide with anything already on the box.
    ports = _free_ports(len(spec.instances) + 1)
    spec.router_port = ports[0]
    spec.instances = [
        InstanceSpec(i.shard, i.replica, i.host, port)
        for i, port in zip(spec.instances, ports[1:])
    ]

    graph = generators.planted_partition(300, 15, 0.6, 0.02, seed=5)
    full = MagsDMSummarizer(iterations=8, seed=0).summarize(
        graph
    ).representation

    with tempfile.TemporaryDirectory() as tmp:
        plan_cluster(
            graph,
            spec,
            tmp,
            lambda: MagsDMSummarizer(iterations=8, seed=0),
        )
        print(f"planned {spec.shards} shard artifact(s)")
        manager = ClusterManager(spec, workers=4, trace_dir=trace_dir)
        try:
            manager.start()
            host, port = manager.router_server.address
            print(f"router up on {host}:{port}")
            if trace_dir is not None:
                # Before the hammer warms the router's neighbor cache:
                # a cold khop is guaranteed to fan out to the shards.
                _traced_drill(port, Path(trace_dir))
            _chaos_hammer(manager, full, port)
            _verify_readmission(manager, port)
            if trace_dir is not None:
                _slo_gate(manager, Path(trace_dir))
        finally:
            codes = manager.stop()
        bad = {label: c for label, c in codes.items() if c != 0}
        if bad:
            raise SystemExit(f"instances exited uncleanly: {bad}")
    print("all instances shut down cleanly")
    print("cluster smoke test PASSED")
    return 0


def _chaos_hammer(manager, rep, port: int) -> None:
    """Concurrent clients vs. a replica SIGKILL: zero failures
    allowed."""
    failures: list[object] = []

    def worker(tid: int) -> None:
        try:
            with SummaryServiceClient("127.0.0.1", port) as client:
                for sweep in range(3):
                    for q in range(tid, rep.n, CLIENT_THREADS):
                        got = set(client.neighbors(q))
                        want = neighbor_query(rep, q)
                        if got != want:
                            failures.append(("mismatch", q))
                    responses = client.batch([
                        {
                            "id": i,
                            "op": "degree",
                            "node": (tid * 13 + i) % rep.n,
                        }
                        for i in range(64)
                    ])
                    if not all(r["ok"] for r in responses):
                        failures.append(("batch", tid, sweep))
        except Exception as exc:
            failures.append((tid, repr(exc)))

    threads = [
        threading.Thread(target=worker, args=(t,))
        for t in range(CLIENT_THREADS)
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.3)  # let traffic build before pulling the plug
    manager.processes[CHAOS_VICTIM].kill()
    print(f"killed replica {CHAOS_VICTIM} mid-run")
    for thread in threads:
        thread.join()
    if failures:
        raise SystemExit(
            f"{len(failures)} request(s) failed during chaos: "
            f"{failures[:5]}"
        )
    print("zero failed requests during replica loss")


def _verify_readmission(manager, port: int) -> None:
    """The dead replica must show as ejected, then rejoin after a
    restart once the breaker's reset window elapses."""
    def breaker_state() -> str:
        with SummaryServiceClient("127.0.0.1", port) as client:
            registry = client.telemetry()["registry"]
        state = series_value(
            registry, "router_breaker_state", instance=CHAOS_VICTIM
        )
        if state is None:
            raise SystemExit(f"{CHAOS_VICTIM} missing from router telemetry")
        return BREAKER_STATES[int(state)]

    state = breaker_state()
    if state == "closed":
        raise SystemExit(
            f"breaker for killed replica {CHAOS_VICTIM} never opened"
        )
    print(f"breaker for {CHAOS_VICTIM}: {state} (ejected)")

    manager.processes[CHAOS_VICTIM].start()
    print(f"restarted {CHAOS_VICTIM}")
    reset_s = manager.spec.breaker_reset_s
    deadline = time.monotonic() + reset_s + 20
    while time.monotonic() < deadline:
        time.sleep(max(0.2, reset_s / 2))
        # Batched degrees are forwarded to the shards (never served
        # from the router cache), so the half-open probe gets traffic.
        with SummaryServiceClient("127.0.0.1", port) as client:
            client.batch([
                {"id": i, "op": "degree", "node": i} for i in range(256)
            ])
        if breaker_state() == "closed":
            print(f"{CHAOS_VICTIM} readmitted (breaker closed)")
            return
    raise SystemExit(
        f"{CHAOS_VICTIM} was not readmitted within {reset_s + 20:.0f}s"
    )


def _traced_drill(port: int, trace_dir: Path) -> None:
    """One traced cross-shard khop through the router, then the
    collector pass: reassemble a single connected span tree from the
    per-instance files and write it to ``merged_trace.jsonl``."""
    from repro.obs import collect, schema
    from repro.obs.context import new_trace_id
    from repro.obs.exporters import write_trace_jsonl

    trace_id = new_trace_id()
    with SummaryServiceClient("127.0.0.1", port) as client:
        result = client.request(
            "khop", node=0, k=2, trace={"id": trace_id}
        )
    if not result:
        raise SystemExit("traced khop returned no nodes")

    records = collect.read_trace_dir(trace_dir)
    merged = collect.assemble_trace(records, trace_id)
    if len(merged.roots) != 1:
        raise SystemExit(
            f"expected a single root span, got {len(merged.roots)}"
        )
    shard_instances = set(merged.instances) - {"router"}
    if len(shard_instances) < 2:
        raise SystemExit(
            f"trace did not span multiple shards: "
            f"{sorted(merged.instances)}"
        )
    errors = schema.validate_trace(merged.records)
    if errors:
        raise SystemExit(f"merged trace schema errors: {errors[:3]}")
    write_trace_jsonl(merged.records, trace_dir / "merged_trace.jsonl")
    print(
        f"traced khop: {len(merged.records)} span(s) across "
        f"{sorted(merged.instances)}, fan-out width {merged.fanout_width}"
    )


def _slo_gate(manager, trace_dir: Path) -> None:
    """Pull telemetry from every process after the chaos run and gate
    on the default availability/latency SLOs — a replica loss with
    zero failed requests must still leave the error budget intact."""
    from repro.obs import collect
    from repro.obs.slo import DEFAULT_SLOS, evaluate_slos, format_slo_report

    telemetry = collect.pull_cluster_telemetry(manager.spec)
    snapshots = collect.registry_snapshots(telemetry)
    if len(snapshots) < len(manager.spec.instances) + 1:
        missing = set(telemetry) - set(snapshots)
        raise SystemExit(
            f"telemetry pull missed instance(s): {sorted(missing)}"
        )
    collect.write_cluster_telemetry(
        telemetry, trace_dir / "cluster_telemetry.json"
    )
    results = evaluate_slos(snapshots, DEFAULT_SLOS)
    print(format_slo_report(results))
    violated = [r.slo.name for r in results if not r.ok]
    if violated:
        raise SystemExit(f"SLO violation(s) in smoke run: {violated}")
    print("SLO gate passed")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--router", action="store_true",
        help="run the sharded-cluster chaos drill instead",
    )
    parser.add_argument(
        "--trace-dir", default=None,
        help=(
            "with --router: export spans here and run the traced "
            "collector + SLO drill"
        ),
    )
    cli = parser.parse_args()
    if cli.trace_dir and not cli.router:
        parser.error("--trace-dir requires --router")
    if cli.router:
        sys.exit(router_main(cli.trace_dir))
    sys.exit(main())
