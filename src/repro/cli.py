"""Command-line interface.

Exposes the library's pipeline as a tool::

    python -m repro summarize graph.txt -a mags -T 50 -o summary.txt
    python -m repro reconstruct summary.txt -o restored.txt
    python -m repro verify summary.txt --graph graph.txt --deep
    python -m repro stats graph.txt
    python -m repro compare graph.txt -a mags,mags-dm,ldme
    python -m repro dataset CN -o cn_analog.txt
    python -m repro serve summary.txt --port 7077
    python -m repro cluster plan graph.txt -o cluster/ --shards 2
    python -m repro cluster start cluster/topology.json
    python -m repro profile -a mags-dm -d CA --trace-out trace.jsonl
    python -m repro trace trace.jsonl --validate --phases

Edge lists are whitespace-separated ``u v`` lines (SNAP style, ``#``
comments allowed); summaries use the v1 text format of
:mod:`repro.core.serialization`.  Both transparently gzip when the
path ends in ``.gz``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable, Sequence

# ``repro.algorithms`` resolves its summarizers on first use, and the
# commands import lossy, verify and stats themselves: ``repro serve``
# loads only the serving stack, which is NumPy-free.
from repro import algorithms
from repro.core.serialization import (
    load_representation,
    load_representation_checked,
    save_representation,
)
from repro.durability.replication import ACKS_MODES
from repro.graph.datasets import dataset_codes, load_dataset
from repro.graph.graph import GraphError
from repro.graph.io import INGEST_POLICIES, load_graph_checked, save_graph
from repro.service.node import (
    Node,
    NodeConfig,
    add_maintenance_arguments,
    add_serve_arguments,
)

if TYPE_CHECKING:
    from repro.algorithms import Summarizer

__all__ = ["main", "build_parser", "ALGORITHMS"]

#: CLI name -> summarizer factory (iterations, seed) -> Summarizer.
ALGORITHMS: dict[str, Callable[[int, int], Summarizer]] = {
    "mags": lambda T, seed: algorithms.MagsSummarizer(iterations=T, seed=seed),
    "mags-dm": lambda T, seed: algorithms.MagsDMSummarizer(
        iterations=T, seed=seed
    ),
    "greedy": lambda T, seed: algorithms.GreedySummarizer(seed=seed),
    "randomized": lambda T, seed: algorithms.RandomizedSummarizer(seed=seed),
    "sweg": lambda T, seed: algorithms.SWeGSummarizer(iterations=T, seed=seed),
    "ldme": lambda T, seed: algorithms.LDMESummarizer(
        iterations=T, signature_length=2, seed=seed
    ),
    "slugger": lambda T, seed: algorithms.SluggerSummarizer(
        iterations=T, seed=seed
    ),
}


def _add_ingest_options(subparser: argparse.ArgumentParser) -> None:
    """Validated-ingestion flags shared by every graph-loading command."""
    group = subparser.add_argument_group("ingestion hardening")
    group.add_argument(
        "--ingest-policy", choices=INGEST_POLICIES, default="strict",
        help=(
            "what to do with malformed lines: strict=fail (default), "
            "skip=drop and count, quarantine=drop into a sidecar file"
        ),
    )
    group.add_argument(
        "--max-nodes", type=int, default=None,
        help="reject inputs with more than this many nodes",
    )
    group.add_argument(
        "--max-edges", type=int, default=None,
        help="reject inputs with more than this many edge records",
    )
    group.add_argument(
        "--quarantine-path", default=None,
        help=(
            "sidecar for rejected lines under --ingest-policy "
            "quarantine (default: INPUT.quarantine)"
        ),
    )


def _load_graph_from_args(args: argparse.Namespace, path: str):
    """Load ``path`` honouring the ingestion flags; print rejections.

    Rejected inputs (strict-policy violations, cap overruns, corrupt
    files) exit with a one-line diagnostic instead of a traceback.
    """
    try:
        graph, report = load_graph_checked(
            path,
            policy=getattr(args, "ingest_policy", "strict"),
            max_nodes=getattr(args, "max_nodes", None),
            max_edges=getattr(args, "max_edges", None),
            quarantine_path=getattr(args, "quarantine_path", None),
        )
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
    if report.rejected:
        by_reason = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(report.rejected_by_reason.items())
        )
        print(
            f"ingestion rejected {report.rejected} line(s) ({by_reason})",
            file=sys.stderr,
        )
        if report.quarantine_path is not None:
            print(
                f"quarantined lines written to {report.quarantine_path}",
                file=sys.stderr,
            )
    return graph


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Lossless graph summarization (SIGMOD 2024 'Compactness "
            "Meets Efficiency' reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser(
        "summarize", help="summarize an edge-list file"
    )
    summarize.add_argument("input", help="edge-list file (u v per line)")
    summarize.add_argument(
        "-a", "--algorithm", choices=sorted(ALGORITHMS), default="mags-dm"
    )
    summarize.add_argument(
        "-T", "--iterations", type=int, default=50,
        help="iteration count T (default 50, the paper's setting)",
    )
    summarize.add_argument("-s", "--seed", type=int, default=0)
    summarize.add_argument(
        "-o", "--output", help="write the summary here (v1 text format)"
    )
    summarize.add_argument(
        "--epsilon", type=float, default=0.0,
        help="bounded-error lossy pruning (0 = lossless, the default)",
    )
    summarize.add_argument(
        "--no-verify", action="store_true",
        help="skip the lossless reconstruction check",
    )
    summarize.add_argument(
        "--checkpoint-dir",
        help=(
            "snapshot iteration state to this directory "
            "(mags/mags-dm only; see docs/resilience.md)"
        ),
    )
    summarize.add_argument(
        "--checkpoint-interval", type=int, default=5,
        help="iterations between snapshots (default 5)",
    )
    summarize.add_argument(
        "--resume", action="store_true",
        help="resume from the newest valid checkpoint in --checkpoint-dir",
    )
    budgets = summarize.add_argument_group(
        "resource budgets (anytime mode)",
        description=(
            "when a budget runs out the algorithm stops merging and "
            "returns the best summary found so far — still lossless, "
            "flagged truncated"
        ),
    )
    budgets.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="soft wall-clock budget for the summarization run",
    )
    budgets.add_argument(
        "--memory-budget", type=float, default=None, metavar="MB",
        help="soft RSS watermark; a watchdog thread samples /proc",
    )
    budgets.add_argument(
        "--max-candidates", type=int, default=None,
        help="cap the candidate-pair pool per iteration",
    )
    budgets.add_argument(
        "--max-merges", type=int, default=None,
        help="stop after this many committed merges",
    )
    _add_ingest_options(summarize)

    reconstruct = sub.add_parser(
        "reconstruct", help="restore the edge list from a summary"
    )
    reconstruct.add_argument("input", help="summary file")
    reconstruct.add_argument("-o", "--output", required=True)

    verify = sub.add_parser(
        "verify",
        help="check a summary artifact's integrity (checksum + invariants)",
    )
    verify.add_argument("input", help="summary file (v1 text format)")
    verify.add_argument(
        "--graph",
        help=(
            "original edge-list file; when given, exact lossless "
            "reconstruction is also checked"
        ),
    )
    verify.add_argument(
        "--deep", action="store_true",
        help=(
            "full invariant audit: correction consistency and "
            "re-encoding optimality (Algorithm 4), not just parseability"
        ),
    )

    stats = sub.add_parser("stats", help="print edge-list statistics")
    stats.add_argument("input")
    _add_ingest_options(stats)

    compare = sub.add_parser(
        "compare", help="run several algorithms and print a comparison"
    )
    compare.add_argument("input")
    compare.add_argument(
        "-a", "--algorithms",
        default="mags,mags-dm,sweg,ldme",
        help="comma-separated list (default: mags,mags-dm,sweg,ldme)",
    )
    compare.add_argument("-T", "--iterations", type=int, default=25)
    compare.add_argument("-s", "--seed", type=int, default=0)
    _add_ingest_options(compare)

    dataset = sub.add_parser(
        "dataset", help="export a Table 2 synthetic analog as an edge list"
    )
    dataset.add_argument("code", help=f"one of: {', '.join(dataset_codes())}")
    dataset.add_argument("-o", "--output", required=True)

    serve = sub.add_parser(
        "serve",
        help="serve summary queries over TCP (line-delimited JSON)",
    )
    add_serve_arguments(serve)

    cluster = sub.add_parser(
        "cluster",
        help="sharded serving: plan/start/stop/status a summary cluster",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    cplan = cluster_sub.add_parser(
        "plan",
        help=(
            "slice a graph into per-shard summary artifacts and write "
            "topology.json"
        ),
    )
    cplan.add_argument("input", help="edge-list file (u v per line)")
    cplan.add_argument("-o", "--out", required=True, help="cluster directory")
    cplan.add_argument("--shards", type=int, default=2)
    cplan.add_argument("--replicas", type=int, default=1)
    cplan.add_argument(
        "-a", "--algorithm", choices=sorted(ALGORITHMS), default="mags-dm"
    )
    cplan.add_argument("-T", "--iterations", type=int, default=25)
    cplan.add_argument("-s", "--seed", type=int, default=0)
    cplan.add_argument("--host", default="127.0.0.1")
    cplan.add_argument(
        "--base-port", type=int, default=7400,
        help="router port; instances get consecutive ports above it",
    )
    cplan.add_argument(
        "--acks", choices=ACKS_MODES, default="quorum",
        help=(
            "replication ack mode recorded in the topology for "
            "replicated durable ingest (default quorum)"
        ),
    )
    cplan.add_argument(
        "--topology", default=None,
        help="merge ports/failover settings from an existing topology file",
    )
    _add_ingest_options(cplan)

    cstart = cluster_sub.add_parser(
        "start",
        help=(
            "launch every instance subprocess plus the router and serve "
            "until SIGINT"
        ),
    )
    cstart.add_argument("topology", help="topology.json from 'cluster plan'")
    cstart.add_argument(
        "--workers", type=int, default=4,
        help="worker threads per instance (default 4)",
    )
    cstart.add_argument(
        "--router-workers", type=int, default=8,
        help="router worker threads (default 8)",
    )
    cstart.add_argument(
        "--cache-size", type=int, default=4096,
        help="per-instance LRU cache capacity (default 4096)",
    )
    cstart.add_argument(
        "--trace-dir", default=None,
        help=(
            "enable cluster-wide tracing: every instance (and the "
            "router) streams its spans into this directory"
        ),
    )
    cstart.add_argument(
        "--wal-dir", default=None,
        help=(
            "enable durable ingest: every instance gets a private WAL "
            "+ checkpoint directory under this path; with a "
            "replicas>1 topology each shard's replica 0 starts as "
            "primary and WAL-ships to its siblings (acks per the "
            "topology's 'acks' field)"
        ),
    )
    add_maintenance_arguments(cstart)

    ctrace = cluster_sub.add_parser(
        "trace",
        help=(
            "reassemble one request's cross-process span tree from a "
            "cluster --trace-dir"
        ),
    )
    ctrace.add_argument("trace_id", help="the request's trace id")
    ctrace.add_argument(
        "--trace-dir", required=True,
        help="directory the cluster instances exported spans into",
    )
    ctrace.add_argument(
        "--out", default=None,
        help="also write the merged single-trace JSONL here",
    )

    ctelemetry = cluster_sub.add_parser(
        "telemetry",
        help=(
            "pull every instance's registry snapshot and print the "
            "merged cluster Prometheus dump"
        ),
    )
    ctelemetry.add_argument("topology", help="topology.json")
    ctelemetry.add_argument("--timeout", type=float, default=5.0)
    ctelemetry.add_argument(
        "--json-out", default=None,
        help=(
            "write the raw per-instance snapshots as a "
            "cluster_telemetry JSON file ('repro slo' input)"
        ),
    )
    ctelemetry.add_argument(
        "--prom-out", default=None,
        help="write the merged Prometheus dump here instead of stdout",
    )

    cstatus = cluster_sub.add_parser(
        "status", help="probe the router and every instance of a topology"
    )
    cstatus.add_argument("topology", help="topology.json")
    cstatus.add_argument("--timeout", type=float, default=3.0)

    cstop = cluster_sub.add_parser(
        "stop",
        help=(
            "send a shutdown request to the router and every reachable "
            "instance"
        ),
    )
    cstop.add_argument("topology", help="topology.json")
    cstop.add_argument("--timeout", type=float, default=5.0)

    bench = sub.add_parser(
        "bench", help="run one of the paper's experiments and print it"
    )
    bench.add_argument(
        "experiment",
        help="experiment name (see --list), e.g. fig4, table3",
    )
    bench.add_argument(
        "--list", action="store_true", dest="list_experiments",
        help="list available experiment names and exit",
    )

    profile = sub.add_parser(
        "profile",
        help="run one algorithm under the tracer; print its phase profile",
    )
    profile.add_argument(
        "-a", "--algorithm", choices=sorted(ALGORITHMS), default="mags-dm"
    )
    profile.add_argument(
        "-d", "--dataset",
        help=f"Table 2 analog code ({', '.join(dataset_codes())})",
    )
    profile.add_argument(
        "-i", "--input", help="edge-list file (alternative to --dataset)"
    )
    profile.add_argument("-T", "--iterations", type=int, default=20)
    profile.add_argument("-s", "--seed", type=int, default=0)
    profile.add_argument(
        "--trace-out",
        help="write the span records as JSONL here (.gz supported)",
    )
    profile.add_argument(
        "--prom-out",
        help="write the metrics registry in Prometheus text format here",
    )

    trace = sub.add_parser(
        "trace", help="inspect a trace JSONL file written by 'profile'"
    )
    trace.add_argument("input", help="trace JSONL file (.gz supported)")
    trace.add_argument(
        "--validate", action="store_true",
        help="check the file against the span schema; nonzero exit on error",
    )
    trace.add_argument(
        "--phases", action="store_true",
        help="print total wall seconds per phase",
    )
    trace.add_argument(
        "--diff", metavar="OTHER",
        help="compare phase totals against another trace file",
    )

    slo = sub.add_parser(
        "slo",
        help=(
            "evaluate availability/latency SLOs against cluster "
            "telemetry; nonzero exit on violation"
        ),
    )
    slo.add_argument(
        "source",
        help=(
            "cluster_telemetry JSON ('repro cluster telemetry "
            "--json-out') or a topology.json to pull live telemetry "
            "from"
        ),
    )
    slo.add_argument(
        "--config", default=None,
        help=(
            "SLO definitions JSON ({\"slos\": [...]}); default: "
            "99%% availability + 1s p99 latency"
        ),
    )
    slo.add_argument(
        "--timeout", type=float, default=5.0,
        help="per-instance pull timeout when source is a topology",
    )

    return parser


def _cmd_summarize(args: argparse.Namespace) -> int:
    from repro.core.lossy import make_lossy
    from repro.core.verify import verify_lossless

    graph = _load_graph_from_args(args, args.input)
    print(f"loaded {graph}")
    summarizer = ALGORITHMS[args.algorithm](args.iterations, args.seed)
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if any(
        value is not None
        for value in (
            args.time_budget, args.memory_budget,
            args.max_candidates, args.max_merges,
        )
    ):
        from repro.resilience import ResourceBudget

        try:
            budget = ResourceBudget(
                time_budget=args.time_budget,
                memory_budget_mb=args.memory_budget,
                max_merges=args.max_merges,
                max_candidates=args.max_candidates,
            )
        except ValueError as exc:
            print(f"invalid budget: {exc}", file=sys.stderr)
            return 2
        summarizer.configure_budget(budget)
    if args.checkpoint_dir:
        from repro.resilience import CheckpointStore

        store = CheckpointStore(args.checkpoint_dir)
        summarizer.configure_checkpointing(
            store,
            interval=args.checkpoint_interval,
            resume=args.resume,
        )
        if args.resume:
            latest = store.latest()
            if latest is None:
                print("no valid checkpoint found; starting fresh")
            else:
                print(f"resuming from checkpoint step {latest.step}")
    result = summarizer.summarize(graph)
    if not args.no_verify:
        verify_lossless(graph, result.representation)
    print(result.summary_line())
    if result.truncated:
        print(
            f"budget exhausted ({result.truncated_reason}): the summary "
            "is a valid lossless anytime result, not the full run"
        )

    representation = result.representation
    if args.epsilon > 0.0:
        lossy = make_lossy(representation, args.epsilon)
        representation = lossy.representation
        print(
            f"lossy (epsilon={args.epsilon}): dropped "
            f"{lossy.corrections_dropped} corrections -> "
            f"relative_size={lossy.relative_size:.4f}"
        )
    if args.output:
        save_representation(args.output, representation)
        print(f"summary written to {args.output}")
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    representation = load_representation(args.input)
    graph = representation.reconstruct()
    save_graph(args.output, graph)
    print(f"reconstructed {graph} -> {args.output}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.serialization import FormatError
    from repro.core.verify import deep_audit, verify_lossless

    try:
        representation, checksum = load_representation_checked(args.input)
    except FormatError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print(f"checksum: {checksum}")
    if checksum == "absent":
        print(
            "note: no sha256 footer (pre-checksum or hand-written file); "
            "re-save to add one"
        )

    graph = None
    if args.graph:
        graph = _load_graph_from_args(args, args.graph)

    findings: list[str] = []
    if args.deep:
        findings = deep_audit(representation, graph)
    elif graph is not None:
        try:
            verify_lossless(graph, representation)
        except Exception as exc:  # LosslessnessError carries the detail
            findings = [str(exc)]

    if findings:
        for finding in findings:
            print(f"FAIL {finding}", file=sys.stderr)
        return 1
    checked = "deep audit" if args.deep else (
        "lossless reconstruction" if graph is not None else "parse + checksum"
    )
    print(f"OK {args.input} ({checked})")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.graph.stats import graph_stats

    graph = _load_graph_from_args(args, args.input)
    for key, value in graph_stats(graph).as_row().items():
        print(f"{key:10s} {value}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.verify import verify_lossless

    graph = _load_graph_from_args(args, args.input)
    print(f"loaded {graph}")
    names = [name.strip() for name in args.algorithms.split(",") if name.strip()]
    unknown = [name for name in names if name not in ALGORITHMS]
    if unknown:
        print(f"unknown algorithm(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    header = f"{'algorithm':12s} {'rel_size':>9s} {'cost':>8s} {'time_s':>8s}"
    print(header)
    print("-" * len(header))
    for name in names:
        result = ALGORITHMS[name](args.iterations, args.seed).summarize(graph)
        verify_lossless(graph, result.representation)
        print(
            f"{name:12s} {result.relative_size:9.4f} "
            f"{result.cost:8d} {result.runtime_seconds:8.3f}"
        )
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    graph = load_dataset(args.code)
    save_graph(args.output, graph)
    print(f"{args.code}: {graph} -> {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging
    import signal

    from repro.core.serialization import FormatError

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        node = Node(NodeConfig.from_args(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        node.start()
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Graceful-stop handlers must be live before readiness is
    # announced: a supervisor that signals the moment it sees the
    # line must never hit the default (process-killing) handler.
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: node.server.shutdown())
    host, port = node.address
    print(f"serving on {host}:{port}", flush=True)
    try:
        node.serve_forever()
    finally:
        node.stop()
    print("shutdown complete")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import logging

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    from repro.cluster import (
        ClusterManager,
        TopologyError,
        default_spec,
        load_topology,
        plan_cluster,
        probe_topology,
    )

    if args.cluster_command == "plan":
        graph = _load_graph_from_args(args, args.input)
        print(f"loaded {graph}")
        if args.topology:
            spec = load_topology(args.topology)
            if spec.shards != args.shards or spec.replicas != args.replicas:
                print(
                    f"error: --topology declares "
                    f"{spec.shards}x{spec.replicas} but the command asked "
                    f"for {args.shards}x{args.replicas}",
                    file=sys.stderr,
                )
                return 2
            spec.seed = args.seed
        else:
            spec = default_spec(
                args.shards,
                args.replicas,
                seed=args.seed,
                host=args.host,
                base_port=args.base_port,
                acks=args.acks,
            )
        factory = lambda: ALGORITHMS[args.algorithm](  # noqa: E731
            args.iterations, args.seed
        )
        report = plan_cluster(graph, spec, args.out, factory)
        for line in report.summary_lines():
            print(line)
        print(f"topology written to {args.out}/topology.json")
        return 0

    if args.cluster_command == "trace":
        from repro.obs import collect, schema
        from repro.obs.exporters import write_trace_jsonl

        records = collect.read_trace_dir(args.trace_dir)
        merged = collect.assemble_trace(records, args.trace_id)
        if not merged.records:
            known = collect.trace_ids(records)
            print(
                f"no spans for trace {args.trace_id!r} under "
                f"{args.trace_dir} ({len(known)} trace id(s) present)",
                file=sys.stderr,
            )
            return 1
        print(collect.render_merged_trace(merged))
        if args.out:
            write_trace_jsonl(merged.records, args.out)
            print(
                f"merged trace written to {args.out} "
                f"({len(merged.records)} span(s))"
            )
        errors = schema.validate_trace(merged.records)
        if errors:
            for error in errors:
                print(error, file=sys.stderr)
            return 1
        return 0

    try:
        spec = load_topology(args.topology)
    except (TopologyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.cluster_command == "telemetry":
        from pathlib import Path

        from repro.obs import collect, registry_to_prometheus

        telemetry = collect.pull_cluster_telemetry(
            spec, timeout=args.timeout
        )
        snapshots = collect.registry_snapshots(telemetry)
        for label, entry in sorted(telemetry.items()):
            if label not in snapshots:
                print(
                    f"{label}: unreachable ({entry.get('error')})",
                    file=sys.stderr,
                )
        if not snapshots:
            print("error: no instance reachable", file=sys.stderr)
            return 1
        if args.json_out:
            collect.write_cluster_telemetry(telemetry, args.json_out)
            print(f"telemetry written to {args.json_out}", file=sys.stderr)
        text = registry_to_prometheus(
            collect.merge_registry_snapshots(snapshots)
        )
        if args.prom_out:
            Path(args.prom_out).write_text(text, encoding="utf-8")
            print(f"merged dump written to {args.prom_out}", file=sys.stderr)
        else:
            print(text, end="")
        return 0

    if args.cluster_command == "start":
        try:
            manager = ClusterManager(
                spec,
                workers=args.workers,
                cache_size=args.cache_size,
                trace_dir=args.trace_dir,
                wal_dir=args.wal_dir,
                **{
                    name: value for name, value in vars(args).items()
                    if name.startswith("maintenance_")
                },
            )
            manager.start_instances()
        except TopologyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        manager.start_router(workers=args.router_workers)
        host, port = manager.router_server.address
        print(
            f"cluster up: {spec.shards} shard(s) x {spec.replicas} "
            f"replica(s); router serving on {host}:{port}",
            flush=True,
        )
        try:
            manager.router_server.serve_forever()
        finally:
            manager.stop()
        print("cluster shutdown complete")
        return 0

    if args.cluster_command == "status":
        from repro.obs.collect import pull_cluster_telemetry

        rows = probe_topology(
            spec, pull_cluster_telemetry(spec, timeout=args.timeout)
        )
        all_up = True
        for row in rows:
            if row["up"]:
                p99 = row.get("p99_ms")
                p99_text = (
                    f"{p99:.1f}" if isinstance(p99, (int, float)) else "-"
                )
                repl_text = ""
                if row.get("role") is not None:
                    repl_text = (
                        f" role={row['role']} term={row.get('term')}"
                    )
                    if row.get("max_follower_lag") is not None:
                        repl_text += (
                            f" lag={row['max_follower_lag']} lsn(s)"
                        )
                print(
                    f"{row['target']:12s} {row['address']:22s} up  "
                    f"requests={row['requests_total']} "
                    f"errors={row['errors_total']} "
                    f"p99_ms={p99_text}"
                    f"{repl_text}"
                )
            else:
                all_up = False
                print(
                    f"{row['target']:12s} {row['address']:22s} DOWN "
                    f"({row['error']})"
                )
        return 0 if all_up else 1

    if args.cluster_command == "stop":
        from repro.service.client import ServiceError, SummaryServiceClient

        # Router first so it stops fanning out to dying instances.
        targets = [("router", spec.router_host, spec.router_port)]
        targets += [(i.label, i.host, i.port) for i in spec.instances]
        failures = 0
        for label, host, port in targets:
            try:
                with SummaryServiceClient(
                    host, port, timeout=args.timeout
                ) as client:
                    client.shutdown_server()
                print(f"{label}: shutdown acknowledged")
            except (OSError, ServiceError, ValueError) as exc:
                failures += 1
                print(f"{label}: unreachable ({exc})")
        return 0 if failures == 0 else 1

    raise AssertionError(f"unhandled cluster command {args.cluster_command}")


#: CLI experiment name -> repro.bench.experiments function name.
_EXPERIMENTS = {
    "table2": "table2_dataset_statistics",
    "fig4": "fig4_fig6_small_graphs",
    "fig6": "fig4_fig6_small_graphs",
    "fig5": "fig5_fig7_large_graphs",
    "fig7": "fig5_fig7_large_graphs",
    "fig8": "fig8_mags_ablation",
    "fig9": "fig9_fig10_magsdm_ablation",
    "fig10": "fig9_fig10_magsdm_ablation",
    "fig11": "fig11_fig12_iterations_sweep",
    "fig12": "fig11_fig12_iterations_sweep",
    "fig13": "fig13_parallel_speedup",
    "fig14": "fig14_b_sweep",
    "fig15": "fig15_h_sweep",
    "fig16": "fig16_k_sweep",
    "table3": "table3_pagerank",
    "neighbor": "neighbor_query_cost",
}


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import experiments, format_table

    if args.list_experiments or args.experiment == "list":
        for name in sorted(_EXPERIMENTS):
            print(name)
        return 0
    key = args.experiment.lower()
    if key not in _EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; known: "
            f"{', '.join(sorted(_EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    title, rows = getattr(experiments, _EXPERIMENTS[key])()
    print(format_table(rows, title=title))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro import obs

    if bool(args.dataset) == bool(args.input):
        print(
            "profile needs exactly one of --dataset or --input",
            file=sys.stderr,
        )
        return 2
    if args.dataset:
        graph = load_dataset(args.dataset)
        source = f"dataset {args.dataset}"
    else:
        graph = _load_graph_from_args(args, args.input)
        source = args.input
    print(f"profiling {args.algorithm} on {source}: {graph}")

    summarizer = ALGORITHMS[args.algorithm](args.iterations, args.seed)
    tracer = obs.Tracer()
    with obs.use_tracer(tracer):
        result = summarizer.summarize(graph)
    records = tracer.records()
    print(result.summary_line())

    print("\nphase totals (wall seconds):")
    for phase, seconds in sorted(
        obs.phase_totals(records).items(), key=lambda kv: -kv[1]
    ):
        print(f"  {phase:24s} {seconds:10.4f}")
    print("\ntrace:")
    print(obs.render_trace_tree(records))

    if args.trace_out:
        obs.write_trace_jsonl(records, args.trace_out)
        print(f"\ntrace written to {args.trace_out} ({len(records)} spans)")
    if args.prom_out:
        from pathlib import Path

        Path(args.prom_out).write_text(
            obs.registry_to_prometheus(obs.get_registry())
        )
        print(f"metrics written to {args.prom_out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs

    try:
        records = obs.read_trace_jsonl(args.input)
    except (OSError, ValueError) as exc:
        print(f"unreadable trace file {args.input}: {exc}", file=sys.stderr)
        return 1
    status = 0
    acted = False
    if args.validate:
        acted = True
        errors = obs.validate_trace(records)
        if errors:
            for error in errors:
                print(error, file=sys.stderr)
            status = 1
        else:
            print(f"{args.input}: {len(records)} spans, schema OK")
    if args.phases:
        acted = True
        for phase, seconds in sorted(
            obs.phase_totals(records).items(), key=lambda kv: -kv[1]
        ):
            print(f"{phase:24s} {seconds:10.4f}")
    if args.diff:
        acted = True
        other = obs.read_trace_jsonl(args.diff)
        header = (
            f"{'phase':<24} {'a_s':>10} {'b_s':>10} "
            f"{'delta_s':>10} {'ratio':>8}"
        )
        print(header)
        for row in obs.diff_phase_totals(records, other):
            def fmt(value, spec):
                return "-" if value is None else format(value, spec)

            print(
                f"{row['phase']:<24} {fmt(row['a_s'], '.4f'):>10} "
                f"{fmt(row['b_s'], '.4f'):>10} "
                f"{fmt(row['delta_s'], '+.4f'):>10} "
                f"{fmt(row['ratio'], '.3f'):>8}"
            )
    if not acted:
        print(obs.render_trace_tree(records))
    return status


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.obs import collect
    from repro.obs.slo import (
        DEFAULT_SLOS,
        evaluate_slos,
        format_slo_report,
        load_slo_config,
    )

    if args.config:
        try:
            slos = load_slo_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: bad SLO config: {exc}", file=sys.stderr)
            return 2
    else:
        slos = DEFAULT_SLOS

    # The source is either a saved cluster_telemetry dump or a
    # topology file to pull live telemetry from — try the dump format
    # first, it is self-identifying via its "kind" field.
    try:
        snapshots = collect.load_cluster_telemetry(args.source)
    except ValueError:
        from repro.cluster.topology import TopologyError, load_topology

        try:
            spec = load_topology(args.source)
        except (TopologyError, OSError, ValueError) as exc:
            print(
                f"error: {args.source!r} is neither a cluster telemetry "
                f"dump nor a topology file ({exc})",
                file=sys.stderr,
            )
            return 2
        telemetry = collect.pull_cluster_telemetry(
            spec, timeout=args.timeout
        )
        snapshots = collect.registry_snapshots(telemetry)
        for label, entry in sorted(telemetry.items()):
            if label not in snapshots:
                print(
                    f"{label}: unreachable ({entry.get('error')})",
                    file=sys.stderr,
                )
        if not snapshots:
            print("error: no instance reachable", file=sys.stderr)
            return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = evaluate_slos(snapshots, slos)
    print(format_slo_report(results))
    return 0 if all(result.ok for result in results) else 1


_COMMANDS = {
    "summarize": _cmd_summarize,
    "reconstruct": _cmd_reconstruct,
    "verify": _cmd_verify,
    "stats": _cmd_stats,
    "compare": _cmd_compare,
    "dataset": _cmd_dataset,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
    "bench": _cmd_bench,
    "profile": _cmd_profile,
    "trace": _cmd_trace,
    "slo": _cmd_slo,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)
