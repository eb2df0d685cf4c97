"""Experiment definitions: one function per table/figure of Section 6.

Each function returns ``(title, rows)`` where the rows carry the same
quantities the paper reports (relative size / running time per
dataset and algorithm, or per parameter value).  The bench modules
under ``benchmarks/`` wrap these in pytest-benchmark tests and save
the rendered tables.

Scale note (DESIGN.md, substitutions): datasets are synthetic scaled
analogs and the default ``T`` is 20 (``REPRO_BENCH_T`` overrides), so
absolute numbers differ from the paper; the *shape* — orderings,
rough factors, crossovers — is the reproduction target recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Callable

from repro.algorithms import (
    GreedySummarizer,
    LDMESummarizer,
    MagsDMSummarizer,
    MagsSummarizer,
    SluggerSummarizer,
    Summarizer,
    SWeGSummarizer,
)
from repro.algorithms.parallel import partition_speedup
from repro.bench.runner import (
    bench_iterations,
    get_graph,
    quick_mode,
    run_grid,
    run_on_dataset,
)
from repro.graph.datasets import (
    DATASETS,
    LARGE_DATASETS,
    MEDIUM_DATASETS,
    SMALL_DATASETS,
    dataset_codes,
)
from repro.graph.stats import graph_stats

__all__ = [
    "table2_dataset_statistics",
    "fig4_fig6_small_graphs",
    "fig5_fig7_large_graphs",
    "fig8_mags_ablation",
    "fig9_fig10_magsdm_ablation",
    "fig11_fig12_iterations_sweep",
    "fig13_parallel_speedup",
    "fig14_b_sweep",
    "fig15_h_sweep",
    "fig16_k_sweep",
    "table3_pagerank",
    "neighbor_query_cost",
    "service_throughput",
    "mixed_ingest_throughput",
    "compactness_drift",
    "small_codes",
    "large_codes",
    "medium_codes",
]

#: LDME signature length adapted to analog scale (DESIGN.md): the
#: paper's k=5 assumes real-graph degree scales; at analog degrees an
#: exact 5-tuple match almost never fires.
_LDME_K = 2


def small_codes() -> list[str]:
    """Small-graph codes (quick mode keeps a representative trio)."""
    return SMALL_DATASETS[:3] if quick_mode() else list(SMALL_DATASETS)


def large_codes() -> list[str]:
    """Large-graph codes (quick mode keeps the three fastest)."""
    return ["AM", "CN", "YT"] if quick_mode() else list(LARGE_DATASETS)


def medium_codes() -> list[str]:
    """Parameter-analysis codes (paper: YT, SK, IN, LJ, IC, HO)."""
    return ["YT", "SK"] if quick_mode() else list(MEDIUM_DATASETS)


def _standard_factories(T: int) -> dict[str, Callable[[], Summarizer]]:
    return {
        "Mags": lambda: MagsSummarizer(iterations=T),
        "Mags-DM": lambda: MagsDMSummarizer(iterations=T),
        "Greedy": lambda: GreedySummarizer(),
        "LDME": lambda: LDMESummarizer(
            iterations=T, signature_length=_LDME_K
        ),
        "Slugger": lambda: SluggerSummarizer(iterations=T),
    }


# ----------------------------------------------------------------------
# Table 2
# ----------------------------------------------------------------------
def table2_dataset_statistics() -> tuple[str, list[dict]]:
    """Table 2: dataset statistics, paper originals vs. analogs."""
    rows = []
    for code in dataset_codes():
        spec = DATASETS[code]
        stats = graph_stats(get_graph(code))
        rows.append(
            {
                "dataset": code,
                "type": spec.kind,
                "paper_n": spec.paper_n,
                "paper_m": spec.paper_m,
                "paper_davg": spec.paper_davg,
                "analog_n": stats.n,
                "analog_m": stats.m,
                "analog_davg": round(stats.avg_degree, 2),
            }
        )
    return "Table 2: dataset statistics (paper vs. synthetic analog)", rows


# ----------------------------------------------------------------------
# Figures 4-7: main comparison
# ----------------------------------------------------------------------
def fig4_fig6_small_graphs() -> tuple[str, list[dict]]:
    """Figures 4 and 6: compactness and time on small graphs
    (all five algorithms, including Greedy)."""
    T = bench_iterations()
    rows = run_grid(small_codes(), _standard_factories(T))
    return (
        f"Figures 4/6: small graphs, all algorithms (T={T})",
        rows,
    )


def fig5_fig7_large_graphs() -> tuple[str, list[dict]]:
    """Figures 5 and 7: compactness and time on large graphs.

    Greedy is absent (the paper's 24h timeout); Slugger is skipped on
    UK and IT, matching the paper's reported timeouts.
    """
    T = bench_iterations()
    factories = _standard_factories(T)
    factories.pop("Greedy")
    skip = {("Slugger", "UK"), ("Slugger", "IT")}
    rows = run_grid(large_codes(), factories, skip=skip)
    return (
        f"Figures 5/7: large graphs (no Greedy; Slugger skipped on UK/IT, "
        f"as in the paper) (T={T})",
        rows,
    )


# ----------------------------------------------------------------------
# Figure 8: Mags ablation
# ----------------------------------------------------------------------
def fig8_mags_ablation() -> tuple[str, list[dict]]:
    """Figure 8: Mags vs Mags (naive CG) vs Greedy.

    Reports compactness, total time, and the candidate-generation
    phase time (Figure 8d plots CG time separately).
    """
    T = bench_iterations()
    codes = small_codes() + (["AM", "CN"] if not quick_mode() else [])
    rows: list[dict] = []
    for code in codes:
        variants: list[tuple[str, Callable[[], Summarizer]]] = [
            ("Mags", lambda: MagsSummarizer(iterations=T)),
            (
                "Mags (naive CG)",
                lambda: MagsSummarizer(
                    iterations=T, candidate_method="naive"
                ),
            ),
        ]
        if code in SMALL_DATASETS:
            variants.append(("Greedy", lambda: GreedySummarizer()))
        for label, factory in variants:
            result = run_on_dataset(code, factory)
            rows.append(
                {
                    "dataset": code,
                    "algorithm": label,
                    "relative_size": result.relative_size,
                    "time_s": result.runtime_seconds,
                    "cg_time_s": result.phase_seconds.get(
                        "candidate_generation"
                    ),
                }
            )
    return f"Figure 8: Mags technique ablation (T={T})", rows


# ----------------------------------------------------------------------
# Figures 9-10: Mags-DM ablation
# ----------------------------------------------------------------------
def fig9_fig10_magsdm_ablation() -> tuple[str, list[dict]]:
    """Figures 9/10: Mags-DM vs no-DS vs no-MS vs SWeG."""
    T = bench_iterations()
    codes = small_codes() + (["AM", "YT", "CN"] if not quick_mode() else [])
    factories: dict[str, Callable[[], Summarizer]] = {
        "Mags-DM": lambda: MagsDMSummarizer(iterations=T),
        "Mags-DM (no DS)": lambda: MagsDMSummarizer(
            iterations=T, dividing_strategy=False
        ),
        "Mags-DM (no MS)": lambda: MagsDMSummarizer(
            iterations=T,
            node_selection="top_1",
            similarity="super_jaccard",
            threshold="theta",
        ),
        "SWeG": lambda: SWeGSummarizer(iterations=T),
    }
    rows = run_grid(codes, factories)
    return f"Figures 9/10: Mags-DM strategy ablation (T={T})", rows


# ----------------------------------------------------------------------
# Figures 11-12: iteration sweep
# ----------------------------------------------------------------------
def fig11_fig12_iterations_sweep() -> tuple[str, list[dict]]:
    """Figures 11/12: compactness and time vs T in {10..50}."""
    sweep = [10, 30, 50] if quick_mode() else [10, 20, 30, 40, 50]
    rows: list[dict] = []
    for code in medium_codes():
        for T in sweep:
            for label, factory in (
                ("Mags", lambda: MagsSummarizer(iterations=T)),
                ("Mags-DM", lambda: MagsDMSummarizer(iterations=T)),
            ):
                result = run_on_dataset(code, factory)
                rows.append(
                    {
                        "dataset": code,
                        "algorithm": label,
                        "T": T,
                        "relative_size": result.relative_size,
                        "time_s": result.runtime_seconds,
                    }
                )
    return "Figures 11/12: compactness and time vs T", rows


# ----------------------------------------------------------------------
# Figure 13: parallel speedup
# ----------------------------------------------------------------------
def fig13_parallel_speedup() -> tuple[str, list[dict]]:
    """Figure 13: modelled parallel speedup vs thread count p.

    Substitution (DESIGN.md): CPython threads cannot show CPU speedup,
    so the series is derived from the *measured work partition* of
    each algorithm's parallel structure:

    * Mags-DM parallelises over disjoint divide groups; its per-round
      work items are the squared group sizes (the merge loop is
      quadratic in group size), packed LPT onto p workers, with a 3%
      per-round synchronisation charge for the shared P/W updates.
      The group cap M is scaled to the analog size (paper: M = 500
      against n in the tens of millions; the same M/n ratio here
      keeps the number of groups, and hence the achievable balance,
      proportionate).
    * Mags parallelises each iteration's merge batch; merges that
      touch connected super-nodes conflict (Section 5.1 groups pairs
      "by connectivity"), so its work items are the connected
      components of the iteration's merge set, plus a 25% serial
      fraction for the serial updates of P, CP and H — the data-race
      limit behind the paper's observed ~3.4x at 40 cores.
    """
    T = bench_iterations()
    thread_counts = [1, 5, 10, 20, 40]
    rows: list[dict] = []
    for code in medium_codes():
        graph = get_graph(code)

        mags_dm = MagsDMSummarizer(
            iterations=T, max_group_size=max(16, graph.n // 100)
        )
        mags_dm.summarize(graph)
        dm_rounds = [
            [float(s) * s for s in sizes]
            for sizes in mags_dm.last_group_sizes
            if sizes
        ]

        mags = MagsSummarizer(iterations=T)
        mags.summarize(graph)
        mags_rounds = [
            _merge_batch_works(merges)
            for merges in mags.last_iteration_merges
            if merges
        ]

        for p in thread_counts:
            rows.append(
                {
                    "dataset": code,
                    "algorithm": "Mags-DM",
                    "p": p,
                    "speedup": _round_speedup(
                        dm_rounds, p, sync_fraction=0.03,
                        serial_fraction=0.02,
                    ),
                }
            )
            rows.append(
                {
                    "dataset": code,
                    "algorithm": "Mags",
                    "p": p,
                    "speedup": _round_speedup(
                        mags_rounds, p, sync_fraction=0.05,
                        serial_fraction=0.25,
                    ),
                }
            )
    return "Figure 13: parallel speedup vs p (work-partition model)", rows


def _merge_batch_works(merges: list[tuple[int, int]]) -> list[float]:
    """Connected components of one iteration's merge pairs.

    Each component is a serial chain (its merges conflict), so it is
    one work item; the item's weight is its merge count.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in merges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    sizes: dict[int, float] = {}
    for u, v in merges:
        root = find(u)
        sizes[root] = sizes.get(root, 0.0) + 1.0
    return list(sizes.values())


def _round_speedup(
    rounds: list[list[float]],
    workers: int,
    sync_fraction: float,
    serial_fraction: float,
) -> float:
    """Aggregate the per-round partition model into one speedup."""
    total = sum(sum(r) for r in rounds)
    if total == 0 or workers == 1:
        return 1.0
    parallel_time = 0.0
    for works in rounds:
        round_total = sum(works)
        round_speedup = partition_speedup(works, workers)
        parallel_time += round_total / round_speedup
        parallel_time += sync_fraction * round_total
    parallel_time += serial_fraction * total
    return total / parallel_time


# ----------------------------------------------------------------------
# Figures 14-16: parameter sweeps
# ----------------------------------------------------------------------
def fig14_b_sweep() -> tuple[str, list[dict]]:
    """Figure 14: compactness vs b in {3..7} for Mags and Mags-DM."""
    sweep = [3, 5, 7] if quick_mode() else [3, 4, 5, 6, 7]
    return "Figure 14: compactness vs b", _param_sweep(
        "b",
        sweep,
        mags=lambda T, b: MagsSummarizer(iterations=T, b=b),
        mags_dm=lambda T, b: MagsDMSummarizer(iterations=T, b=b),
    )


def fig15_h_sweep() -> tuple[str, list[dict]]:
    """Figure 15: compactness vs h in {10..50} for Mags and Mags-DM."""
    sweep = [10, 30, 50] if quick_mode() else [10, 20, 30, 40, 50]
    return "Figure 15: compactness vs h", _param_sweep(
        "h",
        sweep,
        mags=lambda T, h: MagsSummarizer(iterations=T, h=h),
        mags_dm=lambda T, h: MagsDMSummarizer(iterations=T, h=h),
    )


def fig16_k_sweep() -> tuple[str, list[dict]]:
    """Figure 16: compactness vs k in {10..50} for Mags."""
    sweep = [10, 30, 50] if quick_mode() else [10, 20, 30, 40, 50]
    return "Figure 16: compactness vs k (Mags)", _param_sweep(
        "k",
        sweep,
        mags=lambda T, k: MagsSummarizer(iterations=T, k=k),
        mags_dm=None,
    )


def _param_sweep(
    param: str,
    values: list[int],
    mags: Callable[[int, int], Summarizer] | None,
    mags_dm: Callable[[int, int], Summarizer] | None,
) -> list[dict]:
    T = bench_iterations()
    rows: list[dict] = []
    for code in medium_codes():
        for value in values:
            for label, make in (("Mags", mags), ("Mags-DM", mags_dm)):
                if make is None:
                    continue
                result = run_on_dataset(code, lambda: make(T, value))
                rows.append(
                    {
                        "dataset": code,
                        "algorithm": label,
                        param: value,
                        "relative_size": result.relative_size,
                        "time_s": result.runtime_seconds,
                    }
                )
    return rows


# ----------------------------------------------------------------------
# Table 3 and Section 6.6
# ----------------------------------------------------------------------
_TABLE3_CODES = [
    "SL", "DB", "AM", "CN", "YT", "SK", "IN", "EU", "ES", "LJ",
    "HO", "IC", "UK", "IT",
]


def table3_pagerank() -> tuple[str, list[dict]]:
    """Table 3: PageRank on the input graph vs. on the summary.

    The summary is produced by Mags-DM (the paper runs its own
    methods; Mags-DM is the fast one).  Reports both times and the
    summary's relative size, since the paper's discussion ties the
    query speedup to compactness.
    """
    import time

    from repro.queries.pagerank import SummaryPageRank, pagerank_input_graph

    T = bench_iterations()
    codes = ["SL", "DB", "AM"] if quick_mode() else list(_TABLE3_CODES)
    damping, pr_iters = 0.85, 20
    rows: list[dict] = []
    for code in codes:
        graph = get_graph(code)
        result = run_on_dataset(
            code, lambda: MagsDMSummarizer(iterations=T)
        )
        start = time.perf_counter()
        pagerank_input_graph(graph, damping, pr_iters)
        input_time = time.perf_counter() - start
        engine = SummaryPageRank(result.representation)
        start = time.perf_counter()
        engine.run(damping, pr_iters)
        summary_time = time.perf_counter() - start
        rows.append(
            {
                "dataset": code,
                "input_graph_s": input_time,
                "summary_s": summary_time,
                "relative_size": result.relative_size,
            }
        )
    return "Table 3: PageRank running time (input graph vs summary)", rows


def neighbor_query_cost() -> tuple[str, list[dict]]:
    """Section 6.6: expected neighbor-query cost vs 1.12 * d_avg."""
    from repro.queries.neighbors import SummaryNeighborIndex

    T = bench_iterations()
    codes = small_codes() if quick_mode() else small_codes() + ["AM", "YT"]
    rows: list[dict] = []
    for code in codes:
        graph = get_graph(code)
        result = run_on_dataset(
            code, lambda: MagsDMSummarizer(iterations=T)
        )
        index = SummaryNeighborIndex(result.representation)
        total_work = sum(index.work_units(q) for q in range(graph.n))
        avg_work = total_work / graph.n if graph.n else 0.0
        rows.append(
            {
                "dataset": code,
                "avg_query_work": avg_work,
                "d_avg": graph.avg_degree,
                "ratio": avg_work / graph.avg_degree
                if graph.avg_degree
                else 0.0,
            }
        )
    return "Section 6.6: neighbor query cost vs d_avg (bound: 1.12)", rows


def service_throughput(
    threads: int = 8, rounds: int = 2
) -> tuple[str, list[dict]]:
    """Closed-loop load test of the summary query service.

    Summarizes a community graph, serves it with
    :class:`repro.service.server.SummaryQueryServer`, and drives it
    with ``threads`` closed-loop clients (each thread waits for its
    response before sending the next request — the classic
    closed-loop load model, so throughput = concurrency / latency).

    Three phases over the same node set: ``cold`` (empty LRU, every
    expansion a miss), ``warm`` (same nodes again, served from
    cache), and ``warm-batch`` (warm cache, 64 queries per request).
    Expected shape: warm throughput strictly above cold, batch qps
    above single-request warm.
    """
    import threading as _threading
    import time as _time

    from repro.graph import generators
    from repro.service import (
        QueryEngine,
        SummaryQueryServer,
        SummaryServiceClient,
    )

    n = 400 if quick_mode() else 1200
    graph = generators.planted_partition(
        n, n // 30, p_in=0.4, p_out=0.004, seed=11
    )
    T = bench_iterations()
    rep = MagsDMSummarizer(iterations=T, seed=0).summarize(
        graph
    ).representation

    engine = QueryEngine(rep, cache_size=n)
    server = SummaryQueryServer(engine, workers=threads).start()
    host, port = server.address
    rows: list[dict] = []
    try:
        shards = [list(range(t, n, threads)) for t in range(threads)]

        def run_phase(send_shard, phase_rounds: int) -> dict:
            latencies: list[list[float]] = [[] for _ in range(threads)]
            barrier = _threading.Barrier(threads + 1)

            def worker(tid: int) -> None:
                with SummaryServiceClient(host, port) as client:
                    barrier.wait()
                    for _ in range(phase_rounds):
                        send_shard(client, shards[tid], latencies[tid])
                client_done[tid] = True

            client_done = [False] * threads
            pool = [
                _threading.Thread(target=worker, args=(t,))
                for t in range(threads)
            ]
            for thread in pool:
                thread.start()
            barrier.wait()
            started = _time.perf_counter()
            for thread in pool:
                thread.join()
            elapsed = _time.perf_counter() - started
            if not all(client_done):
                raise RuntimeError("load-generator thread died")
            flat = sorted(x for shard in latencies for x in shard)
            queries = len(flat)

            def pct(p: float) -> float:
                rank = max(1, -(-queries * int(p * 100) // 10000))
                return round(1000.0 * flat[rank - 1], 3)

            return {
                "threads": threads,
                "queries": queries,
                "qps": round(queries / elapsed, 1),
                "p50_ms": pct(50),
                "p95_ms": pct(95),
                "p99_ms": pct(99),
            }

        def send_single(client, shard, out) -> None:
            for node in shard:
                t0 = _time.perf_counter()
                client.neighbors(node)
                out.append(_time.perf_counter() - t0)

        def send_batch(client, shard, out) -> None:
            for start in range(0, len(shard), 64):
                chunk = shard[start:start + 64]
                requests = [
                    {"id": i, "op": "neighbors", "node": node}
                    for i, node in enumerate(chunk)
                ]
                t0 = _time.perf_counter()
                responses = client.batch(requests)
                per_query = (_time.perf_counter() - t0) / len(chunk)
                if any(not r["ok"] for r in responses):
                    raise RuntimeError("batch returned an error response")
                out.extend(per_query for _ in chunk)

        # The cold phase runs exactly one pass so every expansion is a
        # genuine miss; warm phases repeat to accumulate samples.
        for phase, sender, phase_rounds in (
            ("cold", send_single, 1),
            ("warm", send_single, rounds),
            ("warm-batch", send_batch, rounds),
        ):
            stats = engine.metrics.snapshot()
            row = {"phase": phase, **run_phase(sender, phase_rounds)}
            after = engine.metrics.snapshot()
            hits = after["cache"]["hits"] - stats["cache"]["hits"]
            misses = after["cache"]["misses"] - stats["cache"]["misses"]
            lookups = hits + misses
            row["hit_rate"] = round(hits / lookups, 3) if lookups else 0.0
            rows.append(row)
    finally:
        server.close()
    return (
        f"Service throughput: {threads} closed-loop clients, "
        f"n={n} (cold vs warm LRU)",
        rows,
    )


def cluster_throughput(
    shard_counts: tuple[int, ...] = (1, 2, 4),
    threads: int = 4,
    rounds: int = 3,
    batch: int = 256,
) -> tuple[str, list[dict]]:
    """Cluster load harness: 1 -> 2 -> 4 shards behind the router.

    Every configuration runs the *same* wire path — real
    ``repro serve`` subprocesses per shard with an in-process
    :class:`repro.cluster.router.RouterEngine` served in front — so
    the single-shard row is an honest baseline, not a shortcut around
    the router.  Closed-loop clients stream seeded-shuffled
    ``degree`` batches over the full node range after a warmup pass,
    so every instance's LRU sits at steady state while measuring.

    On a single-core box the scaling comes from *aggregate cache
    capacity*, the same effect that motivates sharding a summary too
    big for one node's memory: each instance holds ``cache_size``
    expansions of a dense summary (miss/hit wire cost ratio ~11x on
    this workload), so S shards cache S times more of the node range
    and the miss fraction collapses as S grows.

    Aggregate rows carry client-side per-query percentiles (via a
    :class:`repro.obs.metrics.Histogram`) and the speedup over the
    single-shard baseline; per-shard rows report each instance's own
    server-side ``batch`` latency percentiles (per forwarded
    sub-batch, not per query) straight from its ``stats`` snapshot.
    """
    import random as _random
    import socket as _socket
    import tempfile as _tempfile
    import threading as _threading
    import time as _time

    from repro.cluster import ClusterManager, plan_cluster
    from repro.cluster.topology import InstanceSpec, default_spec
    from repro.graph import generators
    from repro.obs.metrics import MetricsRegistry
    from repro.service import SummaryServiceClient

    # Dense two-community graph: d_avg ~ n/3.3, so a cache miss (one
    # neighborhood expansion) costs ~11x a cache hit on the wire.
    # cache_size is ~40% of n: 1 shard misses ~60% of a uniform scan,
    # 2 shards ~20%, 4 shards fit their owned range entirely.
    n = 1024 if quick_mode() else 2048
    cache_size = n * 2 // 5
    graph = generators.planted_partition(
        n, 2, p_in=0.6, p_out=0.001, seed=11
    )
    registry = MetricsRegistry()
    rows: list[dict] = []

    def free_ports(count: int) -> list[int]:
        sockets, ports = [], []
        for _ in range(count):
            sock = _socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
        for sock in sockets:
            sock.close()
        return ports

    def run_config(shards: int, tmp: str) -> None:
        spec = default_spec(shards, 1, seed=0)
        ports = free_ports(len(spec.instances) + 1)
        spec.router_port = ports[0]
        spec.instances = [
            InstanceSpec(i.shard, i.replica, i.host, port)
            for i, port in zip(spec.instances, ports[1:])
        ]
        plan_cluster(
            graph, spec, tmp, lambda: MagsDMSummarizer(iterations=3, seed=0)
        )
        config = f"{shards}-shard"
        hist = registry.histogram("cluster_query_seconds", shards=shards)
        # threads+1 workers per instance: the router's pool may hold
        # `threads` persistent connections, and the per-shard stats
        # probe below still needs a free worker to be served.
        manager = ClusterManager(
            spec, workers=threads + 1, cache_size=cache_size
        )
        try:
            manager.start_instances()
            manager.start_router(workers=threads)
            host, port = spec.router_address
            barrier = _threading.Barrier(threads + 1)
            failures: list[str] = []

            def one_pass(client, order, record: bool) -> None:
                for start in range(0, len(order), batch):
                    chunk = order[start:start + batch]
                    requests = [
                        {"id": i, "op": "degree", "node": node}
                        for i, node in enumerate(chunk)
                    ]
                    t0 = _time.perf_counter()
                    responses = client.batch(requests)
                    per_query = (_time.perf_counter() - t0) / len(chunk)
                    bad = [r for r in responses if not r["ok"]]
                    if bad:
                        raise RuntimeError(f"batch error: {bad[0]}")
                    if record:
                        for _ in chunk:
                            hist.observe(per_query)

            def worker(tid: int) -> None:
                rng = _random.Random(97 + tid)
                order = list(range(n))
                rng.shuffle(order)
                try:
                    with SummaryServiceClient(host, port) as client:
                        one_pass(client, order, record=False)  # warmup
                        barrier.wait()
                        for _ in range(rounds):
                            one_pass(client, order, record=True)
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(repr(exc))
                    barrier.abort()

            pool = [
                _threading.Thread(target=worker, args=(t,))
                for t in range(threads)
            ]
            for thread in pool:
                thread.start()
            barrier.wait()
            started = _time.perf_counter()
            for thread in pool:
                thread.join()
            elapsed = _time.perf_counter() - started
            if failures:
                raise RuntimeError(
                    f"{config}: load generator failed: {failures[:3]}"
                )

            hits = misses = 0
            shard_rows: list[dict] = []
            for shard in range(shards):
                inst = spec.instances_for(shard)[0]
                with SummaryServiceClient(*inst.address) as client:
                    stats = client.stats()
                if stats["errors_total"]:
                    raise RuntimeError(
                        f"{config}: {inst.label} served "
                        f"{stats['errors_total']} error(s)"
                    )
                hits += stats["cache"]["hits"]
                misses += stats["cache"]["misses"]
                latency = stats["latency_ms"].get("batch", {})
                shard_rows.append({
                    "config": config,
                    "scope": inst.label,
                    "queries": stats["batch"]["queries"],
                    "qps": round(stats["batch"]["queries"] / elapsed, 1),
                    "p50_ms": latency.get("p50_ms", 0.0),
                    "p95_ms": latency.get("p95_ms", 0.0),
                    "p99_ms": latency.get("p99_ms", 0.0),
                    "hit_rate": stats["cache"]["hit_rate"],
                    "speedup": "",
                })
            snap = hist.snapshot()
            lookups = hits + misses
            rows.append({
                "config": config,
                "scope": "aggregate",
                "queries": int(snap["count"]),
                "qps": round(snap["count"] / elapsed, 1),
                "p50_ms": round(1000.0 * snap["p50"], 3),
                "p95_ms": round(1000.0 * snap["p95"], 3),
                "p99_ms": round(1000.0 * snap["p99"], 3),
                "hit_rate": round(hits / lookups, 3) if lookups else 0.0,
                "speedup": 1.0,
            })
            rows.extend(shard_rows)
        finally:
            manager.stop()

    for shards in shard_counts:
        with _tempfile.TemporaryDirectory() as tmp:
            run_config(shards, tmp)

    aggregates = [r for r in rows if r["scope"] == "aggregate"]
    baseline = aggregates[0]["qps"]
    for row in aggregates:
        row["speedup"] = round(row["qps"] / baseline, 2)
    return (
        f"Cluster serving throughput: {threads} closed-loop clients, "
        f"n={n}, degree batches of {batch}, shards "
        f"{'/'.join(str(s) for s in shard_counts)}",
        rows,
    )


def mixed_ingest_throughput(
    threads: int = 8, ops_per_thread: int = 250
) -> tuple[str, list[dict]]:
    """Durable ingest under mixed read/write load (90/10 and 50/50).

    Serves a summary through a WAL-backed (``fsync=always``)
    :class:`repro.service.ingest.MutableQueryEngine` and drives it
    with ``threads`` closed-loop clients, each interleaving
    ``neighbors`` reads with acknowledged single-edge ``ingest``
    writes at the phase's write fraction.  Each thread toggles its
    own disjoint pool of non-edges (insert, then delete, then insert
    again), so every mutation is valid regardless of interleaving and
    the server-side dry-run never rejects.

    Reported per mix: sustained totals, write (ack) throughput —
    i.e. durable edges/sec, each one fsynced before the ack — and
    separate read/write latency percentiles, so the read-latency
    price of a write-heavy mix is visible directly.  The experiment
    asserts no acknowledged write was lost: the final epoch must
    equal the number of acks.
    """
    import tempfile
    import threading as _threading
    import time as _time

    from repro.durability.wal import WriteAheadLog
    from repro.dynamic.summary import DynamicGraphSummary
    from repro.graph import generators
    from repro.service import SummaryQueryServer, SummaryServiceClient
    from repro.service.ingest import MutableQueryEngine

    n = 400 if quick_mode() else 1200
    if quick_mode():
        ops_per_thread = min(ops_per_thread, 100)
    graph = generators.planted_partition(
        n, n // 30, p_in=0.4, p_out=0.004, seed=11
    )
    T = bench_iterations()
    rep = MagsDMSummarizer(iterations=T, seed=0).summarize(
        graph
    ).representation

    # Disjoint per-thread pools of toggleable non-edges.
    pool_size = 32
    edges = set(graph.edges())
    free: list[tuple[int, int]] = []
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges:
                free.append((u, v))
                if len(free) >= threads * pool_size:
                    break
        if len(free) >= threads * pool_size:
            break

    def pct(sorted_s: list[float], p: int) -> float:
        rank = max(1, -(-len(sorted_s) * p // 100))
        return round(1000.0 * sorted_s[rank - 1], 3)

    rows: list[dict] = []
    for mix, write_frac in (("90/10", 0.10), ("50/50", 0.50)):
        with tempfile.TemporaryDirectory() as tmp:
            wal = WriteAheadLog(tmp, fsync="always")
            engine = MutableQueryEngine(
                DynamicGraphSummary.from_representation(rep),
                wal=wal,
                cache_size=n,
                max_inflight=2 * threads,
            )
            server = SummaryQueryServer(engine, workers=threads).start()
            host, port = server.address
            read_lat: list[list[float]] = [[] for _ in range(threads)]
            write_lat: list[list[float]] = [[] for _ in range(threads)]
            barrier = _threading.Barrier(threads + 1)
            problems: list[str] = []

            def worker(tid: int) -> None:
                import random as _random

                rng = _random.Random(7000 + tid)
                mine = free[tid * pool_size:(tid + 1) * pool_size]
                present = [False] * len(mine)
                cursor = 0
                with SummaryServiceClient(host, port) as client:
                    barrier.wait()
                    for _ in range(ops_per_thread):
                        if rng.random() < write_frac:
                            slot = cursor % len(mine)
                            cursor += 1
                            u, v = mine[slot]
                            sign = "-" if present[slot] else "+"
                            present[slot] = not present[slot]
                            t0 = _time.perf_counter()
                            result = client.ingest([[sign, u, v]])
                            write_lat[tid].append(
                                _time.perf_counter() - t0
                            )
                            if result.get("applied") != 1:
                                problems.append(f"bad ack: {result}")
                        else:
                            node = rng.randrange(n)
                            t0 = _time.perf_counter()
                            client.neighbors(node)
                            read_lat[tid].append(
                                _time.perf_counter() - t0
                            )

            try:
                pool = [
                    _threading.Thread(target=worker, args=(t,))
                    for t in range(threads)
                ]
                for thread in pool:
                    thread.start()
                barrier.wait()
                started = _time.perf_counter()
                for thread in pool:
                    thread.join()
                elapsed = _time.perf_counter() - started
                if problems:
                    raise RuntimeError(problems[0])
                reads = sorted(x for lat in read_lat for x in lat)
                writes = sorted(x for lat in write_lat for x in lat)
                # Zero acknowledged-but-lost: every ack is one commit.
                if engine.epoch != len(writes):
                    raise RuntimeError(
                        f"{len(writes)} acks but epoch={engine.epoch}"
                    )
                rows.append(
                    {
                        "mix": mix,
                        "threads": threads,
                        "reads": len(reads),
                        "writes": len(writes),
                        "total_qps": round(
                            (len(reads) + len(writes)) / elapsed, 1
                        ),
                        "writes_per_s": round(len(writes) / elapsed, 1),
                        "read_p50_ms": pct(reads, 50),
                        "read_p99_ms": pct(reads, 99),
                        "write_p50_ms": pct(writes, 50),
                        "write_p99_ms": pct(writes, 99),
                    }
                )
            finally:
                server.close()
                wal.close()
    return (
        f"Durable mixed read/write serving: {threads} closed-loop "
        f"clients, n={n}, WAL fsync=always",
        rows,
    )


def compactness_drift(
    total_mutations: int = 10_000,
    checkpoints: int = 5,
) -> tuple[str, list[dict]]:
    """Compactness drift under sustained structured mutations, with
    and without background maintenance.

    The corrections overlay freezes the super-node structure, so a
    mutation stream that *changes the community structure* (here: the
    planted blocks are gradually rewired into an orthogonal residue
    grouping) makes the live summary drift — corrections pile up
    against a partition that no longer matches the graph.  Three
    tracks over the same deterministic script:

    * ``drift``      — overlay only (``rebuild_factor=None``);
    * ``maintained`` — same engine plus periodic budgeted
      :meth:`~repro.service.ingest.MutableQueryEngine.maintenance_pass`
      ticks (the PR's background maintenance loop);
    * ``scratch``    — from-scratch re-summarization of the current
      graph at each checkpoint (the compactness floor).

    Reported per checkpoint: live cost/m per track and each live
    track's ratio to scratch.  The acceptance bar: after the full
    stream the maintained ratio stays within 1.15x of scratch while
    the unmaintained overlay drifts past 1.5x.
    """
    import random as _random

    from repro.dynamic.maintenance import MaintenanceTask
    from repro.dynamic.summary import DynamicGraphSummary
    from repro.graph import generators
    from repro.graph.graph import Graph
    from repro.service.ingest import MutableQueryEngine

    quick = quick_mode()
    n = 200 if quick else 600
    communities = 10 if quick else 20
    if quick:
        total_mutations = min(total_mutations, 600)
        checkpoints = min(checkpoints, 3)
    graph = generators.planted_partition(
        n, communities, p_in=0.6, p_out=0.01, seed=5
    )
    T = bench_iterations()
    factory = lambda: MagsDMSummarizer(iterations=T, seed=0)  # noqa: E731
    rep = factory().summarize(graph).representation

    # Deterministic rewiring script: the generator's communities are
    # residue classes (u % communities), so the orthogonal target is
    # consecutive blocks (u // block).  Delete edges crossing the
    # block grouping, insert the blocks' missing intra pairs — the
    # graph migrates to a structure orthogonal to the one the frozen
    # partition encodes.
    rng = _random.Random(17)
    edges = set(graph.edges())
    block = n // communities
    new_community = lambda x: x // block  # noqa: E731
    deletions = [
        e for e in sorted(edges) if new_community(e[0]) != new_community(e[1])
    ]
    rng.shuffle(deletions)
    insertions = []
    for start in range(0, n, block):
        members = range(start, min(start + block, n))
        for u in members:
            for v in members:
                if u < v and (u, v) not in edges:
                    insertions.append((u, v))
    rng.shuffle(insertions)
    script: list[tuple[str, int, int]] = []
    while len(script) < total_mutations and (deletions or insertions):
        if deletions:
            script.append(("-", *deletions.pop()))
        if insertions and len(script) < total_mutations:
            script.append(("+", *insertions.pop()))
    total_mutations = len(script)

    drift_engine = MutableQueryEngine(
        DynamicGraphSummary.from_representation(rep),
        cache_size=n,
    )
    maintained_engine = MutableQueryEngine(
        DynamicGraphSummary.from_representation(
            rep, summarizer_factory=factory
        ),
        cache_size=n,
    )
    task = MaintenanceTask(
        maintained_engine,
        interval=60.0,  # driven via run_once, never started
        max_supernodes=48,
        max_passes=64,
    )

    batch = 25
    maintenance_every = 10 if quick else 20  # batches between ticks
    step = max(1, total_mutations // checkpoints)
    marks = sorted(
        {min(k * step, total_mutations) for k in range(1, checkpoints)}
        | {total_mutations}
    )

    rows: list[dict] = []
    applied = 0
    seq = 0
    maintenance_passes = 0
    for start in range(0, total_mutations, batch):
        chunk = [list(op) for op in script[start:start + batch]]
        seq += 1
        for engine in (drift_engine, maintained_engine):
            ack = engine.ingest(f"bench-{id(engine)}", seq, chunk)
            if ack["applied"] != len(chunk):
                raise RuntimeError(f"bad ack: {ack}")
        applied += len(chunk)
        at_mark = bool(marks) and applied >= marks[0]
        if seq % maintenance_every == 0 or at_mark:
            maintenance_passes += task.run_once()["passes"]
        if at_mark:
            marks.pop(0)
            live = drift_engine.state.dynamic
            m = live.m
            current = Graph(n, live.to_representation().reconstruct_edges())
            scratch_cost = factory().summarize(current).representation.cost
            drift_cost = live.cost
            maintained_cost = maintained_engine.state.dynamic.cost
            rows.append(
                {
                    "mutations": applied,
                    "m": m,
                    "scratch_cost_per_m": round(scratch_cost / m, 4),
                    "maintained_cost_per_m": round(maintained_cost / m, 4),
                    "drift_cost_per_m": round(drift_cost / m, 4),
                    "maintained_ratio": round(
                        maintained_cost / scratch_cost, 4
                    ),
                    "drift_ratio": round(drift_cost / scratch_cost, 4),
                    "maintenance_passes": maintenance_passes,
                }
            )

    # Both live tracks must still decode to the same simulated graph.
    expect = set(
        Graph(n, (e for e in graph.edges())).edges()
    )
    for op, u, v in script:
        if op == "+":
            expect.add((u, v))
        else:
            expect.discard((u, v))
    for engine in (drift_engine, maintained_engine):
        got = set(engine.state.dynamic.to_representation().reconstruct_edges())
        if got != expect:
            raise RuntimeError("mutated summary no longer matches graph")
    return (
        f"Compactness drift over {total_mutations} structured "
        f"mutations, n={n} (maintained vs drift vs from-scratch)",
        rows,
    )
