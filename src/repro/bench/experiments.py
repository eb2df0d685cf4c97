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

from typing import Callable, Sequence

from repro.algorithms import (
    GreedySummarizer,
    LDMESummarizer,
    MagsDMSummarizer,
    MagsSummarizer,
    SluggerSummarizer,
    Summarizer,
    SWeGSummarizer,
)
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
    each algorithm's serial run, grouped as the paper's parallel
    structure would split it:

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


def lpt_partition(
    work_items: Sequence[float], workers: int
) -> list[list[int]]:
    """Longest-processing-time-first assignment of items to workers.

    Returns, for each worker, the indices of its assigned items.  The
    classic 4/3-approximation for makespan — adequate for modelling a
    static group-parallel schedule.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    assignment: list[list[int]] = [[] for _ in range(workers)]
    loads = [0.0] * workers
    order = sorted(range(len(work_items)), key=lambda i: -work_items[i])
    for index in order:
        target = loads.index(min(loads))
        assignment[target].append(index)
        loads[target] += work_items[index]
    return assignment


def partition_speedup(
    work_items: Sequence[float],
    workers: int,
    sync_overhead: float = 0.0,
    serial_fraction: float = 0.0,
) -> float:
    """Modelled speedup of a static group-parallel round (Figure 13).

    ``T_1`` is the total work; ``T_p`` is the LPT makespan plus a
    synchronisation charge per round plus any serial fraction (Mags's
    serial updates of ``P`` and ``H``; Amdahl).  Returns ``T_1/T_p``.
    """
    total = float(sum(work_items))
    if total == 0.0:
        return 1.0
    if workers == 1:
        return 1.0
    assignment = lpt_partition(work_items, workers)
    makespan = max(
        sum(work_items[i] for i in bucket) for bucket in assignment
    )
    serial = serial_fraction * total
    parallel_time = serial + (makespan - serial_fraction * makespan) + sync_overhead
    if parallel_time <= 0:
        return float(workers)
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
#: Interleaved runs per side whose median is a Table 3 time.
_TABLE3_RUNS = 5


def table3_pagerank() -> tuple[str, list[dict]]:
    """Table 3: PageRank on the input graph vs. on the summary.

    The summary is produced by Mags-DM (the paper runs its own
    methods; Mags-DM is the fast one).  Reports both times and the
    summary's relative size, since the paper's discussion ties the
    query speedup to compactness.

    The two sides are timed alike.  Each side's preparation is timed
    once and reported in its own column: ``InputGraphPageRank`` from
    the graph's CSR arrays (built and cached by Mags-DM's MinHash
    pass), ``SummaryPageRank`` from ``(S, C)``.  Each side's 20
    iterations are the median of ``_TABLE3_RUNS`` runs, the two sides
    interleaved so that a change of host speed hits both alike.
    """
    import statistics
    import time

    from repro.queries.pagerank import InputGraphPageRank, SummaryPageRank

    def timed(fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        return time.perf_counter() - start, value

    T = bench_iterations()
    codes = ["SL", "DB", "AM"] if quick_mode() else list(_TABLE3_CODES)
    damping, pr_iters = 0.85, 20
    rows: list[dict] = []
    for code in codes:
        graph = get_graph(code)
        result = run_on_dataset(
            code, lambda: MagsDMSummarizer(iterations=T)
        )
        input_prep, input_side = timed(InputGraphPageRank, graph)
        summary_prep, summary_side = timed(
            SummaryPageRank, result.representation
        )
        input_runs, summary_runs = [], []
        for _ in range(_TABLE3_RUNS):
            input_runs.append(timed(input_side.run, damping, pr_iters)[0])
            summary_runs.append(timed(summary_side.run, damping, pr_iters)[0])
        rows.append(
            {
                "dataset": code,
                "input_prep_s": input_prep,
                "input_graph_s": statistics.median(input_runs),
                "summary_prep_s": summary_prep,
                "summary_s": statistics.median(summary_runs),
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
