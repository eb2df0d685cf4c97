"""The three workloads: ``summarize``, ``read`` and ``ingest``.

Every workload reports every end-to-end metric, each one from the
workload's own work: the Mags-DM summary it builds (``relative_size``,
``summarize_s``) and the step its timed closed loop repeats
(``op_ms``, ``ops_per_s``).  A traced run reports every per-layer
metric: in-process timings of each layer on the workload's own summary
and inputs, and the server's telemetry as counts and shares, which
read 0 on a workload that runs no server or no WAL.  See README.md in
this directory for why each workload exists and which layers it
bypasses.
"""

from __future__ import annotations

import gc
import itertools
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import MagsDMSummarizer, MagsSummarizer
from repro.bench.runner import rss_peak_mb
from repro.core.serialization import load_representation, save_representation
from repro.dynamic import DynamicGraphSummary
from repro.obs.exporters import write_trace_jsonl
from repro.obs.tracer import NULL_TRACER, start_tracing, stop_tracing, use_tracer
from repro.queries.neighbors import SummaryNeighborIndex
from repro.queries.pagerank import SummaryPageRank, pagerank_input_graph
from repro.service.engine import QueryEngine
from repro.service.protocol import (
    decode_line,
    encode_message,
    validate_request,
    validate_response,
)

from perfbench import checks, inputs
from perfbench.measure import (
    HostWindow,
    Layers,
    REFERENCE_PROBE_S,
    Phase,
    Reference,
    beyond,
    metric,
    percentile,
)
from perfbench.server import Server, registry_histogram, registry_value

#: Iterations ``T`` of both summarizers, for the benchmark and for the
#: served artifact alike, and their random seed: the library default.
#: The workload seed picks the inputs, not the algorithm's own coin
#: flips, whose effect on run time would count as noise between seeds.
ITERATIONS = 20
SUMMARIZER_SEED = 0
#: ``summarize`` makes ``SUMMARIZE_ROUNDS_PER_SECOND`` rounds of
#: Mags-DM, an Alg. 7 burst and Mags per second of ``--seconds``, and
#: at least ``SUMMARIZE_MIN_ROUNDS``: a fixed count, so that the graphs
#: a seed's rounds use, and the relative sizes, do not depend on speed.
#: A round takes about two seconds.
SUMMARIZE_ROUNDS_PER_SECOND = 1.0
SUMMARIZE_MIN_ROUNDS = 4
#: Alg. 7 iterations per PageRank run (Table 3), and runs per burst.
PAGERANK_ITERATIONS = 20
PAGERANK_BURST = 40
#: Set-ups per run of a serving workload; ``setup_s`` is their median
#: and ``summarize_s`` the mean of their Mags-DM calls.
SETUP_REPEATS = 3
#: Probes per host-speed sample between the stretches of a set-up,
#: which last seconds each.
SETUP_PROBES = 10
#: SIGKILL-and-restart cycles per ``ingest`` run.
RECOVERY_REPEATS = 4
#: Read-cache capacity of the ``read`` server, as a share of n.
READ_CACHE_SHARE = 1 / 8
#: Warm-up requests before a timed phase (fills the cache).
WARMUP_READS = 3000
#: Served neighbor sets compared with the input adjacency after the
#: ``read`` timed phase.
NEIGHBOR_SAMPLE = 500
#: ``ingest``: batches acked during warm-up, and batches per second of
#: ``--seconds`` acked before the restarts, the WAL that each restart
#: replays (fixed work, so recovery does not move with write
#: throughput).
WARMUP_BATCHES = 20
RECOVERY_BATCHES_PER_SECOND = 400
#: A serving phase lasts ``SERVE_STRETCH`` times ``--seconds``, cut
#: into windows of ``WINDOW_S`` seconds.
SERVE_STRETCH = 1.5
WINDOW_S = 0.5
#: Percentile reported beside the median, in the diagnostics.
TAIL = 99
#: In-process layer probes of a traced run: keys looked up, protocol
#: frames replayed, Alg. 7 runs on a served summary, and script
#: batches replayed on the dynamic summary where the workload acked
#: none of its own.
PROBE_KEYS = 20_000
PROTOCOL_FRAMES = 2000
PROBE_PAGERANK_RUNS = 10
PROBE_BATCHES = 100
#: Tracing overhead: least block pairs, and the share of ``--seconds``
#: spent; steps per block for the serving workloads.
OVERHEAD_MIN_PAIRS = 10
OVERHEAD_SHARE = 0.5
OVERHEAD_BLOCK = 100

#: Per-layer metrics that a workload which makes no such call reports
#: as 0 (counts, and shares of measured time), by what it lacks.
WITHOUT_MAGS = {"mags.merges": "count"}
WITHOUT_SERVER = {
    "service.requests": "count",
    "service.cache_hit_rate": "ratio",
    "service.server_share": "ratio",
    "process.server_cpu_share": "ratio",
}
WITHOUT_WAL = {
    "durability.acks": "count",
    "durability.fsyncs_per_ack": "ratio",
    "durability.fsync_share": "ratio",
    "durability.wal_bytes_per_mutation": "B",
    "durability.replay_records": "count",
    "durability.replay_share": "ratio",
}


def _bypassed(*tables) -> dict:
    return {name: metric(0, unit) for table in tables for name, unit in table.items()}


@dataclass
class Outcome:
    """What one run measured and whether its outputs were right."""

    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.errors

    def check(self, fn, *args) -> None:
        """Run one correctness check, recording a failure."""
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.errors.append(str(exc))


@dataclass
class Context:
    """Where and how one run works."""

    src: Path
    workdir: Path
    seed: int
    seconds: float
    quick: bool = False
    layers: Layers = field(default_factory=Layers)
    #: Set-ups and restarts per run (one in a traced run).
    setups: int = SETUP_REPEATS
    restarts: int = RECOVERY_REPEATS

    def server(self, artifact: Path, options=()) -> Server:
        log = self.workdir / "server.log"
        return Server(self.src, artifact, log, options)


def _time(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _summarize_dm(graph):
    """Mags-DM on ``graph`` and its wall seconds."""
    return _time(
        MagsDMSummarizer(iterations=ITERATIONS, seed=SUMMARIZER_SEED).summarize, graph
    )


def _dm_layers(results) -> dict:
    """Mags-DM phase times (means over ``results``) and merges (total)."""
    layer = {
        f"mags_dm.{phase}_s": metric(
            statistics.fmean(r.phase_seconds.get(phase, 0.0) for r in results), "s"
        )
        for phase in ("signatures", "divide", "merge", "output")
    }
    layer["mags_dm.merges"] = metric(sum(r.num_merges for r in results), "count")
    return layer


# ----------------------------------------------------------------------
# summarize
# ----------------------------------------------------------------------
def _summarize_rounds(ctx: Context) -> tuple[list[dict], Reference]:
    """Rounds of: graph set-up, Mags-DM, an Alg. 7 burst on its
    summary, Mags; each round on its own graph.

    Each seed thus weighs the same number of graphs of the same shape,
    so one seed's graphs are no heavier or easier to compress than
    another's (single 600-node graphs differ by ~7% in relative size).
    The set-ups are spread over the run so that their median samples
    the whole run, like the timings, and the host speed is sampled
    before each piece (see ``measure.Reference``)."""
    layers = ctx.layers
    reference = Reference()
    rounds = []
    for graph_seed in inputs.summarize_seeds(ctx.seed, _summarize_round_count(ctx)):
        round_ = {}
        reference.sample()
        round_["graph"], round_["setup_s"] = _time(
            inputs.make_graph, graph_seed, ctx.quick, "summarize"
        )
        with layers.span("algorithms.mags_dm"):
            round_["dm"], round_["dm_s"] = _summarize_dm(round_["graph"])
        with layers.span("queries.pagerank_build"):
            engine, round_["build_s"] = _time(
                SummaryPageRank, round_["dm"].representation
            )
        round_["pagerank_s"] = []
        with layers.span("queries.pagerank_run", runs=PAGERANK_BURST):
            for _ in range(PAGERANK_BURST):
                round_["ranks"], run_s = _time(engine.run, 0.85, PAGERANK_ITERATIONS)
                round_["pagerank_s"].append(run_s)
        reference.sample()
        with layers.span("algorithms.mags"):
            round_["mags"], round_["mags_s"] = _time(
                MagsSummarizer(iterations=ITERATIONS, seed=SUMMARIZER_SEED).summarize,
                round_["graph"],
            )
        rounds.append(round_)
    reference.sample()
    return rounds, reference


def _summarize_round_count(ctx: Context) -> int:
    return max(SUMMARIZE_MIN_ROUNDS, round(SUMMARIZE_ROUNDS_PER_SECOND * ctx.seconds))


def summarize(ctx: Context, traced: bool) -> Outcome:
    """The timed step is one Alg. 7 run (20 iterations) on a round's
    Mags-DM summary.  ``op_ms`` is their mean, not their median: the
    runs of one burst come in streaks at two speeds (~0.46 and ~0.83
    ms on the host this was built on), so the median flips between the
    two from run to run while the mean holds."""
    out = Outcome()
    with HostWindow() as host:
        rounds, reference = _summarize_rounds(ctx)
    for round_ in rounds:
        graph = round_["graph"]
        edges = graph.edge_set()
        for name in ("dm", "mags"):
            result = round_[name]
            out.check(
                checks.check_lossless, result.algorithm, result.representation, edges
            )
        out.check(
            checks.check_pagerank, round_["ranks"],
            pagerank_input_graph(graph, 0.85, PAGERANK_ITERATIONS),
        )
    pagerank_s = [t for round_ in rounds for t in round_["pagerank_s"]]
    out.attempted = 2 * len(rounds) + len(pagerank_s)
    scale = reference.scale()

    def mean(key):
        return statistics.fmean(round_[key] for round_ in rounds)

    out.metrics = {
        "setup_s": metric(
            scale * statistics.median(r["setup_s"] for r in rounds), "s"
        ),
        "peak_rss_mb": metric(rss_peak_mb(), "MiB"),
        "relative_size": metric(
            statistics.fmean(r["dm"].relative_size for r in rounds), "ratio"
        ),
        "summarize_s": metric(scale * mean("dm_s"), "ref_s"),
        "op_ms": metric(1e3 * scale * statistics.fmean(pagerank_s), "ref_ms"),
        "ops_per_s": metric(len(pagerank_s) / (scale * sum(pagerank_s)), "ops/ref_s"),
    }
    out.diagnostics = {
        # Measured but not bounded: see README.md.
        "mags_summarize_s": scale * mean("mags_s"),
        "mags_relative_size": statistics.fmean(r["mags"].relative_size for r in rounds),
        "graphs": len(rounds),
        "n": rounds[0]["graph"].n,
        "m_mean": statistics.fmean(r["graph"].m for r in rounds),
        "probe_ms": 1e3 * reference.probe_s,
        "summarize_runs_s": [r["dm_s"] for r in rounds],
        "mags_runs_s": [r["mags_s"] for r in rounds],
        "pagerank_runs": len(pagerank_s),
        **{
            f"raw_pagerank_p{q}_ms": 1e3 * percentile(pagerank_s, q) for q in (50, TAIL)
        },
        "steal_share": host.steal_share,
        "client_cpu_s": host.client_cpu_s,
    }
    if traced:
        out.layers = _summarize_layers(ctx, rounds, pagerank_s, host, out)
    return out


def _summarize_layers(ctx, rounds: list[dict], pagerank_s, host, out: Outcome) -> dict:
    """Phase times (means over the rounds), exact merge counts (totals
    over the rounds' graphs) and the in-process probes on the first
    round's summary."""
    for phase in ("candidate_generation", "greedy_merge", "output"):
        out.diagnostics[f"mags.{phase}_s"] = statistics.fmean(
            r["mags"].phase_seconds.get(phase, 0.0) for r in rounds
        )
    graph = rounds[0]["graph"]
    script = list(itertools.islice(inputs.mutation_batches(graph, ctx.seed), PROBE_BATCHES))
    small = inputs.make_graph(ctx.seed, quick=True, kind="summarize")

    def step(label, i):
        with use_tracer(ctx.layers.tracer if label == "traced" else NULL_TRACER):
            _summarize_dm(small)
        return True

    return {
        **_dm_layers([r["dm"] for r in rounds]),
        "mags.merges": metric(sum(r["mags"].num_merges for r in rounds), "count"),
        "queries.pagerank_build_ms": metric(
            1e3 * statistics.fmean(r["build_s"] for r in rounds), "ms"
        ),
        "queries.pagerank_run_ms": metric(1e3 * statistics.fmean(pagerank_s), "ms"),
        **_probe_layers(
            ctx, out, rounds[0]["dm"].representation, graph,
            inputs.make_keys(graph, PROBE_KEYS, ctx.seed),
            max(1, int(graph.n * READ_CACHE_SHARE)), script,
            inputs.apply_batches(graph.edge_set(), script),
        ),
        "process.client_cpu_s": metric(host.client_cpu_s, "s"),
        # Alternating single Mags-DM calls on a quarter-size graph: the
        # summarizers are where tracing adds spans in this workload.
        "trace.overhead_ratio": metric(
            _tracing_overhead(ctx.seconds, step, out, block=1), "ratio"
        ),
        **_bypassed(WITHOUT_SERVER, WITHOUT_WAL),
    }


# ----------------------------------------------------------------------
# Shared by the serving workloads
# ----------------------------------------------------------------------
def _serve_artifact(ctx: Context, graph, name: str):
    """Summarize ``graph`` with Mags-DM and write the served artifact.
    Returns its path, the summarizer's result and its wall seconds."""
    result, seconds = _summarize_dm(graph)
    path = ctx.workdir / f"{name}.summary.gz"
    save_representation(path, result.representation)
    return path, result, seconds


def _warm_up(server: Server, keys) -> None:
    for node in keys:
        server.call({"op": "neighbors", "node": node})


def _served_neighbors(server: Server, nodes) -> list[bytes]:
    return [server.send({"op": "neighbors", "node": node}) for node in nodes]


def _is_ok(line: bytes) -> bool:
    return decode_line(line).get("ok") is True


def _timed_metrics(phase: Phase, starts, ops_per_step: int, series: dict):
    """End-to-end metrics of a closed-loop timed phase, in reference
    time (see ``measure.Phase``).

    Step ``i`` started at ``starts[i]`` and completed ``ops_per_step``
    requests; ``series`` maps a name to one latency per step, and its
    ``"op"`` entry is the whole step, whose median is ``op_ms``.
    Returns the metrics and, for the diagnostics, every series'
    percentiles with their sample counts and the raw figures.
    """
    scales = phase.scales(starts)
    busy_s = sum(w[1] - w[0] for w in phase.windows)
    samples = {
        "phase_s": phase.seconds,
        "probe_ms": 1e3 * phase.reference.probe_s,
        "raw_ops_per_s": ops_per_step * len(starts) / busy_s,
    }
    for name, values in series.items():
        scaled = [v * k for v, k in zip(values, scales)]
        for q in (50, TAIL):
            samples[f"{name}_p{q}_ms"] = 1e3 * percentile(scaled, q)
        samples[f"{name}_samples"] = len(values)
        samples[f"{name}_beyond_p{TAIL}"] = beyond(len(values), TAIL)
        samples[f"raw_{name}_p50_ms"] = 1e3 * percentile(values, 50)
    metrics = {
        "op_ms": metric(samples["op_p50_ms"], "ref_ms"),
        "ops_per_s": metric(
            ops_per_step * len(starts) / phase.reference_seconds(), "ops/ref_s"
        ),
    }
    return metrics, samples


def _telemetry_diff(before: list[dict], after: list[dict], op: str | None) -> dict:
    """Server-side counters over one timed phase, summed over the
    servers whose registries ``before`` and ``after`` hold; request
    counts and seconds are those of ``op``, or of every op."""
    def delta(name):
        return sum(
            registry_value(a, name) - registry_value(b, name)
            for b, a in zip(before, after)
        )

    ops = (op,) if op else ("neighbors", "ingest")

    def histogram(registries):
        pairs = [
            registry_histogram(r, "service_request_seconds", op=o)
            for r in registries for o in ops
        ]
        return sum(c for c, _ in pairs), sum(t for _, t in pairs)

    hits = delta("service_cache_hits_total")
    misses = delta("service_cache_misses_total")
    count1, sum1 = histogram(after)
    count0, sum0 = histogram(before)
    return {
        "cache_hit_rate": hits / max(1.0, hits + misses),
        "requests": count1 - count0,
        "server_s": sum1 - sum0,
    }


def _server_layers(before, after, client_s: float, server_cpu: float, client_cpu: float):
    """The server's telemetry over a timed phase, as counts and shares
    of the client-observed time and of the CPU time."""
    served = _telemetry_diff(before, after, None)
    return {
        "service.requests": metric(served["requests"], "count"),
        "service.cache_hit_rate": metric(served["cache_hit_rate"], "ratio"),
        "service.server_share": metric(served["server_s"] / client_s, "ratio"),
        "process.server_cpu_share": metric(
            server_cpu / max(1e-9, server_cpu + client_cpu), "ratio"
        ),
        "process.client_cpu_s": metric(client_cpu, "s"),
    }


def _setup_servers(ctx: Context, make) -> tuple:
    """Run ``make`` (one full set-up returning ``(server, state)``)
    ``ctx.setups`` times, keeping every server running.

    The host speed is sampled before and after each set-up and
    whenever ``make`` calls the ``pause`` it is given, between its
    steps; ``pause`` returns the sample.  Each stretch between two
    samples is rescaled to reference time by the mean of the two (see
    ``measure.Reference``), so that a slow spell counts against the
    step made in it, and the samples' own time is left out.  Returns
    ``(servers, last state, set-ups in reference seconds, raw set-up
    seconds)``."""
    reference = Reference()
    clock = {}

    def pause() -> float:
        now = time.perf_counter()
        probe = reference.sample(SETUP_PROBES)
        if clock:
            seconds = now - clock["t"]
            clock["raw"] += seconds
            clock["ref"] += seconds * 2 * REFERENCE_PROBE_S / (clock["probe"] + probe)
        clock["t"], clock["probe"] = time.perf_counter(), probe
        return probe

    servers, setups, raw = [], [], []
    try:
        pause()
        for i in range(ctx.setups):
            clock["raw"] = clock["ref"] = 0.0
            server, state = make(i, pause)
            servers.append(server)
            pause()
            setups.append(clock["ref"])
            raw.append(clock["raw"])
    except BaseException:
        for server in servers:
            server.kill()
        raise
    return servers, state, setups, raw


def _summarize_artifact(ctx: Context, graph, name: str, pause, results, dm_runs) -> Path:
    """:func:`_serve_artifact` between two host-speed samples: records
    the result and the call's reference and raw seconds.  The garbage left by
    earlier set-ups is collected first, so that no call pays for it."""
    gc.collect()
    before = pause()
    artifact, result, dm_s = _serve_artifact(ctx, graph, name)
    after = pause()
    results.append(result)
    dm_runs.append((dm_s * 2 * REFERENCE_PROBE_S / (before + after), dm_s))
    return artifact


def _setup_metrics(setups, results, dm_runs) -> dict:
    """``setup_s`` (the median set-up), and the served artifact's
    Mags-DM figures: its relative size and the mean set-up call in
    reference seconds.  Over two sets of ten seeds the mean of the
    calls spread by 0.07-0.13 of its median, their median by 0.09-0.21
    and their minimum by 0.08-0.14."""
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "relative_size": metric(results[-1].relative_size, "ratio"),
        "summarize_s": metric(statistics.fmean(ref for ref, _ in dm_runs), "ref_s"),
    }


def _trace_options(ctx: Context, traced: bool) -> list[str]:
    if not traced:
        return []
    return ["--trace-dir", str(ctx.workdir / "server-trace")]


def _server_spans(ctx: Context) -> int:
    """Span records the traced servers exported."""
    total = 0
    for path in (ctx.workdir / "server-trace").glob("*.jsonl*"):
        with path.open("rb") as handle:
            total += sum(1 for _ in handle)
    return total


def _per_call_us(layers: Layers, name: str, fn, args) -> float:
    """Mean microseconds of ``fn(a)`` over ``args``."""
    with layers.span(name, calls=len(args)) as box:
        for a in args:
            fn(a)
    return 1e6 * box["seconds"] / max(1, len(args))


def _probe_layers(
    ctx: Context, out: Outcome, rep, graph, keys, cache: int, script, expected,
    frames=None, pagerank: bool = False,
) -> dict:
    """In-process timings of the query, service and dynamic layers on a
    workload's own summary ``rep`` of ``graph``: Alg. 6 and the engine
    over ``keys``, the protocol over ``frames`` (built from the
    engine's answers when the workload has no served ones), the
    dynamic summary replaying ``script`` (which must leave it holding
    ``expected``), and, with ``pagerank``, Alg. 7."""
    layers = ctx.layers
    index = SummaryNeighborIndex(rep)
    d_avg = 2.0 * rep.m / rep.n
    work = sum(index.work_units(q) for q in range(rep.n)) / rep.n
    engine = QueryEngine(rep, cache_size=cache)
    warm, timed = keys[:WARMUP_READS], keys[WARMUP_READS:]
    for node in warm:
        engine.neighbors(node)
    if frames is None:
        frames = [
            (node, encode_message({"id": 1, "ok": True, "result": sorted(engine.neighbors(node))}))
            for node in timed[:PROTOCOL_FRAMES]
        ]

    def protocol_round(frame):
        node, response_line = frame
        request = {"id": 1, "op": "neighbors", "node": node}
        validate_request(decode_line(encode_message(request)))
        encode_message(validate_response(decode_line(response_line)))

    layer = {
        "queries.neighbor_work_ratio": metric(work / d_avg, "ratio"),
        "queries.neighbors_us": metric(
            _per_call_us(layers, "queries.neighbors", index.neighbors, timed), "us"
        ),
        "service.engine_neighbors_us": metric(
            _per_call_us(layers, "service.engine_neighbors", engine.neighbors, timed),
            "us",
        ),
        "service.protocol_us": metric(
            _per_call_us(layers, "service.protocol", protocol_round, frames), "us"
        ),
    }
    if pagerank:
        with layers.span("queries.pagerank_build") as box:
            ranker = SummaryPageRank(rep)
        layer["queries.pagerank_build_ms"] = metric(1e3 * box["seconds"], "ms")
        with layers.span("queries.pagerank_run", runs=PROBE_PAGERANK_RUNS) as box:
            for _ in range(PROBE_PAGERANK_RUNS):
                ranks = ranker.run(0.85, PAGERANK_ITERATIONS)
        layer["queries.pagerank_run_ms"] = metric(
            1e3 * box["seconds"] / PROBE_PAGERANK_RUNS, "ms"
        )
        out.check(
            checks.check_pagerank, ranks,
            pagerank_input_graph(graph, 0.85, PAGERANK_ITERATIONS),
        )

    dynamic = DynamicGraphSummary.from_representation(rep)

    def apply(mutation):
        sign, u, v = mutation
        if sign == "+":
            dynamic.insert_edge(u, v)
        else:
            dynamic.delete_edge(u, v)

    mutations = [m for batch in script for m in batch]
    layer["dynamic.apply_us"] = metric(
        _per_call_us(layers, "dynamic.apply", apply, mutations), "us"
    )
    out.check(
        checks.check_lossless, "in-process dynamic summary",
        dynamic.to_representation(), expected,
    )
    layer["dynamic.neighbors_us"] = metric(
        _per_call_us(layers, "dynamic.neighbors", dynamic.neighbors, timed), "us"
    )
    return layer


def _tracing_overhead(seconds: float, step, out: Outcome, block: int = OVERHEAD_BLOCK) -> float:
    """Tracing overhead from alternating traced and untraced blocks.

    ``step(label, i)`` makes step ``i`` with tracing on (``label`` is
    ``"traced"``) or off (``"plain"``) and says whether it succeeded.
    Blocks of ``block`` steps alternate between the two, and which goes
    first alternates too.  Returns the median over block pairs of the
    traced block's time over the plain one's: the two sides of each
    ratio ran moments apart, under the same host conditions.
    """
    ratios, i = [], 0
    deadline = time.perf_counter() + OVERHEAD_SHARE * seconds
    while len(ratios) < OVERHEAD_MIN_PAIRS or time.perf_counter() < deadline:
        took = {}
        order = ("plain", "traced") if len(ratios) % 2 == 0 else ("traced", "plain")
        for label in order:
            start = time.perf_counter()
            for j in range(i, i + block):
                out.attempted += 1
                if not step(label, j):
                    out.failed += 1
            took[label] = time.perf_counter() - start
        i += block
        ratios.append(took["traced"] / took["plain"])
    return statistics.median(ratios)


# ----------------------------------------------------------------------
# read
# ----------------------------------------------------------------------
def read(ctx: Context, traced: bool) -> Outcome:
    """The timed step is one ``neighbors`` request."""
    out = Outcome()
    results, dm_runs = [], []

    def make(i, pause):
        graph = inputs.make_graph(ctx.seed, ctx.quick)
        # Warm-up, then an ample timed stream (the phase stops on the clock).
        keys = inputs.make_keys(
            graph, WARMUP_READS + 40_000 * max(1, int(ctx.seconds)), ctx.seed
        )
        artifact = _summarize_artifact(ctx, graph, "read", pause, results, dm_runs)
        cache = max(1, int(graph.n * READ_CACHE_SHARE))
        server = ctx.server(
            artifact, ["--cache-size", str(cache), *_trace_options(ctx, traced)]
        )
        try:
            server.start()
            _warm_up(server, keys[:WARMUP_READS])
        except BaseException:
            server.kill()
            raise
        return server, (graph, keys, artifact, cache)

    # Every set-up's server stays up, and the timed phase moves to the
    # next one each window.  A server process can run ~20-25% slower
    # than its twin for its whole life (runs of the same seed and hash
    # seed gave either speed), so with one server per run the median
    # of ten runs depended on how many drew a slow one.
    servers, state, setups, raw_setups = _setup_servers(ctx, make)
    graph, keys, artifact, cache = state
    warm_keys, keys = keys[:WARMUP_READS], keys[WARMUP_READS:]
    starts, latencies, frames, used = [], [], [], []
    plain = None
    try:
        out.check(
            checks.check_lossless, "served artifact",
            load_representation(artifact), graph.edge_set(),
        )
        before = [server.registry() for server in servers]
        server_cpu0 = sum(server.cpu_seconds() for server in servers)
        with Phase(SERVE_STRETCH * ctx.seconds, WINDOW_S) as phase:
            for node in itertools.cycle(keys):
                if not phase.running():
                    break
                index = len(phase.windows) % len(servers)
                start = time.perf_counter()
                line = servers[index].send({"op": "neighbors", "node": node})
                starts.append(start)
                latencies.append(time.perf_counter() - start)
                used.append(index)
                if len(frames) < PROTOCOL_FRAMES:
                    frames.append((node, line))
                if not _is_ok(line):
                    out.failed += 1
        server_cpu = sum(server.cpu_seconds() for server in servers) - server_cpu0
        after = [server.registry() for server in servers]
        out.attempted = len(latencies)
        sample = random.Random(ctx.seed).sample(
            range(graph.n), min(NEIGHBOR_SAMPLE, graph.n)
        )
        truth = inputs.adjacency(graph.n, graph.edge_set())
        for server in servers:
            out.check(
                checks.check_neighbor_lines, sample,
                _served_neighbors(server, sample), truth,
            )
        peak_rss = max(server.peak_rss_mb() for server in servers)
        if traced:
            server = servers[-1]
            spans = _server_spans(ctx)
            plain = ctx.server(artifact, ["--cache-size", str(cache)]).start()
            _warm_up(plain, warm_keys)
            pair = {"traced": server, "plain": plain}
            overhead = _tracing_overhead(
                ctx.seconds,
                lambda label, i: _is_ok(pair[label].send(
                    {"op": "neighbors", "node": keys[i % len(keys)]}
                )),
                out,
            )
    finally:
        for server in servers:
            server.stop()
        if plain is not None:
            plain.stop()
    timed, samples = _timed_metrics(phase, starts, 1, {"op": latencies})
    samples["raw_op_p50_ms_by_server"] = [
        1e3 * percentile([t for t, i in zip(latencies, used) if i == k], 50)
        for k in sorted(set(used))
    ]
    out.metrics = {
        **_setup_metrics(setups, results, dm_runs),
        "peak_rss_mb": metric(peak_rss, "MiB"),
        **timed,
    }
    served = _telemetry_diff(before, after, "neighbors")
    client_mean_ms = 1e3 * sum(latencies) / len(latencies)
    server_mean_ms = 1e3 * served["server_s"] / max(1, served["requests"])
    out.diagnostics = {
        **samples,
        "raw_setups_s": raw_setups,
        "summarize_runs_s": [raw for _, raw in dm_runs],
        "summarize_runs_ref_s": [ref for ref, _ in dm_runs],
        "cache_capacity": cache,
        "cache_hit_rate": served["cache_hit_rate"],
        "server_mean_ms": server_mean_ms,
        "outside_server_mean_ms": client_mean_ms - server_mean_ms,
        "steal_share": phase.steal_share,
        "client_cpu_s": phase.client_cpu_s,
        "server_cpu_s": server_cpu,
    }
    if traced:
        out.diagnostics["server_spans"] = spans
        script = list(itertools.islice(
            inputs.mutation_batches(graph, ctx.seed), PROBE_BATCHES
        ))
        out.layers = {
            **_dm_layers(results),
            **_server_layers(
                before, after, sum(latencies), server_cpu, phase.client_cpu_s
            ),
            "trace.overhead_ratio": metric(overhead, "ratio"),
            **_probe_layers(
                ctx, out, load_representation(artifact), graph,
                warm_keys + keys[: len(latencies)], cache, script,
                inputs.apply_batches(graph.edge_set(), script),
                frames=frames, pagerank=True,
            ),
            **_bypassed(WITHOUT_MAGS, WITHOUT_WAL),
        }
    return out


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
def _wal_bytes(wal_dir: Path) -> int:
    return sum(p.stat().st_size for p in wal_dir.iterdir() if p.is_file())


def _ingest_request(seq: int, batch) -> dict:
    return {"op": "ingest", "stream": "bench", "seq": seq, "mutations": batch}


def _durable_server(ctx: Context, artifact: Path, graph, warm_keys, traced: bool):
    """A fresh ``fsync=always`` server on its own WAL directory, warmed
    with ``warm_keys`` and ``WARMUP_BATCHES`` acked batches of the
    seeded script.  Returns the server, its options, its WAL directory,
    the rest of its script and the acked batches."""
    wal_dir = Path(tempfile.mkdtemp(prefix="wal-", dir=ctx.workdir))
    options = [
        "--cache-size", str(graph.n), "--wal-dir", str(wal_dir),
        "--fsync", "always", "--compact-interval", "0",
        *_trace_options(ctx, traced),
    ]
    batches = inputs.mutation_batches(graph, ctx.seed)
    acked = []
    server = ctx.server(artifact, options)
    try:
        server.start()
        _warm_up(server, warm_keys)
        for seq in range(WARMUP_BATCHES):
            acked.append(next(batches))
            server.call(_ingest_request(seq, acked[-1]))
    except BaseException:
        server.kill()
        raise
    return server, options, wal_dir, batches, acked


def _restart(ctx: Context, server: Server, artifact: Path, options, probe: int):
    """SIGKILL ``server`` and restart it on the same WAL.

    The replay runs on a server thread and ends with the server's
    ``recovered from checkpoint`` line, after which every answer must
    be final (not marked ``degraded``).  Returns the new server, the
    seconds from the kill to that line, the records replayed and the
    replay's seconds, timed from the ``durable ingest on`` line that
    precedes it."""
    start = time.perf_counter()
    server.kill()
    server = ctx.server(artifact, options)
    try:
        server.start()
        replay_start = server.wait_line("durable ingest on", 1.0)[0]
        done, line = server.wait_line("recovered from checkpoint", 120.0)
        if server.request({"op": "neighbors", "node": probe}).get("degraded"):
            raise checks.CheckFailed("recovery: answer degraded after replay ended")
        if done <= replay_start:
            raise checks.CheckFailed("recovery: replay ended before it started")
    except BaseException:
        server.kill()
        raise
    replayed = int(line.split("replayed ")[1].split()[0])
    return server, done - start, replayed, done - replay_start


def ingest(ctx: Context, traced: bool) -> Outcome:
    """The timed step is one acked ``ingest`` batch followed by one
    ``neighbors`` read."""
    out = Outcome()
    results, dm_runs = [], []

    def make(i, pause):
        graph = inputs.make_graph(ctx.seed, ctx.quick)
        keys = inputs.make_keys(graph, WARMUP_READS + 40_000, ctx.seed)
        artifact = _summarize_artifact(ctx, graph, "ingest", pause, results, dm_runs)
        server, options, wal_dir, batches, acked = _durable_server(
            ctx, artifact, graph, keys[:WARMUP_READS], traced
        )
        return server, (graph, artifact, keys, options, wal_dir, batches, acked)

    servers, state, setups, raw_setups = _setup_servers(ctx, make)
    for server in servers[:-1]:
        server.stop()
    server = servers[-1]
    graph, artifact, keys, options, wal_dir, batches, acked = state
    warm_keys, keys = keys[:WARMUP_READS], keys[WARMUP_READS:]
    starts, middles, ends = [], [], []
    pair = {}
    try:
        out.check(
            checks.check_lossless, "served artifact",
            load_representation(artifact), graph.edge_set(),
        )
        # The WAL every timed restart replays: a fixed number of batches.
        for _ in range(int(RECOVERY_BATCHES_PER_SECOND * ctx.seconds)):
            acked.append(next(batches))
            server.call(_ingest_request(len(acked) - 1, acked[-1]))
        # Each restart in reference seconds, by the host-speed samples
        # just before and just after it.
        recoveries, raw_recoveries, replays = [], [], []
        reference = Reference()
        probe_before = reference.sample()
        for _ in range(ctx.restarts):
            server, recovered, records, replay_s = _restart(
                ctx, server, artifact, options, keys[0]
            )
            probe_after = reference.sample()
            recoveries.append(
                recovered * 2 * REFERENCE_PROBE_S / (probe_before + probe_after)
            )
            raw_recoveries.append(recovered)
            replays.append((records, replay_s))
            probe_before = probe_after

        before = [server.registry()]
        server_cpu0 = server.cpu_seconds()
        timed_acks = 0
        with Phase(SERVE_STRETCH * ctx.seconds, WINDOW_S) as phase:
            for node in itertools.cycle(keys):
                if not phase.running():
                    break
                start = time.perf_counter()
                batch = next(batches)
                line = server.send(_ingest_request(len(acked), batch))
                middle = time.perf_counter()
                read_line = server.send({"op": "neighbors", "node": node})
                ends.append(time.perf_counter())
                starts.append(start)
                middles.append(middle)
                if _is_ok(line):
                    acked.append(batch)
                    timed_acks += 1
                else:
                    out.failed += 1
                if not _is_ok(read_line):
                    out.failed += 1
        server_cpu = server.cpu_seconds() - server_cpu0
        after = [server.registry()]
        peak_rss = server.peak_rss_mb()
        wal_bytes = _wal_bytes(wal_dir)
        out.attempted = 2 * len(starts)

        # Durability of everything acked: one more crash, untimed.
        server = _restart(ctx, server, artifact, options, keys[0])[0]
        expected = inputs.apply_batches(graph.edge_set(), acked)
        out.check(
            checks.check_neighbor_lines, range(graph.n),
            _served_neighbors(server, range(graph.n)),
            inputs.adjacency(graph.n, expected),
        )
        if traced:
            spans = _server_spans(ctx)
            for label in ("traced", "plain"):
                fresh, _, _, script, _ = _durable_server(
                    ctx, artifact, graph, warm_keys, label == "traced"
                )
                pair[label] = (fresh, script, itertools.count(WARMUP_BATCHES))

            def step(label, i):
                fresh, script, seqs = pair[label]
                ok = _is_ok(fresh.send(_ingest_request(next(seqs), next(script))))
                read_line = fresh.send({"op": "neighbors", "node": keys[i % len(keys)]})
                return ok and _is_ok(read_line)

            overhead = _tracing_overhead(ctx.seconds, step, out)
    finally:
        server.stop()
        for fresh, _, _ in pair.values():
            fresh.stop()
    writes = [m - s for s, m in zip(starts, middles)]
    reads = [e - m for m, e in zip(middles, ends)]
    steps = [e - s for s, e in zip(starts, ends)]
    timed, samples = _timed_metrics(
        phase, starts, 2, {"op": steps, "read": reads, "write": writes}
    )
    out.metrics = {
        **_setup_metrics(setups, results, dm_runs),
        "peak_rss_mb": metric(peak_rss, "MiB"),
        **timed,
    }
    served = _telemetry_diff(before, after, "neighbors")
    written = _telemetry_diff(before, after, "ingest")
    records = sum(r for r, _ in replays)
    replay_s = sum(s for _, s in replays)
    out.diagnostics = {
        # Measured but not bounded: see README.md.
        "recovery_s": statistics.median(recoveries),
        **samples,
        "raw_setups_s": raw_setups,
        "summarize_runs_s": [raw for _, raw in dm_runs],
        "summarize_runs_ref_s": [ref for ref, _ in dm_runs],
        "raw_recoveries_s": raw_recoveries,
        "replay_records_per_s": records / replay_s,
        "acked_batches": len(acked),
        "cache_hit_rate": served["cache_hit_rate"],
        "server_mean_ms": 1e3 * served["server_s"] / max(1, served["requests"]),
        "ingest_server_mean_ms": 1e3 * written["server_s"] / max(1, written["requests"]),
        "steal_share": phase.steal_share,
        "client_cpu_s": phase.client_cpu_s,
        "server_cpu_s": server_cpu,
    }
    if traced:
        fsyncs = registry_histogram(after[0], "repro_wal_fsync_seconds")
        fsyncs0 = registry_histogram(before[0], "repro_wal_fsync_seconds")
        out.diagnostics["server_spans"] = spans
        out.diagnostics["fsync_mean_ms"] = (
            1e3 * (fsyncs[1] - fsyncs0[1]) / max(1, fsyncs[0] - fsyncs0[0])
        )
        out.layers = {
            **_dm_layers(results),
            **_server_layers(before, after, sum(steps), server_cpu, phase.client_cpu_s),
            "durability.acks": metric(timed_acks, "count"),
            "durability.fsyncs_per_ack": metric(
                (fsyncs[0] - fsyncs0[0]) / max(1, timed_acks), "ratio"
            ),
            "durability.fsync_share": metric((fsyncs[1] - fsyncs0[1]) / sum(writes), "ratio"),
            "durability.wal_bytes_per_mutation": metric(
                wal_bytes / sum(len(b) for b in acked), "B"
            ),
            "durability.replay_records": metric(records, "count"),
            "durability.replay_share": metric(replay_s / sum(raw_recoveries), "ratio"),
            "trace.overhead_ratio": metric(overhead, "ratio"),
            **_probe_layers(
                ctx, out, load_representation(artifact), graph,
                warm_keys + keys[: len(reads)], graph.n, acked, expected,
                pagerank=True,
            ),
            **_bypassed(WITHOUT_MAGS),
        }
    return out


WORKLOADS = {"summarize": summarize, "read": read, "ingest": ingest}


def run_workload(
    name: str, src: Path, workdir: Path, seed: int, seconds: float,
    traced: bool, quick: bool = False, trace_out: Path | None = None,
) -> Outcome:
    """Run one workload in ``workdir`` (which it empties and removes).

    A traced run makes one set-up and one restart, with the server's
    and the benchmark's tracing on, and reports the per-layer metrics,
    with the tracing overhead (see :func:`_tracing_overhead`).
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(src=src, workdir=workdir, seed=seed, seconds=seconds, quick=quick)
    # One untimed Mags-DM call on a small graph first, so that no timed
    # call pays for lazy imports and first-touch allocations.
    _summarize_dm(inputs.make_graph(seed, quick=True, kind="summarize"))
    try:
        if not traced:
            return WORKLOADS[name](ctx, traced=False)
        ctx.setups = ctx.restarts = 1
        tracer = start_tracing()
        ctx.layers = Layers(tracer)
        try:
            outcome = WORKLOADS[name](ctx, traced=True)
        finally:
            stop_tracing()
        outcome.metrics = outcome.layers
        records = tracer.records()
        outcome.diagnostics["benchmark_spans"] = len(records)
        if trace_out is not None:
            trace_out.parent.mkdir(parents=True, exist_ok=True)
            write_trace_jsonl(records, trace_out)
        return outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
