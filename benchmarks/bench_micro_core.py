"""Microbenchmarks of the package's hot paths.

Unlike the figure benches (one timed end-to-end run each), these use
pytest-benchmark's statistical looping: they are the regression guard
for the inner loops every algorithm sits on — saving evaluation,
merging, signature construction, encoding, reconstruction, the
two sides of Table 3's PageRank (Algorithm 7's plan and Eq. 8), and
one acked ingest batch through the mutable engine and its WAL.

``tools/perf_gate.py`` runs this file with ``--benchmark-json`` and
compares the results against the committed baseline in
``bench_results/micro_core_baseline.json``; keep the workload builders
below deterministic, because the gate's speedup ratios assume the
batched and scalar benches score the *same* pair list.
"""

import itertools

import pytest

from repro.core.encoding import encode
from repro.core.minhash import MinHashSignatures
from repro.core.supernodes import SuperNodePartition
from repro.graph.generators import planted_partition
from repro.queries.pagerank import InputGraphPageRank, SummaryPageRank


def build_graph():
    """The shared micro-bench graph (fixed seed, ~400 nodes)."""
    return planted_partition(400, 20, 0.5, 0.01, seed=7)


def build_partition(graph):
    """Deterministic partially-merged partition over ``graph``."""
    p = SuperNodePartition(graph)
    for u in range(0, 100, 2):
        ru, rv = p.find(u), p.find(u + 1)
        if ru != rv:
            p.merge(ru, rv)
    return p


def candidate_pairs(partition, groups=24):
    """Realistic saving workload: 2-hop candidates of ``groups`` roots.

    Grouped by first endpoint — the shape every consumer hands to
    ``savings_many`` — so the batched and scalar saving benches time
    the same work the algorithms do.
    """
    pairs = []
    for u, vs in _two_hop_groups(partition, groups):
        pairs.extend((u, v) for v in vs)
    return pairs


def shortlist_pairs(partition, groups=64, width=5):
    """Mags-DM's shape: ``width``-pair shortlists of ``groups`` roots.

    Each shortlist holds the first ``width`` 2-hop candidates of one
    root (the default b = 5 of Algorithm 5), so every group is far
    below ``KERNEL_MIN_GROUP`` and ``savings_many`` scores it on the
    scalar path.
    """
    pairs = []
    for u, vs in _two_hop_groups(partition, groups):
        pairs.extend((u, v) for v in vs[:width])
    return pairs


def _two_hop_groups(partition, groups):
    """``(root, sorted 2-hop candidates)`` of the first ``groups`` roots."""
    for u in sorted(partition.roots())[:groups]:
        two_hop = set()
        for x in partition.weights(u):
            two_hop.update(partition.weights(x))
        two_hop.discard(u)
        yield u, sorted(two_hop)


@pytest.fixture(scope="module")
def graph():
    return build_graph()


@pytest.fixture(scope="module")
def partition(graph):
    return build_partition(graph)


@pytest.fixture(scope="module")
def pairs(partition):
    return candidate_pairs(partition)


def test_micro_saving(benchmark, partition):
    roots = sorted(partition.roots())
    pairs = list(zip(roots[:64], roots[64:128]))

    def run():
        total = 0.0
        for u, v in pairs:
            total += partition.saving(u, v)
        return total

    benchmark(run)


def test_micro_saving_pairs_batched(benchmark, partition, pairs):
    """The batched kernel over a grouped candidate sweep."""
    benchmark(lambda: partition.savings_many(pairs))


def test_micro_saving_pairs_scalar(benchmark, partition, pairs):
    """The same sweep through the scalar path, pair by pair.

    ``tools/perf_gate.py`` divides this bench's mean by the batched
    bench's mean to get the machine-independent kernel speedup.
    """

    def run():
        return [partition.saving(u, v) for u, v in pairs]

    benchmark(run)


def test_micro_saving_shortlists(benchmark, partition):
    """``savings_many`` over 5-pair shortlists (the Mags-DM shape)."""
    pairs = shortlist_pairs(partition)
    benchmark(lambda: partition.savings_many(pairs))


def test_micro_saving_shortlists_scalar(benchmark, partition):
    """The same shortlists through ``saving``, pair by pair.

    ``tools/perf_gate.py`` requires ``savings_many`` to stay within
    its shortlist floor of this loop: a small group must not pay the
    NumPy kernel's fixed cost.
    """
    pairs = shortlist_pairs(partition)

    def run():
        return [partition.saving(u, v) for u, v in pairs]

    benchmark(run)


def test_micro_merge_and_rebuild(benchmark, graph):
    def run():
        p = SuperNodePartition(graph)
        roots = sorted(p.roots())
        for u, v in zip(roots[0:60:2], roots[1:60:2]):
            p.merge(p.find(u), p.find(v))
        return p.num_merges

    benchmark(run)


def test_micro_minhash_signatures(benchmark, graph):
    benchmark(lambda: MinHashSignatures(graph, 40, seed=1))


def test_micro_encode(benchmark, partition):
    benchmark(lambda: encode(partition))


def test_micro_reconstruct(benchmark, partition):
    rep = encode(partition)
    benchmark(lambda: rep.reconstruct_edges())


def test_micro_neighbor_queries(benchmark, graph, partition):
    from repro.queries.neighbors import SummaryNeighborIndex

    index = SummaryNeighborIndex(encode(partition))

    def run():
        return sum(len(index.neighbors(q)) for q in range(0, graph.n, 7))

    benchmark(run)


def test_micro_pagerank_build(benchmark, partition):
    """Building Algorithm 7's plan from ``(S, C)``."""
    rep = encode(partition)
    benchmark(lambda: SummaryPageRank(rep))


def test_micro_pagerank_summary_run(benchmark, partition):
    """One Algorithm 7 run (20 iterations) on a built plan."""
    plan = SummaryPageRank(encode(partition))
    benchmark(lambda: plan.run(0.85, 20))


def test_micro_pagerank_input_run(benchmark, graph):
    """One Eq. 8 run (20 iterations) over the graph's CSR arrays."""
    plan = InputGraphPageRank(graph)
    benchmark(lambda: plan.run(0.85, 20))


#: Mutations per ``test_micro_ingest_batch`` batch (perfbench's size).
INGEST_BATCH = 16


def ingest_batches(graph, groups=8):
    """An endless stream of valid 16-mutation batches over ``graph``.

    ``groups`` disjoint sets of ``INGEST_BATCH / 2`` edges take turns:
    batch ``i`` re-inserts group ``i - 1`` and deletes group ``i``, so
    the first batch only deletes and every later one is valid against
    the graph with the earlier ones applied."""
    half = INGEST_BATCH // 2
    edges = sorted(graph.edge_set())[:: max(1, graph.m // (groups * half))]
    cycle = [edges[i * half:(i + 1) * half] for i in range(groups)]
    yield [["-", u, v] for u, v in cycle[0]]
    i = 1
    while True:
        yield (
            [["+", u, v] for u, v in cycle[(i - 1) % groups]]
            + [["-", u, v] for u, v in cycle[i % groups]]
        )
        i += 1


def test_micro_ingest_batch(benchmark, graph, partition, tmp_path):
    """One acked 16-mutation batch through ``MutableQueryEngine.ingest``:
    the batch check, the WAL frame (``fsync="never"``), the apply, and
    the cache and metric bookkeeping around them."""
    from repro.durability.wal import WriteAheadLog
    from repro.dynamic.summary import DynamicGraphSummary
    from repro.service.ingest import MutableQueryEngine

    batches = ingest_batches(graph)
    seqs = itertools.count()
    with WriteAheadLog(tmp_path, fsync="never") as wal:
        engine = MutableQueryEngine(
            DynamicGraphSummary.from_representation(encode(partition)),
            wal=wal,
        )
        engine.ingest("bench", next(seqs), next(batches))  # delete-only

        def run():
            return engine.ingest("bench", next(seqs), next(batches))

        result = benchmark(run)
    assert result["applied"] == INGEST_BATCH
