"""Seeded inputs: the graph, the read-key sequence and the mutation script.

Everything a workload feeds the program is generated here from the
workload seed, so one seed always gives the same inputs.  The server
only ever sees the summary artifact written from the graph and the
wire requests built from the keys and the script.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

import numpy as np

from repro.graph import generators
from repro.graph.graph import Graph

#: Skitter analog of ``repro.graph.datasets`` (``webt`` generator,
#: d_avg ~11, Mags-DM relative size ~0.39); only the seed varies.
#: ``read`` and ``ingest`` serve the n=2400 graph; ``summarize`` times
#: the same shape at n=600, so that one Mags-DM run takes about a
#: second and a run can repeat it many times (see README.md).
SERVE_GRAPH = dict(n=2400, templates=80, hubs=160, template_size=6, mutation=0.20)
SUMMARIZE_GRAPH = dict(n=600, templates=30, hubs=60, template_size=6, mutation=0.20)
#: The same shapes at a quarter of the size, for the benchmark's own
#: tests.
QUICK_GRAPHS = {
    "serve": SUMMARIZE_GRAPH,
    "summarize": dict(n=300, templates=15, hubs=30, template_size=6, mutation=0.20),
}

#: Zipf exponent of the read-key popularity, and the degree strata
#: the popularity order is balanced over.
ZIPF_S = 0.9
DEGREE_STRATA = 20
#: Mutations per acked ``ingest`` batch: half deletes, half inserts.
BATCH_MUTATIONS = 16


def make_graph(seed: int, quick: bool = False, kind: str = "serve") -> Graph:
    """The ``kind`` (``"serve"`` or ``"summarize"``) workload graph for
    ``seed``."""
    if quick:
        params = QUICK_GRAPHS[kind]
    else:
        params = SUMMARIZE_GRAPH if kind == "summarize" else SERVE_GRAPH
    return generators.templated_web(seed=seed, **params)


def summarize_seeds(seed: int, count: int) -> list[int]:
    """Generator seeds of the ``count`` graphs ``summarize`` uses for
    workload ``seed``."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def make_keys(graph: Graph, count: int, seed: int) -> list[int]:
    """``count`` Zipf-skewed node ids over a seeded popularity order.

    Popularity is independent of degree but stratified by it: the
    nodes are cut into ``DEGREE_STRATA`` degree quantiles, and every
    block of that many consecutive popularity ranks holds one node of
    each.  Otherwise one seed's hottest keys may be the generator's
    hubs and another's ordinary pages, and the mean answer size (and
    with it throughput) would vary more between seeds than between
    runs.
    """
    rng = np.random.default_rng(seed)
    by_degree = np.lexsort((rng.random(graph.n), graph.degrees()))
    strata = np.array_split(by_degree, DEGREE_STRATA)
    for stratum in strata:
        rng.shuffle(stratum)
    blocks = min(len(stratum) for stratum in strata)
    order = np.concatenate(
        [rng.permutation([stratum[j] for stratum in strata]) for j in range(blocks)]
        + [rng.permutation(np.concatenate([s[blocks:] for s in strata]))]
    ).astype(np.int64)
    weights = 1.0 / np.arange(1, graph.n + 1) ** ZIPF_S
    ranks = rng.choice(graph.n, size=count, p=weights / weights.sum())
    return order[ranks].tolist()


def mutation_batches(graph: Graph, seed: int) -> Iterator[list[list]]:
    """An endless stream of batches of valid ``["+"|"-", u, v]``
    mutations.

    Each batch deletes ``BATCH_MUTATIONS / 2`` random present edges
    and re-inserts the edges the batch before it deleted.  Every batch
    is valid against the graph with the earlier batches applied, no
    batch touches an edge twice, and the graph never drifts more than
    half a batch from the base graph, so a long stream leaves the
    summary's shape (and the cost of serving it) where it started.
    """
    rng = random.Random(seed)
    present = sorted(graph.edge_set())
    position = {edge: i for i, edge in enumerate(present)}
    pending: list[tuple[int, int]] = []
    while True:
        deleted = []
        for _ in range(BATCH_MUTATIONS // 2):
            edge = present[rng.randrange(len(present))]
            last = present.pop()
            if last != edge:
                present[position[edge]] = last
                position[last] = position[edge]
            del position[edge]
            deleted.append(edge)
        for edge in pending:
            position[edge] = len(present)
            present.append(edge)
        yield [["+", u, v] for u, v in pending] + [["-", u, v] for u, v in deleted]
        pending = deleted


def apply_batches(edges: set[tuple[int, int]], batches) -> set[tuple[int, int]]:
    """The edge set after applying ``batches`` in order (a new set)."""
    result = set(edges)
    for batch in batches:
        for sign, u, v in batch:
            edge = (min(u, v), max(u, v))
            if sign == "+":
                result.add(edge)
            else:
                result.discard(edge)
    return result


def adjacency(n: int, edges) -> list[list[int]]:
    """Sorted neighbor lists of an undirected edge set."""
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    return [sorted(s) for s in neighbors]
