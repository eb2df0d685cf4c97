"""Further graph queries answered directly on the summary.

Section 6.6 closes with "in the future, we will investigate other
graph queries"; this module collects the ones that fall out of the
representation with no decompression:

* exact degree vector (recovered from super-edge sizes plus
  corrections — no adjacency expansion);
* common-neighbor and Jaccard queries between node pairs (built on
  the Algorithm 6 neighbor index);
* degree distribution, for workload characterisation.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding import Representation
from repro.queries.neighbors import SummaryNeighborIndex
from repro.queries.pagerank import SummaryPageRank

__all__ = [
    "degree_vector",
    "degree_distribution",
    "common_neighbors",
    "jaccard_similarity",
    "top_degree_nodes",
]


def degree_vector(representation: Representation) -> np.ndarray:
    """Exact degree of every node, computed from ``(S, C)`` alone.

    Runs in ``O(|P| + |E| + |C|)`` — proportional to the summary, not
    to the graph: the Algorithm 7 plan's adjacency product applied to
    the all-ones vector gives each member the partner sides' sizes
    over its super-node's super-edges, adjusted by its corrections
    (see :class:`~repro.queries.pagerank.SummaryPageRank`).
    """
    return SummaryPageRank(representation).degrees


def degree_distribution(representation: Representation) -> dict[int, int]:
    """Histogram of :func:`degree_vector`."""
    values, counts = np.unique(degree_vector(representation), return_counts=True)
    return {int(d): int(c) for d, c in zip(values, counts)}


def common_neighbors(
    index: SummaryNeighborIndex, u: int, v: int
) -> set[int]:
    """Exact common neighbor set of ``u`` and ``v``."""
    return index.neighbors(u) & index.neighbors(v)


def jaccard_similarity(index: SummaryNeighborIndex, u: int, v: int) -> float:
    """Exact Jaccard similarity of two nodes' neighborhoods."""
    nu = index.neighbors(u)
    nv = index.neighbors(v)
    union = len(nu | nv)
    if union == 0:
        return 0.0
    return len(nu & nv) / union


def top_degree_nodes(
    representation: Representation, count: int
) -> list[tuple[int, int]]:
    """The ``count`` highest-degree nodes as ``(node, degree)`` pairs,
    ties broken by node id."""
    if count < 0:
        raise ValueError("count must be non-negative")
    degrees = degree_vector(representation)
    order = np.lexsort((np.arange(len(degrees)), -degrees))
    return [(int(node), int(degrees[node])) for node in order[:count]]
