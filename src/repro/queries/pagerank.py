"""PageRank on the input graph vs. on the summary (Section 6.6).

Equation 8 defines the iteration on the input graph:

    PR_0(x) = 1
    PR_t(x) = (1 - d) + d * sum over y in N_x of PR_{t-1}(y) / |N_y|

Algorithm 7 evaluates the same recurrence *on the representation*:
per-super-node mass ``A_u`` is aggregated once, summed over
super-edges into ``B_u``, broadcast back to members, and finally
adjusted by the corrections.  Its running time is
``O(T * (|E| + |C|))`` versus ``O(T * m)`` on the input graph, so a
compact summary computes PageRank asymptotically faster — Table 3's
experiment.

Both sides are split the same way: a build turns the in-memory
structure (the graph's CSR arrays, or ``(S, C)``) into flat index
arrays once, and a run only executes them, a fixed handful of NumPy
calls per iteration with nothing rebuilt inside the loop.  The Table 3
bench times the two parts separately, so it measures the algorithmic
difference, not an asymmetry in interpreter overhead.  A pure-Python
reference (:func:`pagerank_reference`) pins down the exact semantics
for tests, including the isolated-node convention (zero-degree nodes
contribute no mass).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.encoding import Representation
from repro.graph.graph import Graph

__all__ = [
    "pagerank_reference",
    "InputGraphPageRank",
    "pagerank_input_graph",
    "SummaryPageRank",
    "pagerank_summary",
]


def pagerank_reference(
    graph: Graph, damping: float = 0.85, iterations: int = 20
) -> list[float]:
    """Literal Equation 8, pure Python; the testing oracle."""
    ranks = [1.0] * graph.n
    adjacency = graph.adjacency()
    for _ in range(iterations):
        contribution = [
            damping * ranks[y] / len(adjacency[y]) if adjacency[y] else 0.0
            for y in range(graph.n)
        ]
        ranks = [
            (1.0 - damping) + sum(contribution[y] for y in adjacency[x])
            for x in range(graph.n)
        ]
    return ranks


def _inverse_degrees(degrees: np.ndarray) -> np.ndarray:
    """``1 / deg`` per node, 0 for isolated nodes (they pass on no
    mass)."""
    inverse = np.zeros(len(degrees))
    np.divide(1.0, degrees, out=inverse, where=degrees > 0)
    return inverse


class InputGraphPageRank:
    """Equation 8 over the graph's CSR adjacency (the baseline side of
    Table 3), with its index arrays prebuilt.

    An iteration gathers every node's contribution once per incident
    edge end and sums each node's contiguous CSR segment with one
    ``np.add.reduceat`` over the nodes that have neighbors (2m entries;
    a ``bincount`` over the same entries measured 2–3x slower on the
    large analogs).
    """

    def __init__(self, graph: Graph):
        self.n = graph.n
        indptr, self._indices = graph.csr()
        degrees = np.diff(indptr)
        self._nonempty = np.flatnonzero(degrees)
        self._starts = indptr[self._nonempty]
        self._inverse = _inverse_degrees(degrees)

    def run(self, damping: float = 0.85, iterations: int = 20) -> np.ndarray:
        """Run Equation 8 and return the final rank vector."""
        scale = damping * self._inverse
        ranks = np.ones(self.n)
        for _ in range(iterations):
            sums = np.zeros(self.n)
            if len(self._indices):
                sums[self._nonempty] = np.add.reduceat(
                    (ranks * scale)[self._indices], self._starts
                )
            ranks = sums + (1.0 - damping)
        return ranks


def pagerank_input_graph(
    graph: Graph, damping: float = 0.85, iterations: int = 20
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`InputGraphPageRank`."""
    return InputGraphPageRank(graph).run(damping, iterations)


class SummaryPageRank:
    """Algorithm 7 as a scatter plan: built once, then only executed.

    Super-nodes are numbered densely in id order.  The build lays
    ``(S, C)`` out as three flat lists, the last two sorted (each entry
    is unique, so one ``argsort`` of a combined key fixes the order) so
    that a run sums in an order fixed by the representation alone, not
    by the iteration order of its sets:

    * ``membership``: each node's super-node;
    * the super-edge gather list ``(src, dst)``: each super-edge
      ``{u, v}`` in both directions, and a self super-edge ``(u, u)``
      once;
    * the signed correction list ``(dst, src, sign)``: ``+1`` both ways
      for each ``+e``, ``-1`` both ways for each ``-e``, and ``(x, x,
      -1)`` for each member ``x`` of a self-looped super-node, which
      the flat cartesian-product semantics requires (a node is not its
      own neighbor) but the paper's pseudocode leaves implicit.

    Together they compute the product of the input graph's adjacency
    matrix with a node vector ``c`` from the summary alone:

    1. ``A = bincount(membership, c)`` — line 4, per super-node mass;
    2. ``B = bincount(src, A[dst])`` — lines 5–7, summed over
       super-edges;
    3. ``B[membership] + bincount(dst, c[src] * sign)`` — broadcast
       to members, then lines 8–9, the corrections.

    The build applies it once to the all-ones vector to recover the
    true degrees (:attr:`degrees`), so no access to the original graph
    is required.  An iteration of :meth:`run` applies it to
    ``c = d * PR / deg`` and adds ``1 - d``: O(|E| + |C|) gathered
    entries and a fixed number of NumPy calls, none of them a
    ``ufunc.at`` or a per-iteration mask.
    """

    def __init__(self, representation: Representation):
        rep = representation
        n = rep.n
        self.n = n
        ids = sorted(rep.supernodes)
        self._num_super = len(ids)
        groups = [rep.supernodes[sid] for sid in ids]
        sizes = np.fromiter(map(len, groups), np.int64, len(groups))
        self._membership = np.empty(n, dtype=np.int64)
        self._membership[
            np.fromiter(itertools.chain.from_iterable(groups), np.int64, n)
        ] = np.repeat(np.arange(len(groups)), sizes)

        edges = np.searchsorted(ids, _pairs(rep.summary_edges))
        cross = edges[:, 0] != edges[:, 1]
        src = np.concatenate((edges[:, 0], edges[cross, 1]))
        dst = np.concatenate((edges[:, 1], edges[cross, 0]))
        order = np.argsort(src * len(groups) + dst)
        self._edge_src, self._edge_dst = src[order], dst[order]

        looped = np.zeros(len(groups), dtype=bool)
        looped[edges[~cross, 0]] = True
        own = np.flatnonzero(looped[self._membership])
        plus, minus = _pairs(rep.additions), _pairs(rep.removals)
        dst = np.concatenate((plus[:, 0], plus[:, 1], minus[:, 0], minus[:, 1], own))
        src = np.concatenate((plus[:, 1], plus[:, 0], minus[:, 1], minus[:, 0], own))
        sign = np.repeat([1.0, -1.0], [2 * len(plus), len(dst) - 2 * len(plus)])
        order = np.argsort(dst * n + src)
        self._corr_dst, self._corr_src = dst[order], src[order]
        self._corr_sign = sign[order]

        #: True degree of every node (``int64``), recovered from the plan.
        self.degrees = self._adjacency_product(np.ones(n)).astype(np.int64)
        self._inverse = _inverse_degrees(self.degrees)

    def _adjacency_product(self, c: np.ndarray) -> np.ndarray:
        """``adj @ c`` for the input graph's adjacency matrix ``adj``,
        evaluated on the summary."""
        mass = np.bincount(self._membership, c, self._num_super)
        out = np.bincount(
            self._edge_src, mass[self._edge_dst], self._num_super
        )[self._membership]
        if len(self._corr_dst):
            # Not in place: with no super-edge, ``out`` is bincount's
            # int64 zeros.
            out = out + np.bincount(
                self._corr_dst, c[self._corr_src] * self._corr_sign, self.n
            )
        return out

    def run(
        self, damping: float = 0.85, iterations: int = 20
    ) -> np.ndarray:
        """Run Algorithm 7 and return the final rank vector."""
        scale = damping * self._inverse
        ranks = np.ones(self.n)
        for _ in range(iterations):
            ranks = self._adjacency_product(ranks * scale) + (1.0 - damping)
        return ranks


def pagerank_summary(
    representation: Representation,
    damping: float = 0.85,
    iterations: int = 20,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`SummaryPageRank`."""
    return SummaryPageRank(representation).run(damping, iterations)


def _pairs(pairs: set[tuple[int, int]]) -> np.ndarray:
    """A set of node or super-node pairs as a ``(k, 2)`` int64 array."""
    flat = np.fromiter(itertools.chain.from_iterable(pairs), np.int64, 2 * len(pairs))
    return flat.reshape(-1, 2)
