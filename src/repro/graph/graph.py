"""Undirected graph substrate.

The paper (Section 2.1) works on simple undirected graphs
``G = (V, E)`` with nodes relabeled to ``0..n-1``.  All algorithms in
this package consume :class:`Graph`, which stores adjacency as a list
of Python sets (fast membership and set algebra, which the cost
calculus of Section 2.2 relies on) and lazily exposes a CSR view for
vectorised workloads such as PageRank (Section 6.6).

Graphs are immutable after construction; summarization never mutates
its input.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Graph", "GraphError"]


class GraphError(ValueError):
    """Raised for structurally invalid graph input."""


class Graph:
    """A simple undirected graph with integer nodes ``0..n-1``.

    Parameters
    ----------
    n:
        Number of nodes.  Isolated nodes are allowed (they simply never
        participate in a merge).
    edges:
        Iterable of ``(u, v)`` pairs.  Self-loops and duplicates are
        rejected; use :func:`repro.graph.io.clean_edges` to sanitise raw
        edge lists first (the paper removes directions, duplicates and
        self-loops, Section 6.1).

    Examples
    --------
    >>> g = Graph(3, [(0, 1), (1, 2)])
    >>> g.n, g.m
    (3, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("_n", "_m", "_adj", "_csr_cache")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        self._n = n
        adj: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop ({u}, {v}) not allowed")
            if v in adj[u]:
                raise GraphError(f"duplicate edge ({u}, {v})")
            adj[u].add(v)
            adj[v].add(u)
            m += 1
        self._m = m
        self._adj = adj
        self._csr_cache: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of (undirected) edges."""
        return self._m

    @property
    def avg_degree(self) -> float:
        """Average degree ``d_avg = 2m/n`` (Table 1)."""
        if self._n == 0:
            return 0.0
        return 2.0 * self._m / self._n

    def degree(self, u: int) -> int:
        """Degree of node ``u``."""
        return len(self._adj[u])

    def neighbors(self, u: int) -> frozenset[int]:
        """The neighbor set ``N_u`` of node ``u`` (read-only view)."""
        return frozenset(self._adj[u])

    def adjacency(self) -> Sequence[set[int]]:
        """Internal adjacency list.

        Exposed for the summarization algorithms, which iterate over
        neighborhoods in tight loops; callers must not mutate the sets.
        """
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        return v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges as ``(u, v)`` with ``u < v``."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def edge_set(self) -> set[tuple[int, int]]:
        """The edge set as ``(min, max)`` tuples (materialised)."""
        return set(self.edges())

    def nodes(self) -> range:
        """All node ids."""
        return range(self._n)

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(indptr, indices)`` CSR arrays (cached).

        Used by the vectorised PageRank baseline; neighbor lists are
        sorted so the representation is deterministic.
        """
        if self._csr_cache is None:
            indptr = np.zeros(self._n + 1, dtype=np.int64)
            for u in range(self._n):
                indptr[u + 1] = indptr[u] + len(self._adj[u])
            indices = np.empty(indptr[-1], dtype=np.int64)
            for u in range(self._n):
                nbrs = sorted(self._adj[u])
                indices[indptr[u]:indptr[u + 1]] = nbrs
            self._csr_cache = (indptr, indices)
        return self._csr_cache

    def degrees(self) -> np.ndarray:
        """Degree of every node as an ``int64`` array."""
        return np.fromiter(
            (len(nbrs) for nbrs in self._adj), dtype=np.int64, count=self._n
        )

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        """Induced subgraph on ``keep``, relabeled to ``0..len(keep)-1``.

        The relabeling preserves the relative order of the kept ids.
        """
        kept = sorted(set(keep))
        if kept and not (0 <= kept[0] and kept[-1] < self._n):
            raise GraphError(
                f"keep ids must be within 0..{self._n - 1}"
            )
        index = {old: new for new, old in enumerate(kept)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges()
            if u in index and v in index
        ]
        return Graph(len(kept), edges)

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self):  # pragma: no cover - graphs are not hashable
        raise TypeError("Graph objects are mutable-sized; not hashable")

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m}, d_avg={self.avg_degree:.2f})"
