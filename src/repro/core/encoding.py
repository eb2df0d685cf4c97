"""Optimal output encoding (Section 2.2 / Algorithm 4).

Given a fixed partition ``P``, the best summary graph ``S = (P, E)``
and corrections ``C`` are decided pair-by-pair: a super-edge is used
exactly when ``|E_uv| > (1 + |Pi_uv|)/2``, with minus-corrections for
the missing pairs; otherwise every real edge becomes a
plus-correction.  The resulting :class:`Representation` is the final
product ``R = (S, C)`` of every algorithm in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core import costs
from repro.graph.graph import Graph

if TYPE_CHECKING:
    # NumPy-backed; kept off the import path of every module that only
    # holds or serves a Representation.
    from repro.core.supernodes import SuperNodePartition

__all__ = ["Representation", "encode"]


def _ordered(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass
class Representation:
    """A lossless representation ``R = (S, C)`` (Definition 1).

    Attributes
    ----------
    n:
        Number of nodes in the original graph.
    m:
        Number of edges in the original graph (for relative size).
    supernodes:
        Map from super-node id to its member node list (a partition
        of ``0..n-1``).
    node_to_supernode:
        Inverse map: node id -> super-node id.
    summary_edges:
        Super-edges as ordered pairs ``(u, v)`` with ``u <= v``;
        ``(u, u)`` denotes a self super-edge (clique-like interior).
    additions:
        Plus-corrections ``+e`` as node pairs with ``u < v``.
    removals:
        Minus-corrections ``-e`` as node pairs with ``u < v``.
    """

    n: int
    m: int
    supernodes: dict[int, list[int]]
    node_to_supernode: dict[int, int] = field(repr=False)
    summary_edges: set[tuple[int, int]]
    additions: set[tuple[int, int]]
    removals: set[tuple[int, int]]
    _superedge_adjacency: dict[int, list[int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- size accounting (Equation 1) ----------------------------------
    @property
    def num_corrections(self) -> int:
        """``|C|``: total corrections of both signs."""
        return len(self.additions) + len(self.removals)

    @property
    def cost(self) -> int:
        """Representation cost ``c(R) = |E| + |C|`` (Equation 1)."""
        return len(self.summary_edges) + self.num_corrections

    @property
    def relative_size(self) -> float:
        """``(|E| + |C|) / |E_original|`` — the paper's compactness measure."""
        if self.m == 0:
            return 0.0
        return self.cost / self.m

    @property
    def num_supernodes(self) -> int:
        """``|P|``."""
        return len(self.supernodes)

    # -- reconstruction -------------------------------------------------
    def reconstruct_edges(self) -> set[tuple[int, int]]:
        """Recreate the original edge set from ``(S, C)``.

        Expands every super-edge to the cartesian product of its member
        sets, removes the minus-corrections, and adds the
        plus-corrections (Example 1 in the paper).
        """
        edges: set[tuple[int, int]] = set()
        for su, sv in self.summary_edges:
            members_u = self.supernodes[su]
            if su == sv:
                for i, x in enumerate(members_u):
                    for y in members_u[i + 1:]:
                        edges.add(_ordered(x, y))
            else:
                for x in members_u:
                    for y in self.supernodes[sv]:
                        edges.add(_ordered(x, y))
        edges -= self.removals
        edges |= self.additions
        return edges

    def reconstruct(self) -> Graph:
        """Recreate the original :class:`Graph`."""
        return Graph(self.n, sorted(self.reconstruct_edges()))

    def supernode_of(self, node: int) -> int:
        """The super-node containing ``node``."""
        return self.node_to_supernode[node]

    def superedge_adjacency(self) -> dict[int, list[int]]:
        """Per-super-node adjacency over the summary edges.

        Maps every super-node id to the super-nodes it shares a
        super-edge with, self-edges excluded (test
        ``(u, u) in summary_edges`` for those).  Built lazily on first
        use and cached, so answering a neighbor query costs time
        proportional to the answer instead of ``O(|E|)`` per call;
        the cache assumes ``summary_edges`` is not mutated in place
        (nothing in the package does — updaters copy first).
        """
        if self._superedge_adjacency is None:
            adjacency: dict[int, list[int]] = {
                sid: [] for sid in self.supernodes
            }
            for su, sv in self.summary_edges:
                if su != sv:
                    adjacency[su].append(sv)
                    adjacency[sv].append(su)
            self._superedge_adjacency = adjacency
        return self._superedge_adjacency

    def __repr__(self) -> str:
        return (
            f"Representation(n={self.n}, m={self.m}, "
            f"supernodes={self.num_supernodes}, "
            f"superedges={len(self.summary_edges)}, "
            f"corrections=+{len(self.additions)}/-{len(self.removals)}, "
            f"relative_size={self.relative_size:.4f})"
        )


def encode(partition: SuperNodePartition) -> Representation:
    """Algorithm 4: decide the optimal ``R`` from a partition.

    For every super-node pair with at least one edge between them, the
    cheaper of the two encodings (super-edge plus removals, or plain
    additions) is chosen via :func:`repro.core.costs.use_superedge` —
    exactly the per-pair minimum of Eq. 2, so the output attains the
    partition's representation cost.

    Cost bound: ``O(n + m + C)`` where ``C`` is the representation
    cost of the partition.  Each branch below enumerates either the
    actual edges of a pair (the addition branches, ``O(m)`` in total
    across all pairs) or the pair's *missing* edges (the removal
    branches) — and a removal branch is only entered when
    ``use_superedge`` holds, i.e. when ``pi - e + 1 <= e``, so the
    missing-edge work is bounded by the edges it replaces.  Since
    ``C <= m`` by construction (the all-singleton encoding costs
    exactly ``m``), the whole pass is ``O(n + m)``.
    """
    graph = partition.graph
    adjacency = graph.adjacency()
    supernodes = partition.grouping()
    node_to_supernode = {
        node: root for root, members in supernodes.items() for node in members
    }
    summary_edges: set[tuple[int, int]] = set()
    additions: set[tuple[int, int]] = set()
    removals: set[tuple[int, int]] = set()

    for u, members_u in supernodes.items():
        # Self pair: edges internal to the super-node.
        intra = partition.intra(u)
        if intra:
            pi = costs.potential_self_edges(len(members_u))
            if costs.use_superedge(pi, intra):
                summary_edges.add((u, u))
                for i, x in enumerate(members_u):
                    for y in members_u[i + 1:]:
                        if y not in adjacency[x]:
                            removals.add(_ordered(x, y))
            else:
                member_set = set(members_u)
                for x in members_u:
                    for y in adjacency[x]:
                        if y in member_set and x < y:
                            additions.add((x, y))
        # Cross pairs: handle each unordered pair once.
        for v, edges in partition.weights(u).items():
            if v < u:
                continue
            members_v = supernodes[v]
            pi = costs.potential_edges(len(members_u), len(members_v))
            if costs.use_superedge(pi, edges):
                summary_edges.add(_ordered(u, v))
                members_v_set = set(members_v)
                for x in members_u:
                    missing = members_v_set - adjacency[x]
                    for y in missing:
                        removals.add(_ordered(x, y))
            else:
                members_v_set = set(members_v)
                for x in members_u:
                    for y in adjacency[x]:
                        if y in members_v_set:
                            additions.add(_ordered(x, y))

    return Representation(
        n=graph.n,
        m=graph.m,
        supernodes=supernodes,
        node_to_supernode=node_to_supernode,
        summary_edges=summary_edges,
        additions=additions,
        removals=removals,
    )
