"""Neighbor queries on the summary (Algorithm 6, Section 6.6).

A neighbor query for node ``q`` is answered directly from
``R = (S, C)``: expand the member sets of the super-nodes adjacent to
``q``'s super-node, then apply the corrections that mention ``q``.
The paper shows the expected cost is ``~1.12 * d_avg`` because the
negative corrections are at most 6% of ``m`` in practice.

:class:`SummaryNeighborIndex` pre-buckets the corrections per node so
repeated queries run in time proportional to the answer, which is how
a deployed summary store would serve adjacency — read-only, and under
the live corrections overlay of
:class:`~repro.dynamic.summary.DynamicGraphSummary`.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.encoding import Representation

__all__ = ["neighbor_query", "SummaryNeighborIndex"]


def neighbor_query(representation: Representation, q: int) -> set[int]:
    """Answer one neighbor query by scanning the correction sets.

    This is the literal Algorithm 6, except that the super-edge
    expansion goes through the representation's cached
    :meth:`~repro.core.encoding.Representation.superedge_adjacency`
    instead of scanning every summary edge, so the expansion costs
    time proportional to the answer.  The correction scan is still
    ``O(|C|)`` per call; for repeated queries use
    :class:`SummaryNeighborIndex`, which buckets the corrections too.
    """
    if not 0 <= q < representation.n:
        raise IndexError(f"node {q} out of range")
    supernode = representation.node_to_supernode[q]
    neighbors: set[int] = set()
    for sv in representation.superedge_adjacency().get(supernode, ()):
        neighbors.update(representation.supernodes[sv])
    if (supernode, supernode) in representation.summary_edges:
        neighbors.update(representation.supernodes[supernode])
    additions = {
        y if x == q else x
        for x, y in representation.additions
        if q in (x, y)
    }
    removals = {
        y if x == q else x
        for x, y in representation.removals
        if q in (x, y)
    }
    return (neighbors | additions) - removals - {q}


class SummaryNeighborIndex:
    """Adjacency service over a representation.

    Buckets super-edges per super-node and corrections per node once,
    after which :meth:`neighbors` costs
    ``O(|answer| + |C^-_q|)`` — the expected ``1.12 * d_avg`` bound of
    Section 6.6.

    The index serves the representation it was given *in place*:
    :meth:`toggle` flips one edge by toggling one correction, keeping
    ``additions``/``removals``, ``m`` and the per-node buckets in step,
    which is how :class:`~repro.dynamic.summary.DynamicGraphSummary`
    absorbs updates between rebuilds.  The super-edges are frozen;
    a new super-node structure means a new index.
    """

    def __init__(self, representation: Representation):
        self._representation = representation
        # Super-edge buckets are shared with (and cached on) the
        # representation so the one-shot query and every index/engine
        # built on the same summary expand through one structure.
        self._super_adj = representation.superedge_adjacency()
        self._self_edge: set[int] = {
            su for su, sv in representation.summary_edges if su == sv
        }
        self._add: dict[int, set[int]] = defaultdict(set)
        for x, y in representation.additions:
            self._add[x].add(y)
            self._add[y].add(x)
        self._remove: dict[int, set[int]] = defaultdict(set)
        for x, y in representation.removals:
            self._remove[x].add(y)
            self._remove[y].add(x)

    @property
    def representation(self) -> Representation:
        """The representation being served."""
        return self._representation

    @property
    def n(self) -> int:
        """Node count."""
        return self._representation.n

    @property
    def m(self) -> int:
        """Edge count."""
        return self._representation.m

    def neighbors(self, q: int) -> set[int]:
        """The exact neighbor set of node ``q`` in the original graph."""
        rep = self._representation
        if not 0 <= q < rep.n:
            raise IndexError(f"node {q} out of range")
        supernode = rep.node_to_supernode[q]
        result: set[int] = set()
        for sv in self._super_adj.get(supernode, ()):
            result.update(rep.supernodes[sv])
        if supernode in self._self_edge:
            result.update(rep.supernodes[supernode])
        result.update(self._add.get(q, ()))
        result -= self._remove.get(q, set())
        result.discard(q)
        return result

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` exists (``False`` for self-loops
        and out-of-range endpoints)."""
        rep = self._representation
        if u == v or not (0 <= u < rep.n and 0 <= v < rep.n):
            return False
        covered, corrected = self.lookup(u, v)
        return covered != corrected

    def lookup(self, u: int, v: int) -> tuple[bool, bool]:
        """The one existence lookup of edge ``(u, v)``:
        ``(covered, corrected)`` — whether a super-edge spans the pair
        and whether a correction names it.  The edge exists exactly
        when the two differ, and :meth:`toggle` flips the correction
        they name (``-e`` under a super-edge, ``+e`` outside one).
        The caller validates the endpoints."""
        rep = self._representation
        key = (u, v) if u <= v else (v, u)
        if key in rep.additions:
            return False, True
        if key in rep.removals:
            return True, True
        to_super = rep.node_to_supernode
        su, sv = to_super[u], to_super[v]
        covered = ((su, sv) if su <= sv else (sv, su)) in rep.summary_edges
        return covered, False

    def toggle(self, u: int, v: int, state: tuple[bool, bool]) -> None:
        """Flip whether edge ``(u, v)`` exists by toggling the one
        correction that decides it: drop ``+e``/``-e`` when present,
        else add ``-e`` under a super-edge and ``+e`` outside one.
        ``state`` is the pair's :meth:`lookup` against the current
        structure.  The caller validates the endpoints."""
        rep = self._representation
        covered, corrected = state
        corrections, buckets = (
            (rep.removals, self._remove) if covered
            else (rep.additions, self._add)
        )
        flip = set.discard if corrected else set.add
        flip(corrections, (u, v) if u <= v else (v, u))
        flip(buckets[u], v)
        flip(buckets[v], u)
        # The edge existed exactly when covered != corrected.
        rep.m += 1 if covered == corrected else -1

    def degree(self, q: int) -> int:
        """Degree of node ``q``."""
        return len(self.neighbors(q))

    def work_units(self, q: int) -> int:
        """Operations Algorithm 6 performs for node ``q``.

        ``|answer expanded| + 2 * |C^-_q|`` — the quantity whose
        expectation Section 6.6 bounds by ``1.12 * d_avg``.
        """
        rep = self._representation
        supernode = rep.node_to_supernode[q]
        expanded = sum(
            len(rep.supernodes[sv])
            for sv in self._super_adj.get(supernode, ())
        )
        if supernode in self._self_edge:
            expanded += len(rep.supernodes[supernode]) - 1
        expanded += len(self._add.get(q, ()))
        return expanded + 2 * len(self._remove.get(q, ()))
