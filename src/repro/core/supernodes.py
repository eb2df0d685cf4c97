"""Super-node partition with incremental cost bookkeeping (Section 5.1).

The paper implements the evolving set of super-nodes ``P`` as a
disjoint-set union, and for each super-node ``u`` keeps a weight table
``W_u`` with ``W_u(v) = |E_uv|`` so that the pairwise cost ``c_uv``
(Equation 2) and the saving ``s(u, v)`` (Equation 4) can be computed
without touching the original adjacency lists.  This module is that
data structure; every summarization algorithm in the package builds on
it, so the cost calculus is written (and tested) exactly once.

Invariants maintained under :meth:`SuperNodePartition.merge`:

* ``find`` maps every original node to the root of its super-node;
* ``weights(r)`` maps each *canonical* neighbor root to the live edge
  count (entries are eagerly re-keyed on merges, so keys never go
  stale);
* ``intra(r)`` counts edges with both endpoints inside the super-node;
* the total edge mass ``sum of W + 2 * sum of intra`` is constant.

Two implementations of the cost calculus coexist (see
``docs/performance.md``):

* the scalar methods below (``node_cost`` / ``merged_cost`` /
  ``saving``), which are the cached pure-Python path;
* the NumPy kernel behind :meth:`savings_many`, which evaluates a
  group of candidate savings sharing one endpoint in a few passes over
  flat NumPy views of the weight tables.

:meth:`savings_many` is the entry point of Mags, Mags-DM and Greedy.
It picks the path per group: groups of at least ``KERNEL_MIN_GROUP``
pairs (Greedy's sweeps, Mags's wider candidate lists) go to the
kernel, smaller ones (every Mags-DM shortlist) to the scalar loop,
where the kernel's fixed per-group cost would dominate.

Both must agree bit-for-bit with :mod:`repro.core.reference`; all
intermediate quantities are integers (sums of Equation 2 terms), so
exact agreement is a hard contract enforced by ``tools/diff_fuzz.py``
rather than a tolerance.  Setting ``KERNEL_MIN_GROUP`` to
``sys.maxsize`` routes every group through the scalar path and setting
it to ``1`` routes every group through the kernel, which the test
suite uses to prove summaries are identical under the swap.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import costs
from repro.graph.graph import Graph

__all__ = ["SuperNodePartition"]

#: Smallest same-first-endpoint group that :meth:`savings_many` sends
#: to the NumPy kernel; smaller groups take the scalar ``saving`` loop.
#: The kernel's fixed per-group cost only pays off once a group is wide
#: enough; the timing tables behind this value are in
#: ``docs/performance.md``.
KERNEL_MIN_GROUP = 24


class SuperNodePartition:
    """The evolving partition ``P`` of graph nodes into super-nodes.

    Parameters
    ----------
    graph:
        The input graph; each node starts as a singleton super-node.

    Examples
    --------
    >>> from repro.graph.graph import Graph
    >>> g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    >>> p = SuperNodePartition(g)
    >>> w = p.merge(0, 1)
    >>> p.size(w), p.intra(w)
    (2, 1)
    """

    __slots__ = (
        "graph", "_parent", "_size", "_intra", "_weights", "_roots",
        "_members", "num_merges", "_cost_cache",
        "_size_arr", "_intra_arr", "_mark", "_pos", "_stamp",
        "_flat_cache",
    )

    def __init__(self, graph: Graph):
        self.graph = graph
        n = graph.n
        self._parent = list(range(n))
        self._size = [1] * n
        self._intra = [0] * n
        self._weights: list[dict[int, int]] = [
            {v: 1 for v in graph.adjacency()[u]} for u in range(n)
        ]
        self._roots: set[int] = set(range(n))
        self._members: list[list[int]] = [[u] for u in range(n)]
        self.num_merges = 0
        # node_cost is the hot path of every saving computation; cache
        # it per live root and invalidate around merges.
        self._cost_cache: dict[int, int] = {}
        # Flat int64 mirrors of _size/_intra for the batched kernel:
        # NumPy gathers (sizes[neighbor_ids]) need array backing, while
        # the scalar path keeps plain-list indexing (3x faster per
        # element than NumPy scalar indexing).  merge() updates both;
        # check_invariants() asserts they agree on live roots.
        self._size_arr = np.ones(n, dtype=np.int64)
        self._intra_arr = np.zeros(n, dtype=np.int64)
        # Scratch for savings_many: a stamp-versioned membership mark
        # and a position index over one weight table, allocated lazily.
        self._mark: np.ndarray | None = None
        self._pos: np.ndarray | None = None
        self._stamp = 0
        # Per-root flattened (keys, values) views of the weight tables
        # for the batched kernel; invalidated only for tables whose
        # *content* a merge changes (the absorbing root, the absorbed
        # root, and the absorbed root's neighbors, which get re-keyed).
        self._flat_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # DSU primitives
    # ------------------------------------------------------------------
    def find(self, x: int) -> int:
        """Canonical root of the super-node containing node ``x``."""
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def roots(self) -> set[int]:
        """The set of live super-node roots (do not mutate)."""
        return self._roots

    def num_supernodes(self) -> int:
        """Current number of super-nodes ``|P|``."""
        return len(self._roots)

    def size(self, root: int) -> int:
        """``|P_u|`` — the number of original nodes in the super-node."""
        return self._size[root]

    def intra(self, root: int) -> int:
        """``|E_uu|`` — edges with both endpoints inside the super-node."""
        return self._intra[root]

    def members(self, root: int) -> list[int]:
        """Original nodes contained in the super-node (do not mutate)."""
        return self._members[root]

    def weights(self, root: int) -> dict[int, int]:
        """``W_u``: neighbor root -> ``|E_uv|`` (do not mutate)."""
        return self._weights[root]

    # ------------------------------------------------------------------
    # Cost calculus (Equations 2-4)
    # ------------------------------------------------------------------
    def pair_cost(self, u: int, v: int) -> int:
        """``c_uv`` for two distinct live roots."""
        edges = self._weights[u].get(v, 0)
        if edges == 0:
            return 0
        pi = costs.potential_edges(self._size[u], self._size[v])
        return costs.pair_cost(pi, edges)

    def self_cost(self, u: int) -> int:
        """``c_uu`` — cost of the super-node's internal edges."""
        return costs.self_cost(self._size[u], self._intra[u])

    def node_cost(self, u: int) -> int:
        """``c_u = sum over x in N_u of c_ux`` plus the self pair.

        This is the quantity whose reduction defines the saving
        (Section 2.3); internal edges participate because a merge can
        turn cross edges into internal ones.  Cached per live root;
        the cache is invalidated around merges.  The arithmetic of
        Equation 2 is inlined — this is the innermost loop of every
        algorithm in the package.
        """
        cached = self._cost_cache.get(u)
        if cached is not None:
            return cached
        size_u = self._size[u]
        sizes = self._size
        intra = self._intra[u]
        if intra:
            pi = size_u * (size_u - 1) // 2
            total = min(pi - intra + 1, intra)
        else:
            total = 0
        for x, edges in self._weights[u].items():
            pi = size_u * sizes[x]
            cost = pi - edges + 1
            total += cost if cost < edges else edges
        self._cost_cache[u] = total
        return total

    def merged_cost(self, u: int, v: int) -> int:
        """``c_w`` for the hypothetical merge of roots ``u`` and ``v``.

        Computed from the weight tables without performing the merge:
        O(|W_u| + |W_v|).  Like :meth:`node_cost`, the Equation 2
        arithmetic is inlined for speed.
        """
        w_u, w_v = self._weights[u], self._weights[v]
        if len(w_u) < len(w_v):
            u, v = v, u
            w_u, w_v = w_v, w_u
        sizes = self._size
        size_w = sizes[u] + sizes[v]
        intra_w = self._intra[u] + self._intra[v] + w_u.get(v, 0)
        if intra_w:
            pi = size_w * (size_w - 1) // 2
            total = min(pi - intra_w + 1, intra_w)
        else:
            total = 0
        w_v_get = w_v.get
        for x, edges in w_u.items():
            if x == v:
                continue
            edges += w_v_get(x, 0)
            pi = size_w * sizes[x]
            cost = pi - edges + 1
            total += cost if cost < edges else edges
        for x, edges in w_v.items():
            if x == u or x in w_u:
                continue
            pi = size_w * sizes[x]
            cost = pi - edges + 1
            total += cost if cost < edges else edges
        return total

    def saving(self, u: int, v: int) -> float:
        """The normalized saving ``s(u, v)`` of Equation 4.

        One refinement over the paper's formula: the numerator is the
        *exact* change in total representation cost.  ``c_u + c_v``
        counts the shared pair cost ``c_uv`` twice (once in each node
        cost), so the true reduction of Equation 3 when merging is
        ``(c_u + c_v - c_uv) - c_w``; Equation 4's ``c_u + c_v - c_w``
        overstates it by ``c_uv`` for adjacent super-nodes.  Without
        the correction, Greedy happily performs marginal merges that
        *increase* the summary size, breaking its role as the
        compactness gold standard.  For non-adjacent pairs (``c_uv =
        0``) the two definitions coincide, as do the 0.5 upper bound
        and the threshold schedule built on it.

        Returns 0.0 when both super-nodes are cost-free (e.g. isolated
        nodes), where a merge neither helps nor hurts.
        """
        if u == v:
            raise ValueError("saving of a super-node with itself is undefined")
        cost_u = self.node_cost(u)
        cost_v = self.node_cost(v)
        denom = cost_u + cost_v
        if denom == 0:
            return 0.0
        reduction = denom - self.pair_cost(u, v) - self.merged_cost(u, v)
        return reduction / denom

    # ------------------------------------------------------------------
    # Batched fast kernel
    # ------------------------------------------------------------------
    def savings_many(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[float]:
        """Batched ``s(u, v)`` over many pairs of live roots.

        The entry point of the three hot consumers (Mags's candidate
        generation and refresh, Mags-DM's shortlist scoring, Greedy's
        pair scans).  Consecutive pairs sharing their first endpoint
        form one group.  A group of at least ``KERNEL_MIN_GROUP``
        pairs goes to the NumPy kernel: the shared endpoint's weight
        table is flattened once, and all of the group's merged costs
        (Equation 2 summed over the merged weight tables) are computed
        with vectorised passes instead of per-pair Python dict loops.
        A smaller group is scored pair by pair with :meth:`saving`.
        Callers therefore get the best throughput by passing pairs
        grouped by first endpoint — exactly the shape the consumers
        produce naturally.

        Every intermediate is an exact int64 (no floating-point
        accumulation), and the final ratio is divided in Python-int
        arithmetic, so results are bit-identical to :meth:`saving`
        and to :mod:`repro.core.reference` — the contract enforced by
        ``tools/diff_fuzz.py``.  Results come back in input order;
        duplicate and ``(v, u)``-ordered pairs are fine.

        Raises :class:`ValueError` if any pair has ``u == v``, same as
        :meth:`saving`.
        """
        count = len(pairs)
        if count == 0:
            return []
        out: list[float] = [0.0] * count
        start = 0
        while start < count:
            u = pairs[start][0]
            end = start + 1
            while end < count and pairs[end][0] == u:
                end += 1
            if end - start < KERNEL_MIN_GROUP:
                saving = self.saving
                for j in range(start, end):
                    out[j] = saving(u, pairs[j][1])
            else:
                group = [pairs[j][1] for j in range(start, end)]
                out[start:end] = self._savings_group(u, group)
            start = end
        return out

    def _savings_group(self, u: int, vs: list[int]) -> list[float]:
        """``[s(u, v) for v in vs]`` with the u-side work amortised."""
        n = self.graph.n
        if self._mark is None:
            self._mark = np.zeros(n, dtype=np.int64)
            self._pos = np.zeros(n, dtype=np.int64)
        mark, pos = self._mark, self._pos
        self._stamp += 1
        stamp = self._stamp
        sz = self._size_arr
        intra_arr = self._intra_arr
        cache = self._cost_cache
        weights = self._weights
        flat = self._flat_cache

        def flatten(r: int) -> tuple[np.ndarray, np.ndarray]:
            got = flat.get(r)
            if got is None:
                table = weights[r]
                length = len(table)
                got = flat[r] = (
                    np.fromiter(table.keys(), dtype=np.int64, count=length),
                    np.fromiter(table.values(), dtype=np.int64, count=length),
                )
            return got

        w_u = self._weights[u]
        du = len(w_u)
        xs_u, es_u = flatten(u)
        if du:
            mark[xs_u] = stamp
            pos[xs_u] = np.arange(du, dtype=np.int64)
        su = self._size[u]
        iu = self._intra[u]

        cost_u = cache.get(u)
        if cost_u is None:
            if iu:
                pi = su * (su - 1) // 2
                cost_u = min(pi - iu + 1, iu)
            else:
                cost_u = 0
            if du:
                cost_u += int(
                    np.minimum(su * sz[xs_u] - es_u + 1, es_u).sum()
                )
            cache[u] = cost_u

        k = len(vs)
        vs_arr = np.fromiter(vs, dtype=np.int64, count=k)
        if (vs_arr == u).any():
            raise ValueError(
                "saving of a super-node with itself is undefined"
            )
        s_vs = sz[vs_arr]
        i_vs = intra_arr[vs_arr]
        # |E_uv| gathered from the flat u-side view: v is adjacent to u
        # exactly when its mark carries the current stamp.
        has_v = mark[vs_arr] == stamp if du else np.zeros(k, dtype=bool)
        e_uv = np.zeros(k, dtype=np.int64)
        if has_v.any():
            e_uv[has_v] = es_u[pos[vs_arr[has_v]]]

        # Flatten the v-side weight tables into one concatenated view
        # (per-root arrays come from the persistent flat cache).
        flats = [flatten(v) for v in vs]
        lens = np.fromiter(
            (arrs[0].size for arrs in flats), dtype=np.int64, count=k
        )
        total_len = int(lens.sum())
        if total_len:
            X = np.concatenate([arrs[0] for arrs in flats])
            E = np.concatenate([arrs[1] for arrs in flats])
        else:
            X = np.empty(0, dtype=np.int64)
            E = np.empty(0, dtype=np.int64)
        starts = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(lens, out=starts[1:])
        P = np.repeat(np.arange(k, dtype=np.int64), lens)

        # Node costs of the v side (one segmented reduction); results
        # are written through to the shared scalar cache.
        seg = np.zeros(k, dtype=np.int64)
        if total_len:
            per_elem = np.minimum(s_vs[P] * sz[X] - E + 1, E)
            nonempty = lens > 0
            # reduceat over the starts of non-empty segments: empty
            # segments occupy no elements, so consecutive non-empty
            # starts delimit exactly one segment's slice.
            seg[nonempty] = np.add.reduceat(
                per_elem, starts[:-1][nonempty]
            )
        self_v = np.where(
            i_vs > 0,
            np.minimum(s_vs * (s_vs - 1) // 2 - i_vs + 1, i_vs),
            0,
        )
        cost_vs_arr = seg + self_v
        cost_vs = cost_vs_arr.tolist()
        for j, v in enumerate(vs):
            if v not in cache:
                cache[v] = cost_vs[j]

        # Merged costs c_w, vectorised over the group:
        #   u-side: a (k, du) matrix of combined edge counts, where
        #   v-neighbors also present in W_u scatter-add into their
        #   column; the column of x == v is subtracted back out.
        #   v-side tail: neighbors not in W_u (and != u), accumulated
        #   per pair with an exact int64 scatter-add.
        size_w = su + s_vs
        if du:
            comb = np.broadcast_to(es_u, (k, du)).copy()
            dup = mark[X] == stamp
            if dup.any():
                comb[P[dup], pos[X[dup]]] += E[dup]
            pi_m = size_w[:, None] * sz[xs_u][None, :]
            cost_m = np.minimum(pi_m - comb + 1, comb)
            merged = cost_m.sum(axis=1)
            if has_v.any():
                rows = np.flatnonzero(has_v)
                merged[rows] -= cost_m[rows, pos[vs_arr[rows]]]
        else:
            merged = np.zeros(k, dtype=np.int64)
            dup = np.zeros(total_len, dtype=bool)
        if total_len:
            tail = ~dup & (X != u)
            if tail.any():
                tail_cost = np.minimum(
                    size_w[P[tail]] * sz[X[tail]] - E[tail] + 1, E[tail]
                )
                np.add.at(merged, P[tail], tail_cost)
        intra_w = iu + i_vs + e_uv
        merged += np.where(
            intra_w > 0,
            np.minimum(size_w * (size_w - 1) // 2 - intra_w + 1, intra_w),
            0,
        )
        pc = np.where(
            e_uv > 0, np.minimum(su * s_vs - e_uv + 1, e_uv), 0
        )

        # Final ratio.  int64 -> float64 conversion is exact below
        # 2**53 and IEEE division is correctly rounded, so the
        # vectorised division is bit-identical to Python-int division
        # there; costs are bounded by ~2m, so the scalar fallback only
        # ever triggers on astronomically dense inputs.
        denom_arr = cost_u + cost_vs_arr
        numer_arr = denom_arr - pc - merged
        if int(denom_arr.max(initial=0)) < 2 ** 53 and (
            int(np.abs(numer_arr).max(initial=0)) < 2 ** 53
        ):
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = numer_arr / denom_arr
            return np.where(denom_arr == 0, 0.0, ratio).tolist()
        merged_l = merged.tolist()
        pc_l = pc.tolist()
        results: list[float] = []
        for j in range(k):
            denom = cost_u + cost_vs[j]
            if denom == 0:
                results.append(0.0)
            else:
                results.append((denom - pc_l[j] - merged_l[j]) / denom)
        return results

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, u: int, v: int) -> int:
        """Merge live roots ``u`` and ``v``; return the surviving root.

        The larger table absorbs the smaller one, and every third-party
        weight table referencing the absorbed root is re-keyed, keeping
        all tables canonical (Section 5.1's dynamic ``W`` maintenance).
        """
        if u == v:
            raise ValueError("cannot merge a super-node with itself")
        if self._parent[u] != u or self._parent[v] != v:
            raise ValueError("merge arguments must be live roots")
        # Union by weight-table size: re-keying cost is driven by the
        # number of neighbor tables we must touch.
        if len(self._weights[u]) < len(self._weights[v]):
            u, v = v, u
        w_u, w_v = self._weights[u], self._weights[v]

        self._parent[v] = u
        self._roots.discard(v)
        # Invalidate cached node costs: the merged super-node, the
        # absorbed one, and every neighbor of either (their pair costs
        # change because |P| of the merged endpoint changed).
        cache_pop = self._cost_cache.pop
        cache_pop(u, None)
        cache_pop(v, None)
        for x in w_u:
            cache_pop(x, None)
        for x in w_v:
            cache_pop(x, None)
        # The flat views only mirror table *content*, so a narrower
        # invalidation suffices: u's table absorbs, v's is cleared, and
        # v's neighbors get re-keyed.  Neighbors only of u keep their
        # tables byte-identical (u stays their key) and stay cached.
        flat_pop = self._flat_cache.pop
        flat_pop(u, None)
        flat_pop(v, None)
        for x in w_v:
            flat_pop(x, None)
        self._size[u] += self._size[v]
        self._size_arr[u] = self._size[u]
        self._members[u].extend(self._members[v])
        self._members[v] = []
        self._intra[u] += self._intra[v] + w_u.pop(v, 0)
        self._intra_arr[u] = self._intra[u]
        w_v.pop(u, None)

        for x, edges in w_v.items():
            w_u[x] = w_u.get(x, 0) + edges
            table_x = self._weights[x]
            table_x[u] = table_x.get(u, 0) + table_x.pop(v)
        w_v.clear()
        self.num_merges += 1
        return u

    # ------------------------------------------------------------------
    # Whole-partition queries
    # ------------------------------------------------------------------
    def total_cost(self) -> int:
        """Representation cost ``c(R)`` of the current partition (Eq. 3)."""
        total = 0
        for u in self._roots:
            total += self.self_cost(u)
            for v, edges in self._weights[u].items():
                if v < u:
                    continue  # count each unordered pair once
                pi = costs.potential_edges(self._size[u], self._size[v])
                total += costs.pair_cost(pi, edges)
        return total

    def grouping(self) -> dict[int, list[int]]:
        """Map each live root to its member nodes (copies)."""
        return {root: list(self._members[root]) for root in self._roots}

    def check_invariants(self) -> None:
        """Assert internal consistency; used by tests and debugging."""
        edge_mass = sum(
            sum(w.values()) for r, w in enumerate(self._weights)
            if r in self._roots
        )
        intra_mass = sum(self._intra[r] for r in self._roots)
        if edge_mass % 2:
            raise AssertionError("cross-super-node edge mass must be even")
        if edge_mass // 2 + intra_mass != self.graph.m:
            raise AssertionError(
                "edge mass mismatch: "
                f"{edge_mass // 2} cross + {intra_mass} intra != {self.graph.m}"
            )
        total_size = sum(self._size[r] for r in self._roots)
        if total_size != self.graph.n:
            raise AssertionError("sizes do not sum to n")
        for r in self._roots:
            if int(self._size_arr[r]) != self._size[r]:
                raise AssertionError(f"size mirror out of sync at {r}")
            if int(self._intra_arr[r]) != self._intra[r]:
                raise AssertionError(f"intra mirror out of sync at {r}")
        for r in self._roots:
            for x, edges in self._weights[r].items():
                if x not in self._roots:
                    raise AssertionError(f"stale key {x} in W_{r}")
                if edges <= 0:
                    raise AssertionError(f"non-positive weight in W_{r}")
                if self._weights[x].get(r) != edges:
                    raise AssertionError(f"asymmetric weight for ({r}, {x})")
