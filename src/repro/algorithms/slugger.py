"""Slugger: Lee et al.'s hierarchical summarization baseline [25].

Slugger generalises the flat summary model: super-nodes may contain
other super-nodes, a representation is ``R_H = (S, P+, P-, H)``, and
its compactness measure is ``(|P+| + |P-| + |H|) / m`` (Section 6.1 of
the Mags paper).  Hierarchy pays off when a graph contains nested
dense structure — the paper's Section 6.2 highlights Hollywood-2011,
whose 2208-clique plus surrounding hierarchy lets Slugger beat even
Mags on that one dataset.

This reproduction implements the hierarchical model in two stages:

1. a SWeG-style divide-and-merge loop (``theta(t)`` threshold) that
   records the full merge *dendrogram*;
2. a bottom-up dynamic program over each super-node's dendrogram that
   decides, per subtree, whether its internal edges are cheapest as
   (a) plus-corrections, (b) one self super-edge at this level plus
   minus-corrections, or (c) split into the two children's encodings
   plus a cross encoding between the children.  Materialising an
   internal tree node as a super-edge endpoint charges 2 hierarchy
   links (its child containment edges), which is how ``|H|`` is
   counted.

The flat representation (for losslessness checks) is still produced
with the standard optimal encoding; Slugger's own hierarchical cost is
reported in ``SummaryResult.extra_metrics['hierarchical_cost']`` and
``['hierarchical_relative_size']``, matching the paper's use of a
distinct measure for Slugger.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.algorithms._dm_common import (
    divide_by_single_hash,
    merge_group_superjaccard,
)
from repro.algorithms.base import PhaseTimer, Summarizer
from repro.core import costs
from repro.core.encoding import Representation, encode
from repro.core.minhash import MinHashSignatures
from repro.core.supernodes import SuperNodePartition
from repro.core.thresholds import theta
from repro.graph.graph import Graph

__all__ = ["SluggerSummarizer", "Dendrogram", "hierarchical_intra_cost"]

#: Hierarchy links charged when an internal dendrogram node is
#: materialised as a super-edge endpoint (its two child links).
_HIERARCHY_CHARGE = 2


@dataclass
class _TreeNode:
    """One dendrogram node; leaves carry a single original node."""

    members: list[int]
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class Dendrogram:
    """Merge forest over the original nodes.

    Starts as ``n`` leaves; :meth:`record` joins the trees of the
    survivor and absorbed roots under a new internal node.
    """

    def __init__(self, n: int):
        self._tree_of_root: dict[int, _TreeNode] = {
            u: _TreeNode(members=[u]) for u in range(n)
        }

    def record(self, survivor: int, absorbed: int) -> None:
        """Record that ``absorbed``'s super-node merged into ``survivor``."""
        left = self._tree_of_root.pop(survivor)
        right = self._tree_of_root.pop(absorbed)
        self._tree_of_root[survivor] = _TreeNode(
            members=left.members + right.members, left=left, right=right
        )

    def tree(self, root: int) -> _TreeNode:
        """The dendrogram of the super-node rooted at ``root``."""
        return self._tree_of_root[root]


def _cross_edges(graph: Graph, small: list[int], large_set: set[int]) -> int:
    """Edges between two disjoint member sets, counted from the smaller."""
    adjacency = graph.adjacency()
    return sum(
        1 for x in small for y in adjacency[x] if y in large_set
    )


def plan_intra_encoding(
    graph: Graph, tree: _TreeNode
) -> tuple[int, dict[int, tuple]]:
    """Plan the hierarchical encoding of one super-node's interior.

    Bottom-up DP over the dendrogram (iterative, to cope with deep
    skewed trees).  Returns ``(cost_estimate, choices)`` where
    ``choices[id(node)]`` is one of

    * ``("plus",)`` — every internal edge as a leaf-level positive;
    * ``("super",)`` — self super-edge at this level + leaf negatives;
    * ``("split", cross_choice)`` — recurse into the children and
      encode the cross edges, where ``cross_choice`` is ``"plus"`` or
      ``"super"``.

    The estimate charges ``_HIERARCHY_CHARGE`` per materialised
    internal node; the exact ``|H|`` of the final structure is
    computed by :class:`~repro.algorithms.hierarchy.HierarchicalRepresentation`.
    """
    # Post-order traversal without recursion.
    order: list[_TreeNode] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        if not node.is_leaf:
            stack.append(node.left)
            stack.append(node.right)
    order.reverse()

    best: dict[int, int] = {}  # id(node) -> optimal cost
    intra: dict[int, int] = {}  # id(node) -> internal edge count
    choices: dict[int, tuple] = {}
    for node in order:
        if node.is_leaf:
            best[id(node)] = 0
            intra[id(node)] = 0
            continue
        left, right = node.left, node.right
        if len(left.members) <= len(right.members):
            cross = _cross_edges(graph, left.members, set(right.members))
        else:
            cross = _cross_edges(graph, right.members, set(left.members))
        edges_here = intra[id(left)] + intra[id(right)] + cross
        intra[id(node)] = edges_here

        size = len(node.members)
        pi = costs.potential_self_edges(size)
        # (a) every internal edge as a plus-correction (no hierarchy).
        flat_plus = edges_here
        # (b) self super-edge at this level + minus-corrections + charge.
        flat_super = pi - edges_here + 1 + _HIERARCHY_CHARGE
        # (c) recurse into children, encode the cross edges between them.
        pi_cross = len(left.members) * len(right.members)
        cross_plus = cross
        cross_super = pi_cross - cross + 1 + _HIERARCHY_CHARGE
        if cross == 0:
            cross_cost, cross_choice = 0, "plus"
        elif cross_super < cross_plus:
            cross_cost, cross_choice = cross_super, "super"
        else:
            cross_cost, cross_choice = cross_plus, "plus"
        split = best[id(left)] + best[id(right)] + cross_cost

        options: list[tuple[int, tuple]] = [
            (split, ("split", cross_choice)),
            (flat_plus, ("plus",)),
        ]
        if edges_here:
            options.append((flat_super, ("super",)))
        cost, choice = min(options, key=lambda pair: pair[0])
        best[id(node)] = cost
        choices[id(node)] = choice
    return best[id(tree)], choices


def hierarchical_intra_cost(graph: Graph, tree: _TreeNode) -> int:
    """Cost estimate of :func:`plan_intra_encoding` (convenience)."""
    cost, __ = plan_intra_encoding(graph, tree)
    return cost


def _emit_intra(builder, adjacency, tree: _TreeNode, choices: dict[int, tuple]) -> None:
    """Emit one super-node's interior per the encoding plan."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        choice = choices[id(node)]
        members = node.members
        member_set = set(members)
        if choice[0] == "plus":
            builder.add_positive_leaf_pairs(
                (x, y)
                for x in members
                for y in adjacency[x]
                if y in member_set and x < y
            )
        elif choice[0] == "super":
            a = builder.node_for(members)
            builder.add_positive(a, a)
            for i, x in enumerate(members):
                for y in members[i + 1:]:
                    if y not in adjacency[x]:
                        builder.add_negative(x, y)
        else:  # ("split", cross_choice)
            left, right = node.left, node.right
            stack.append(left)
            stack.append(right)
            cross_choice = choice[1]
            right_set = set(right.members)
            cross_pairs = [
                (x, y)
                for x in left.members
                for y in adjacency[x]
                if y in right_set
            ]
            if not cross_pairs:
                continue
            if cross_choice == "super":
                a = builder.node_for(left.members)
                b = builder.node_for(right.members)
                builder.add_positive(a, b)
                for x in left.members:
                    for y in right_set - adjacency[x]:
                        builder.add_negative(x, y)
            else:
                builder.add_positive_leaf_pairs(cross_pairs)


class SluggerSummarizer(Summarizer):
    """Lee et al.'s hierarchical summarizer [25].

    Parameters
    ----------
    iterations:
        Number of divide/merge rounds ``T`` (the paper uses 50).
    """

    name = "Slugger"

    def __init__(
        self,
        iterations: int = 50,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations
        #: The materialised hierarchical representation of the last
        #: run (Slugger's own R_H = (S, P+, P-, H)); the flat
        #: `SummaryResult.representation` is kept for interoperability
        #: with the rest of the package.
        self.last_hierarchical = None

    def params(self):
        return {"seed": self.seed, "T": self.iterations}

    def _run(
        self, graph: Graph, timer: PhaseTimer
    ) -> tuple[Representation, int]:
        rng = random.Random(self.seed)
        partition = SuperNodePartition(graph)
        dendrogram = Dendrogram(graph.n)
        timer.start("signatures")
        signatures = MinHashSignatures(graph, self.iterations, self.seed)

        num_merges = 0
        for t in range(1, self.iterations + 1):
            timer.start("divide")
            groups = divide_by_single_hash(
                sorted(partition.roots()), signatures, t - 1
            )
            timer.start("merge")
            threshold = theta(t)
            merges_before = num_merges
            for group in groups:
                num_merges += merge_group_superjaccard(
                    partition,
                    signatures,
                    group,
                    threshold,
                    rng,
                    on_merge=dendrogram.record,
                )
                timer.check_budget()
            timer.progress(
                "iteration",
                t=t,
                threshold=round(threshold, 6),
                groups=len(groups),
                merges=num_merges - merges_before,
                total_merges=num_merges,
            )

        timer.start("encode")
        representation = encode(partition)
        hierarchical = self._build_hierarchical(graph, partition, dendrogram)
        self.last_hierarchical = hierarchical
        self._extra_metrics = {
            "hierarchical_cost": float(hierarchical.cost),
            "hierarchical_relative_size": hierarchical.relative_size,
        }
        return representation, num_merges

    @staticmethod
    def _build_hierarchical(
        graph: Graph,
        partition: SuperNodePartition,
        dendrogram: Dendrogram,
    ):
        """Materialise ``R_H = (S, P+, P-, H)`` from the merge forest.

        Intra-super-node edges follow the dendrogram encoding plan;
        cross-super-node edges are encoded flat between final roots
        (a positive root-pair plus leaf negatives when dense, leaf
        positives when sparse).
        """
        from repro.algorithms.hierarchy import HierarchyBuilder

        builder = HierarchyBuilder(graph)
        adjacency = graph.adjacency()
        for root in partition.roots():
            tree = dendrogram.tree(root)
            __, choices = plan_intra_encoding(graph, tree)
            _emit_intra(builder, adjacency, tree, choices)
            members_u = partition.members(root)
            size_u = partition.size(root)
            for v, edges in partition.weights(root).items():
                if v < root:
                    continue
                members_v = partition.members(v)
                pi = costs.potential_edges(size_u, partition.size(v))
                if costs.use_superedge(pi, edges):
                    a = builder.node_for(members_u)
                    b = builder.node_for(members_v)
                    builder.add_positive(a, b)
                    member_set_v = set(members_v)
                    for x in members_u:
                        for y in member_set_v - adjacency[x]:
                            builder.add_negative(x, y)
                else:
                    member_set_v = set(members_v)
                    builder.add_positive_leaf_pairs(
                        (x, y)
                        for x in members_u
                        for y in adjacency[x]
                        if y in member_set_v
                    )
        return builder.build()
