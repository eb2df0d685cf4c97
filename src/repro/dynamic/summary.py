"""Dynamic graph summarization (the paper's second future-work item).

Section 8 names "the extension of Mags and Mags-DM to dynamic graphs
that are frequently updated".  This module implements the standard
corrections-overlay design (the approach of Mosso [22], which the
paper cites as the dynamic-stream member of this literature):

* the summary's *super-node structure is frozen* between rebuilds;
* an edge insertion or deletion is absorbed purely by toggling
  corrections — deleting an edge covered by a super-edge adds a
  ``-e`` correction, deleting one recorded as ``+e`` just drops that
  correction, and symmetrically for insertions;
* every update therefore costs O(1), but drift makes the correction
  set grow; when the representation cost exceeds
  ``rebuild_factor`` times the cost right after the last rebuild, the
  structure is re-summarized from scratch with the configured
  summarizer (Mags-DM by default — the fast one).

The overlay is exact at all times: :meth:`DynamicGraphSummary.to_representation`
always reconstructs the current graph edge-for-edge, which the tests
verify after arbitrary update sequences.
"""

from __future__ import annotations

from typing import Callable

from repro.algorithms.base import Summarizer
from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.core.encoding import Representation
from repro.graph.graph import Graph
from repro.queries.neighbors import SummaryNeighborIndex

__all__ = ["DynamicGraphSummary"]


def _copy(rep: Representation) -> Representation:
    return Representation(
        n=rep.n,
        m=rep.m,
        supernodes={
            sid: list(members) for sid, members in rep.supernodes.items()
        },
        node_to_supernode=dict(rep.node_to_supernode),
        summary_edges=set(rep.summary_edges),
        additions=set(rep.additions),
        removals=set(rep.removals),
    )


class DynamicGraphSummary:
    """A summarized graph that accepts edge insertions and deletions.

    Parameters
    ----------
    graph:
        Initial graph (summarized eagerly on construction).
    summarizer_factory:
        Builds the summarizer used for (re)builds; defaults to
        ``MagsDMSummarizer(iterations=20)``.
    rebuild_factor:
        Re-summarize when the live cost exceeds this multiple of the
        post-rebuild cost (and at least one update happened).  ``None``
        disables automatic rebuilds.
    """

    def __init__(
        self,
        graph: Graph,
        summarizer_factory: Callable[[], Summarizer] | None = None,
        rebuild_factor: float | None = 1.5,
    ):
        if rebuild_factor is not None and rebuild_factor < 1.0:
            raise ValueError("rebuild_factor must be >= 1.0 (or None)")
        self._make_summarizer = summarizer_factory or (
            lambda: MagsDMSummarizer(iterations=20)
        )
        self.rebuild_factor = rebuild_factor
        self.num_rebuilds = 0
        self.num_updates = 0
        self._install(self._summarize(graph))

    @classmethod
    def from_representation(
        cls,
        rep: Representation,
        summarizer_factory: Callable[[], Summarizer] | None = None,
        rebuild_factor: float | None = None,
        base_cost: int | None = None,
        dirtiness: dict[int, int] | None = None,
    ) -> "DynamicGraphSummary":
        """Wrap an already-built representation without re-summarizing.

        The serving path (``repro serve --wal-dir``) loads a summary
        artifact and mutates it in place; paying a from-scratch
        summarization on startup would defeat the point.  Automatic
        rebuilds default to *off* here because a rebuild's trigger
        point depends on ``base_cost``: crash recovery must restore
        the exact ``base_cost`` of the interrupted run (it travels in
        the checkpoint) for replay to retrace the uninterrupted run's
        rebuild schedule bit-for-bit.
        """
        if rebuild_factor is not None and rebuild_factor < 1.0:
            raise ValueError("rebuild_factor must be >= 1.0 (or None)")
        self = cls.__new__(cls)
        self._make_summarizer = summarizer_factory or (
            lambda: MagsDMSummarizer(iterations=20)
        )
        self.rebuild_factor = rebuild_factor
        self.num_rebuilds = 0
        self.num_updates = 0
        self._install(rep)
        if base_cost is not None:
            if base_cost < 1:
                raise ValueError("base_cost must be >= 1")
            self._base_cost = int(base_cost)
        if dirtiness is not None:
            self._dirty = {
                int(sid): int(count)
                for sid, count in dirtiness.items()
                if int(sid) in self._rep.supernodes and int(count) > 0
            }
        return self

    @property
    def base_cost(self) -> int:
        """Representation cost right after the last (re)build — the
        reference point of the rebuild trigger."""
        return self._base_cost

    @property
    def summarizer_factory(self) -> Callable[[], Summarizer]:
        """Builds the summarizer used for (re)builds."""
        return self._make_summarizer

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def _summarize(self, graph: Graph) -> Representation:
        return self._make_summarizer().summarize(graph).representation

    def _install(self, rep: Representation) -> None:
        # A private copy, served and updated in place by the one
        # Algorithm 6 index between rebuilds.
        self._index = SummaryNeighborIndex(_copy(rep))
        self._rep = self._index.representation
        self._base_cost = max(1, self.cost)
        # Per-super-node dirtiness: cumulative count of correction
        # toggles that touched the super-node since it was last
        # (re)encoded.  A fresh install addressed everything.
        self._dirty: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Current node count."""
        return self._rep.n

    @property
    def m(self) -> int:
        """Current edge count."""
        return self._rep.m

    @property
    def cost(self) -> int:
        """Live representation cost ``|E| + |C|``."""
        return self._rep.cost

    @property
    def relative_size(self) -> float:
        """Live compactness relative to the current edge count.

        A fully-deleted graph that still pays summary-edge or removal
        cost is *infinitely* un-compact, not "perfectly compact":
        ``m == 0`` with ``cost > 0`` reports ``inf`` so drift on an
        emptied graph cannot masquerade as the best possible ratio.
        """
        if self.m == 0:
            return 0.0 if self.cost == 0 else float("inf")
        return self.cost / self.m

    def dirty_supernodes(self) -> dict[int, int]:
        """Per-super-node dirtiness counters (a copy).

        ``{sid: count}`` where ``count`` is how many correction
        toggles touched the super-node since it was last (re)encoded —
        the drift signal background maintenance spends its budget on.
        """
        return dict(self._dirty)

    def members(self, sid: int) -> list[int]:
        """Member nodes of super-node ``sid`` (empty when unknown)."""
        return self._rep.supernodes.get(sid, [])

    def corrections(self) -> set[tuple[int, int]]:
        """The live corrections of both signs, as a new set."""
        return self._rep.additions | self._rep.removals

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge exists in the *current* graph."""
        return self._index.has_edge(u, v)

    def lookup(self, u: int, v: int) -> tuple[bool, bool]:
        """The pair's one existence lookup, ``(covered, corrected)``:
        the edge exists exactly when the two differ (see
        :meth:`~repro.queries.neighbors.SummaryNeighborIndex.lookup`).
        The caller validates the endpoints."""
        return self._index.lookup(u, v)

    def neighbors(self, q: int) -> set[int]:
        """Exact current neighbor set of ``q`` (Algorithm 6)."""
        return self._index.neighbors(q)

    def to_representation(self) -> Representation:
        """Snapshot the live state as a :class:`Representation`."""
        return _copy(self._rep)

    def to_graph(self) -> Graph:
        """Materialise the current graph."""
        return Graph(self.n, sorted(self._rep.reconstruct_edges()))

    # ------------------------------------------------------------------
    # Update API
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> None:
        """Insert edge ``(u, v)``; raises if it already exists."""
        self._check_pair(u, v)
        covered, corrected = state = self._index.lookup(u, v)
        if covered != corrected:
            raise ValueError(f"edge ({u}, {v}) already exists")
        self._toggle(u, v, state)

    def delete_edge(self, u: int, v: int) -> None:
        """Delete edge ``(u, v)``; raises if it does not exist."""
        self._check_pair(u, v)
        covered, corrected = state = self._index.lookup(u, v)
        if covered == corrected:
            raise ValueError(f"edge ({u}, {v}) does not exist")
        self._toggle(u, v, state)

    def toggle_batch(self, mutations, states) -> None:
        """Apply a validated batch: flip each ``(sign, u, v)`` edge
        through the correction its :meth:`lookup` in ``states`` named,
        so no mutation is looked up twice.  The lookups must have been
        made against this summary, counting the batch's own earlier
        flips (:meth:`repro.durability.state.EngineState.check` makes
        them).  A rebuild mid-batch replaces the structure they
        describe, so the mutations after it look their edge up again.
        """
        rebuilds = self.num_rebuilds
        for (_, u, v), state in zip(mutations, states):
            if self.num_rebuilds != rebuilds:
                state = self._index.lookup(u, v)
            self._toggle(u, v, state)

    def resummarize(self) -> None:
        """Rebuild the super-node structure from the current graph."""
        self.adopt(self._summarize(self.to_graph()), {})

    def adopt(self, rep: Representation, dirtiness: dict[int, int]) -> None:
        """Install a rebuilt structure ``rep`` (a copy is kept) with its
        per-super-node ``dirtiness``, counting one rebuild — how every
        rebuild, local or from scratch, lands, including a maintenance
        pass built off-line on a scratch copy."""
        self._install(rep)
        self._dirty = dict(dirtiness)
        self.num_rebuilds += 1

    def resummarize_local(self, targets=None, budget=None) -> int:
        """Re-summarize only a dirty region of the structure.

        Super-nodes whose members appear in any live correction are
        "dirty": the drift the update stream caused is concentrated
        there, while clean super-nodes still reflect a deliberate
        grouping.  This rebuild keeps every untouched super-node's
        grouping, dissolves the processed ones, re-summarizes the
        induced subgraph over their members, and re-encodes — a
        cheaper maintenance step than :meth:`resummarize` when few
        super-nodes drifted.  Returns the number of super-nodes
        processed.

        Parameters
        ----------
        targets:
            Super-node ids to process this pass; ``None`` processes
            every correction-touched super-node (the historical
            all-or-nothing behavior).  Unknown ids are ignored; the
            remaining dirty super-nodes keep both their grouping and
            their dirtiness counters, so a later pass can pick them
            up.  The computation is a pure function of the current
            state and the (sorted) target set — background maintenance
            records the set in the WAL and crash recovery replays it
            bit-identically.
        budget:
            Optional :class:`~repro.resilience.guard.ResourceBudget`
            attached to the local summarizer (armed here), making the
            pass *anytime*.  Only deterministic dimensions (merge
            caps) should be used on passes that must replay
            bit-identically; wall-clock belongs in the selection loop
            *between* passes, never inside one.
        """
        from repro.core.encoding import encode
        from repro.core.supernodes import SuperNodePartition

        supernodes = self._rep.supernodes
        if targets is None:
            processed = {
                self._rep.node_to_supernode[node]
                for edge in self.corrections()
                for node in edge
            }
        else:
            processed = {
                int(sid) for sid in targets if int(sid) in supernodes
            }
        if not processed:
            return 0

        graph = self.to_graph()
        partition = SuperNodePartition(graph)
        # Replay every unprocessed grouping verbatim.  Iteration is
        # sorted (not dict order): union-find roots — and therefore
        # the re-encoded super-node ids — depend on merge order, and
        # crash recovery must reproduce this pass bit-identically from
        # a checkpoint whose dict order is its own (sorted) one.
        for sid, members in sorted(supernodes.items()):
            if sid in processed or len(members) < 2:
                continue
            root = partition.find(members[0])
            for node in members[1:]:
                root = partition.merge(root, partition.find(node))
        # Re-summarize the processed region and replay its grouping.
        region = sorted(
            node for sid in processed for node in supernodes[sid]
        )
        if len(region) >= 2:
            subgraph = graph.subgraph(region)
            summarizer = self._make_summarizer()
            if budget is not None:
                budget.start()
                if hasattr(summarizer, "configure_budget"):
                    summarizer.configure_budget(budget)
            local = summarizer.summarize(subgraph).representation
            for _, members in sorted(local.supernodes.items()):
                mapped = [region[i] for i in members]
                root = partition.find(mapped[0])
                for node in mapped[1:]:
                    root = partition.merge(root, partition.find(node))
        # Unprocessed groups survive the re-encode with identical
        # member sets (the partition never cross-merges them), so
        # their dirtiness carries over to their fresh super-node ids;
        # processed regions start clean.
        rebuilt = encode(partition)
        self.adopt(rebuilt, {
            rebuilt.node_to_supernode[supernodes[sid][0]]: count
            for sid, count in self._dirty.items()
            if sid not in processed
        })
        return len(processed)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_pair(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError("self-loops are not allowed")
        n = self._rep.n
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"edge ({u}, {v}) out of range for n={n}")

    def _toggle(self, u: int, v: int, state: tuple[bool, bool]) -> None:
        self._index.toggle(u, v, state)
        to_super, dirty = self._rep.node_to_supernode, self._dirty
        for node in (u, v):
            sid = to_super[node]
            dirty[sid] = dirty.get(sid, 0) + 1
        self.num_updates += 1
        if (
            self.rebuild_factor is not None
            and self.cost > self.rebuild_factor * self._base_cost
        ):
            self.resummarize()
