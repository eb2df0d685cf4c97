"""Mags-DM: the paper's divide-and-merge summarizer (Section 4).

Mags-DM keeps SWeG's round structure but changes four things:

* **Dividing strategy**: groups are formed with a *set* of hash
  functions, recursively splitting any group above ``max_group_size``
  (paper: M = 500, depth <= 10) so merging never scans huge groups.
* **Merging strategy 1 (node selection)**: instead of merging with the
  single most similar node, take the top ``b`` by similarity and merge
  with the one of *largest actual saving*.
* **Merging strategy 2 (similarity measure)**: the MinHash estimator
  ``mh(u, v)`` (Equation 5) replaces Super-Jaccard, which is biased
  toward large super-nodes (Example 2) and slower to evaluate.
* **Merging strategy 3 (merge threshold)**: the geometric ``omega(t)``
  (Equation 6) replaces ``theta(t) = 1/(t+1)``.

Each strategy can be disabled individually (``dividing_strategy``,
``node_selection``, ``similarity``, ``threshold``) to reproduce the
Figure 9/10 ablations; disabling all four recovers SWeG.
Runs in ``O(T * m)`` (Theorem 5).
"""

from __future__ import annotations

import random
from typing import Literal

import numpy as np

from repro.algorithms._dm_common import (
    divide_by_single_hash,
    divide_recursive,
    shuffled_rows,
)
from repro.algorithms.base import (
    PhaseTimer,
    RecordingPartition,
    Summarizer,
    active_fault_injector,
)
from repro.core.encoding import Representation, encode
from repro.core.minhash import MinHashSignatures, super_jaccard
from repro.core.supernodes import SuperNodePartition
from repro.core.thresholds import omega, theta
from repro.graph.graph import Graph

__all__ = ["MagsDMSummarizer", "agreement_matrix", "agreement_with"]


def agreement_matrix(cols: np.ndarray) -> np.ndarray:
    """Pairwise signature-agreement counts of a group (h, size) -> (size, size).

    Mags-DM builds it only for a group of more than ``b + 1`` nodes,
    whose pivots rank their shortlist by these counts; a smaller group
    shortlists every alive node and needs none.

    The dtype is promoted to ``int32`` when ``h`` exceeds the
    ``int16`` range: counts go up to ``h``, and a user-supplied
    ``h > 32767`` would otherwise silently overflow the agreement
    counts (negative similarities demote perfectly similar pairs).
    The diagonal is pinned to ``-1`` so a node never shortlists
    itself.
    """
    h, size = cols.shape
    dtype = np.int16 if h <= np.iinfo(np.int16).max else np.int32
    matrix = np.zeros((size, size), dtype=dtype)
    for row in cols:
        matrix += row[:, None] == row[None, :]
    np.fill_diagonal(matrix, -1)
    return matrix


def agreement_with(cols: np.ndarray, index: int, dtype) -> np.ndarray:
    """One column's agreement counts against every group column."""
    return (cols == cols[:, [index]]).sum(axis=0).astype(dtype)


class MagsDMSummarizer(Summarizer):
    """The paper's Mags-DM algorithm (Algorithm 5).

    Parameters
    ----------
    iterations:
        ``T`` (paper: 50).
    b:
        Size of the candidate shortlist per pivot node (paper: 5).
    h:
        Number of hash functions for signatures (paper: 40).
    max_group_size:
        Dividing-strategy group cap ``M`` (paper: 500).
    max_depth:
        Recursion limit of the dividing strategy (paper: 10).
    dividing_strategy:
        ``True`` for Mags-DM's multi-hash recursive dividing, ``False``
        for SWeG's single-hash dividing (the "no DS" ablation).
    node_selection:
        ``'top_b'`` for Merging Strategy 1, ``'top_1'`` for SWeG's
        single most-similar candidate.
    similarity:
        ``'minhash'`` for Merging Strategy 2, ``'super_jaccard'`` for
        SWeG's measure.
    threshold:
        ``'omega'`` for Merging Strategy 3, ``'theta'`` for SWeG's.
    """

    name = "Mags-DM"

    def __init__(
        self,
        iterations: int = 50,
        b: int = 5,
        h: int = 40,
        max_group_size: int = 500,
        max_depth: int = 10,
        dividing_strategy: bool = True,
        node_selection: Literal["top_b", "top_1"] = "top_b",
        similarity: Literal["minhash", "super_jaccard"] = "minhash",
        threshold: Literal["omega", "theta"] = "omega",
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if b < 1:
            raise ValueError("b must be >= 1")
        if h < 1:
            raise ValueError("h must be >= 1")
        if max_group_size < 2:
            raise ValueError("max_group_size must be >= 2")
        if node_selection not in ("top_b", "top_1"):
            raise ValueError(f"unknown node_selection {node_selection!r}")
        if similarity not in ("minhash", "super_jaccard"):
            raise ValueError(f"unknown similarity {similarity!r}")
        if threshold not in ("omega", "theta"):
            raise ValueError(f"unknown threshold {threshold!r}")
        self.iterations = iterations
        self.b = b
        self.h = h
        self.max_group_size = max_group_size
        self.max_depth = max_depth
        self.dividing_strategy = dividing_strategy
        self.node_selection = node_selection
        self.similarity = similarity
        self.threshold = threshold
        #: Per-iteration lists of group sizes from the last run; used
        #: by the Figure 13 work-partition speedup model.
        self.last_group_sizes: list[list[int]] = []

    def params(self):
        return {
            "seed": self.seed,
            "T": self.iterations,
            "b": self.b,
            "h": self.h,
            "M": self.max_group_size,
            "dividing_strategy": self.dividing_strategy,
            "node_selection": self.node_selection,
            "similarity": self.similarity,
            "threshold": self.threshold,
        }

    # ------------------------------------------------------------------
    def _threshold(self, t: int) -> float:
        if self.threshold == "omega":
            return omega(t, self.iterations)
        return theta(t)

    def _run(
        self, graph: Graph, timer: PhaseTimer
    ) -> tuple[Representation, int]:
        rng = random.Random(self.seed)
        partition = (
            RecordingPartition(graph)
            if self._ckpt_store is not None
            else SuperNodePartition(graph)
        )
        timer.start("signatures")
        signatures = MinHashSignatures(graph, self.h, self.seed)

        num_merges = 0
        start_t = 1
        self.last_group_sizes = []
        checkpoint = self._resume_checkpoint()
        if checkpoint is not None:
            start_t, num_merges = self._restore_state(
                checkpoint.state, partition, signatures, rng
            )
        injector = active_fault_injector()
        for t in range(start_t, self.iterations + 1):
            if timer.out_of_budget:
                break  # anytime stop: the partition is valid as-is
            if injector is not None:
                injector.before("summarize:iteration")
            timer.start("divide")
            roots = sorted(partition.roots())
            if self.dividing_strategy:
                row_order = shuffled_rows(self.h, rng)[: self.max_depth]
                groups = divide_recursive(
                    roots, signatures, row_order, self.max_group_size
                )
            else:
                groups = divide_by_single_hash(
                    roots, signatures, (t - 1) % self.h
                )
            sizes = [len(g) for g in groups]
            self.last_group_sizes.append(sizes)
            timer.start("merge")
            threshold = self._threshold(t)
            merges_before = num_merges
            for group in groups:
                group_merges = self._merge_group(
                    partition, signatures, group, threshold, rng
                )
                num_merges += group_merges
                timer.note_merges(group_merges)
                timer.check_budget()
                if timer.out_of_budget:
                    break  # groups are disjoint; stopping is safe
            timer.progress(
                "iteration",
                t=t,
                threshold=round(threshold, 6),
                groups=len(groups),
                largest_group=max(sizes, default=0),
                candidates=sum(sizes),
                merges=num_merges - merges_before,
                total_merges=num_merges,
            )
            self._maybe_checkpoint(
                t,
                lambda: self._checkpoint_state(
                    t, partition, rng, num_merges
                ),
            )

        timer.start("output")
        return encode(partition), num_merges

    # ------------------------------------------------------------------
    # Checkpoint/resume (see docs/resilience.md)
    # ------------------------------------------------------------------
    def _checkpoint_state(
        self,
        t: int,
        partition: RecordingPartition,
        rng: random.Random,
        num_merges: int,
    ) -> dict:
        """JSON-serialisable snapshot after iteration ``t``."""
        state = rng.getstate()
        return {
            "algorithm": self.name,
            "iteration": t,
            "merge_log": [list(pair) for pair in partition.merge_log],
            "rng_state": [state[0], list(state[1]), state[2]],
            "num_merges": num_merges,
        }

    def _restore_state(
        self,
        state: dict,
        partition: RecordingPartition,
        signatures: MinHashSignatures,
        rng: random.Random,
    ) -> tuple[int, int]:
        """Rebuild run state from a snapshot; returns
        ``(next_iteration, num_merges)``.

        The merge log is replayed argument-for-argument, which
        reproduces the original run's root identities and weight
        tables exactly (see :class:`RecordingPartition`); each merge
        folds the absorbed signature column just as the live run did.
        """
        if state.get("algorithm") != self.name:
            raise ValueError(
                f"checkpoint is for {state.get('algorithm')!r}, "
                f"not {self.name!r}"
            )
        for u, v in state["merge_log"]:
            w = partition.merge(u, v)
            signatures.merge(w, v if w == u else u)
        version, internal, gauss = state["rng_state"]
        rng.setstate((version, tuple(internal), gauss))
        return state["iteration"] + 1, state["num_merges"]

    # ------------------------------------------------------------------
    # Merging phase on one group (Algorithm 5, lines 7-13)
    # ------------------------------------------------------------------
    def _merge_group(
        self,
        partition: SuperNodePartition,
        signatures: MinHashSignatures,
        group: list[int],
        threshold: float,
        rng: random.Random,
    ) -> int:
        if self.similarity == "minhash":
            return self._merge_group_minhash(
                partition, signatures, group, threshold, rng
            )
        return self._merge_group_super_jaccard(
            partition, signatures, group, threshold, rng
        )

    def _merge_group_minhash(
        self,
        partition: SuperNodePartition,
        signatures: MinHashSignatures,
        group: list[int],
        threshold: float,
        rng: random.Random,
    ) -> int:
        """Merging phase with ``mh(.)`` similarity (Strategy 2).

        A pivot whose group has at most ``width`` other alive slots
        shortlists all of them, so only a pivot with more needs its
        slots ranked by similarity.  For those the pairwise
        signature-agreement counts are computed once per group as a
        matrix (one vectorised pass per hash function), built only
        when the group has more than ``width + 1`` slots; a merge
        refreshes the merged super-node's row and column while a later
        pivot will still rank.  This is the batch evaluation that makes
        ``mh(.)`` "faster to compute" than Super-Jaccard in the paper.

        Every retired slot's column holds ``-1``, as does the
        diagonal, so a pivot's matrix row ranks exactly its alive
        slots; ties keep ``argpartition``'s order over that row.
        """
        width = self.b if self.node_selection == "top_b" else 1
        roots = list(group)
        # Alive slots in increasing order: the pivot is drawn by
        # position in this list.
        alive = list(range(len(roots)))
        if len(roots) > width + 1:
            cols = signatures.sig[:, roots].copy()  # (h, size)
            matrix = agreement_matrix(cols)
        merges = 0

        while len(alive) >= 2:
            pick = alive.pop(rng.randrange(len(alive)))
            if width >= len(alive):
                shortlist = alive
            else:
                matrix[:, pick] = -1
                shortlist = np.argpartition(matrix[pick], -width)[
                    -width:
                ].tolist()
            u = roots[pick]
            # Score the whole shortlist in one savings_many call (every
            # pair shares the pivot endpoint u; default-width shortlists
            # stay on its scalar path); ties keep the earliest
            # shortlist entry.
            batch = partition.savings_many(
                [(u, roots[i]) for i in shortlist]
            )
            best_index = -1
            best_saving = -float("inf")
            for i, s in zip(shortlist, batch):
                if s > best_saving:
                    best_saving, best_index = s, i
            if best_index < 0 or best_saving < threshold:
                continue
            w = partition.merge(u, roots[best_index])
            absorbed = roots[best_index] if w == u else u
            signatures.merge(w, absorbed)
            merges += 1
            # The merged super-node takes the partner's slot.
            roots[best_index] = w
            if len(alive) > width + 1:
                # A later pivot ranks: its signature is the
                # element-wise min, so refresh that slot's column and
                # its similarity row over the alive slots.
                np.minimum(cols[:, best_index], cols[:, pick],
                           out=cols[:, best_index])
                agreement = agreement_with(cols, best_index, matrix.dtype)
                agreement[best_index] = -1
                matrix[:, best_index] = agreement
                # Retired slots and the diagonal keep their -1.
                row = matrix[best_index]
                np.copyto(row, agreement, where=row >= 0)
        return merges

    def _merge_group_super_jaccard(
        self,
        partition: SuperNodePartition,
        signatures: MinHashSignatures,
        group: list[int],
        threshold: float,
        rng: random.Random,
    ) -> int:
        """Merging with SWeG's Super-Jaccard (the "no MS2" ablation)."""
        width = self.b if self.node_selection == "top_b" else 1
        group = list(group)
        merges = 0
        while len(group) >= 2:
            pick = rng.randrange(len(group))
            u = group[pick]
            group[pick] = group[-1]
            group.pop()
            scored = sorted(
                group,
                key=lambda v: super_jaccard(partition, u, v),
                reverse=True,
            )
            shortlist = scored[:width]
            best_v = -1
            best_saving = -float("inf")
            for v in shortlist:
                s = partition.saving(u, v)
                if s > best_saving:
                    best_saving, best_v = s, v
            if best_v < 0 or best_saving < threshold:
                continue
            w = partition.merge(u, best_v)
            absorbed = best_v if w == u else u
            signatures.merge(w, absorbed)
            merges += 1
            group[group.index(best_v)] = w
        return merges
