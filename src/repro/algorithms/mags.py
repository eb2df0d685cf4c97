"""Mags: the paper's scalable greedy summarizer (Section 3).

Mags keeps Greedy's high-quality merge order but caps the search
space:

1. **Candidate generation** (Algorithm 2): for each node ``u``, sample
   ``b`` neighbors, union their neighborhoods into an approximate
   2-hop set, score members with the MinHash estimator ``mh(u, v)``
   (Equation 5), and keep the top ``k`` as candidate pairs — at most
   ``k * n`` pairs in total, versus Greedy's ``n * d_avg^2``.
2. **Greedy merge** (Algorithm 3): ``T`` iterations; iteration ``t``
   merges candidate pairs in decreasing saving while the saving clears
   ``omega(t)`` (Equation 6), re-verifying each popped pair's saving
   before committing (savings in the queue may be stale because
   updates are deferred), then refreshes the savings of every
   candidate pair touching the merged neighborhoods.
3. **Output** (Algorithm 4): the shared optimal encoding.

Overall ``O(T * m * (d_avg + log m))`` versus Greedy's
``O(n * d_avg^3 * (d_avg + log m))``.

The ``candidate_method='naive'`` variant implements the exhaustive
top-k-by-exact-saving generation discussed at the start of Section 3.1
and benchmarked in Figure 8 ("Mags (naive CG)").
"""

from __future__ import annotations

import heapq
import random
from typing import Literal

from repro.algorithms.base import (
    PhaseTimer,
    RecordingPartition,
    Summarizer,
    active_fault_injector,
)
from repro.core.encoding import Representation, encode
from repro.core.minhash import MinHashSignatures
from repro.core.supernodes import SuperNodePartition
from repro.core.thresholds import omega
from repro.graph.graph import Graph

__all__ = ["MagsSummarizer", "CandidatePairs"]

_EPS = 1e-12


class CandidatePairs:
    """The candidate pair set ``CP`` with per-node indexing (Section 5.1).

    Stores each pair under both endpoints so that "every candidate
    pair containing u" (Algorithm 3, line 11) is a dict lookup, and
    keeps the authoritative saving per pair for stale-heap-entry
    detection.
    """

    __slots__ = ("_partners",)

    def __init__(self):
        self._partners: dict[int, dict[int, float]] = {}

    def add(self, u: int, v: int, saving: float) -> None:
        """Insert or update the pair ``(u, v)``."""
        self._partners.setdefault(u, {})[v] = saving
        self._partners.setdefault(v, {})[u] = saving

    def saving(self, u: int, v: int) -> float | None:
        """Stored saving of the pair, or None if absent."""
        return self._partners.get(u, {}).get(v)

    def partners(self, u: int) -> dict[int, float]:
        """All candidate partners of ``u`` (live view; do not mutate)."""
        return self._partners.get(u, {})

    def discard(self, u: int, v: int) -> None:
        """Remove the pair if present."""
        for a, b in ((u, v), (v, u)):
            table = self._partners.get(a)
            if table is not None:
                table.pop(b, None)
                if not table:
                    del self._partners[a]

    def replace_node(self, dead: int, survivor: int) -> list[int]:
        """Re-key every pair touching ``dead`` onto ``survivor``.

        Implements "Replace u and v by w in CP" (Algorithm 3, line 8).
        Returns the partners that were moved.  Moved pairs are seeded
        with the dead pair's old saving purely as a placeholder — that
        value describes a super-node that no longer exists, so callers
        MUST overwrite it with the freshly computed saving before any
        heap entry referencing it can be trusted (see
        :meth:`MagsSummarizer._rekey_after_merge`, which batches the
        recomputation through ``savings_many``).
        """
        table = self._partners.pop(dead, None)
        if table is None:
            return []
        moved: list[int] = []
        for partner, saving in table.items():
            partner_table = self._partners.get(partner)
            if partner_table is not None:
                partner_table.pop(dead, None)
            if partner == survivor:
                continue
            if self.saving(survivor, partner) is None:
                self.add(survivor, partner, saving)
            moved.append(partner)
        return moved

    def __len__(self) -> int:
        return sum(len(t) for t in self._partners.values()) // 2

    def pairs(self) -> list[tuple[int, int]]:
        """All pairs as ``(u, v)`` with ``u < v``."""
        return [
            (u, v)
            for u, table in self._partners.items()
            for v in table
            if u < v
        ]


class MagsSummarizer(Summarizer):
    """The paper's Mags algorithm (Algorithms 1-4).

    Parameters
    ----------
    iterations:
        ``T``, the number of greedy-merge iterations (paper: 50).
    k:
        Candidate pairs kept per node; ``None`` uses the paper's
        default ``min(5 * d_avg, 30)`` (Section 3.4).
    b:
        Neighbors sampled when approximating the 2-hop set (paper: 5).
    h:
        Number of MinHash functions; ``None`` uses the paper's default
        ``min(10 * d_avg, 50)``.
    candidate_method:
        ``'minhash'`` for Algorithm 2, ``'naive'`` for the exhaustive
        exact-saving generation (Figure 8's ablation).
    """

    name = "Mags"

    def __init__(
        self,
        iterations: int = 50,
        k: int | None = None,
        b: int = 5,
        h: int | None = None,
        candidate_method: Literal["minhash", "naive"] = "minhash",
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if b < 1:
            raise ValueError("b must be >= 1")
        if candidate_method not in ("minhash", "naive"):
            raise ValueError(f"unknown candidate_method {candidate_method!r}")
        self.iterations = iterations
        self.k = k
        self.b = b
        self.h = h
        self.candidate_method = candidate_method
        #: Per-iteration lists of merged (root, root) pairs from the
        #: last run; the Figure 13 speedup model derives Mags's merge
        #: batches (connectivity-conflict groups, Section 5.1) from it.
        self.last_iteration_merges: list[list[tuple[int, int]]] = []

    def params(self):
        return {
            "seed": self.seed,
            "T": self.iterations,
            "k": self.k,
            "b": self.b,
            "h": self.h,
            "candidate_method": self.candidate_method,
        }

    # ------------------------------------------------------------------
    # Parameter defaults (Section 3.4)
    # ------------------------------------------------------------------
    def _resolved_k(self, graph: Graph) -> int:
        if self.k is not None:
            return self.k
        return max(1, min(int(5 * graph.avg_degree), 30))

    def _resolved_h(self, graph: Graph) -> int:
        if self.h is not None:
            return self.h
        return max(1, min(int(10 * graph.avg_degree), 50))

    # ------------------------------------------------------------------
    # Main pipeline (Algorithm 1)
    # ------------------------------------------------------------------
    def _run(
        self, graph: Graph, timer: PhaseTimer
    ) -> tuple[Representation, int]:
        partition = (
            RecordingPartition(graph)
            if self._ckpt_store is not None
            else SuperNodePartition(graph)
        )

        checkpoint = self._resume_checkpoint()
        if checkpoint is not None:
            timer.start("restore")
            candidates, start_t, base_merges = self._restore_state(
                checkpoint.state, partition
            )
        else:
            timer.start("candidate_generation")
            candidates = self._generate_candidates(graph, partition, timer)
            start_t, base_merges = 1, 0

        timer.start("greedy_merge")
        num_merges = base_merges + self._greedy_merge(
            partition, candidates, timer,
            start_t=start_t, base_merges=base_merges,
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
        candidates: CandidatePairs,
        num_merges: int,
    ) -> dict:
        """JSON-serialisable snapshot after iteration ``t``."""
        return {
            "algorithm": self.name,
            "iteration": t,
            "merge_log": [list(pair) for pair in partition.merge_log],
            "candidates": [
                [u, v, candidates.saving(u, v)]
                for u, v in sorted(candidates.pairs())
            ],
            "num_merges": num_merges,
        }

    def _restore_state(
        self, state: dict, partition: RecordingPartition
    ) -> tuple[CandidatePairs, int, int]:
        """Rebuild partition and candidate set from a snapshot;
        returns ``(candidates, next_iteration, num_merges)``.

        The merge log is replayed argument-for-argument to reproduce
        the exact root identities (see :class:`RecordingPartition`);
        stored candidate pairs are then valid live roots again.  The
        greedy merge re-verifies every popped pair's fresh saving, so
        the restored heap never commits a stale merge.
        """
        if state.get("algorithm") != self.name:
            raise ValueError(
                f"checkpoint is for {state.get('algorithm')!r}, "
                f"not {self.name!r}"
            )
        for u, v in state["merge_log"]:
            partition.merge(u, v)
        candidates = CandidatePairs()
        for u, v, saving in state["candidates"]:
            if candidates.saving(u, v) is None:
                candidates.add(u, v, saving)
        return candidates, state["iteration"] + 1, state["num_merges"]

    # ------------------------------------------------------------------
    # Phase 1: candidate generation (Algorithm 2)
    # ------------------------------------------------------------------
    def _generate_candidates(
        self,
        graph: Graph,
        partition: SuperNodePartition,
        timer: PhaseTimer,
    ) -> CandidatePairs:
        if self.candidate_method == "naive":
            pair_lists = self._naive_candidates(graph, partition)
        else:
            pair_lists = self._minhash_candidates(graph)
        # Deduplicate, then score every candidate pair in one batched
        # kernel call (sorted so pairs sharing an endpoint group).
        seen: set[tuple[int, int]] = set()
        unique: list[tuple[int, int]] = []
        for pair in pair_lists:
            if pair not in seen:
                seen.add(pair)
                unique.append(pair)
        unique.sort()
        unique = timer.clamp_candidates(unique)
        candidates = CandidatePairs()
        for (u, v), s in zip(unique, partition.savings_many(unique)):
            candidates.add(u, v, s)
        timer.progress(
            "candidates_generated",
            pairs=len(candidates),
            method=self.candidate_method,
        )
        timer.check_budget()
        return candidates

    def _minhash_candidates(self, graph: Graph) -> list[tuple[int, int]]:
        """Algorithm 2: sampled 2-hop + MinHash top-k per node."""
        k = self._resolved_k(graph)
        h = self._resolved_h(graph)
        signatures = MinHashSignatures(graph, h, self.seed)
        adjacency = graph.adjacency()
        rng = random.Random(self.seed)
        sig = signatures.sig
        pairs: list[tuple[int, int]] = []
        for u in graph.nodes():
            neighbors = adjacency[u]
            if not neighbors:
                continue
            neighbor_list = list(neighbors)
            if len(neighbor_list) > self.b:
                sampled = rng.sample(neighbor_list, self.b)
            else:
                sampled = neighbor_list
            two_hop = set(neighbors)
            for w in sampled:
                two_hop |= adjacency[w]
            two_hop.discard(u)
            if not two_hop:
                continue
            # Score all of 2Hop with mh(u, .) in one vectorised pass.
            candidates = list(two_hop)
            sims = (sig[:, candidates] == sig[:, [u]]).sum(axis=0)
            if len(candidates) > k:
                top = heapq.nlargest(
                    k, range(len(candidates)), key=lambda i: (sims[i], -candidates[i])
                )
            else:
                top = range(len(candidates))
            for i in top:
                if sims[i] == 0 and h > 1:
                    continue  # no signature overlap: not promising
                v = candidates[i]
                pairs.append((u, v) if u < v else (v, u))
        return pairs

    def _naive_candidates(
        self, graph: Graph, partition: SuperNodePartition
    ) -> list[tuple[int, int]]:
        """The exhaustive generation of Section 3.1's opening.

        For each node, computes the exact saving against *every* 2-hop
        neighbor and keeps the top ``k`` — correct but
        ``O(n * d_avg^2 * (d_avg + log k))``.
        """
        k = self._resolved_k(graph)
        adjacency = graph.adjacency()
        pairs: list[tuple[int, int]] = []
        for u in graph.nodes():
            two_hop: set[int] = set(adjacency[u])
            for w in adjacency[u]:
                two_hop |= adjacency[w]
            two_hop.discard(u)
            vs = list(two_hop)
            scored = list(
                zip(partition.savings_many([(u, v) for v in vs]), vs)
            )
            top = heapq.nlargest(k, scored, key=lambda sv: (sv[0], -sv[1]))
            for s, v in top:
                if s > _EPS:
                    pairs.append((u, v) if u < v else (v, u))
        return pairs

    # ------------------------------------------------------------------
    # Phase 2: greedy merge (Algorithm 3)
    # ------------------------------------------------------------------
    def _greedy_merge(
        self,
        partition: SuperNodePartition,
        candidates: CandidatePairs,
        timer: PhaseTimer,
        start_t: int = 1,
        base_merges: int = 0,
    ) -> int:
        heap: list[tuple[float, int, int]] = [
            (-candidates.saving(u, v), u, v) for u, v in candidates.pairs()
        ]
        heapq.heapify(heap)
        num_merges = 0
        self.last_iteration_merges = []
        injector = active_fault_injector()

        for t in range(start_t, self.iterations + 1):
            if timer.out_of_budget:
                break  # anytime stop: the partition is valid as-is
            if injector is not None:
                injector.before("summarize:iteration")
            threshold = omega(t, self.iterations)
            merged_roots: set[int] = set()
            iteration_merges: list[tuple[int, int]] = []
            self.last_iteration_merges.append(iteration_merges)
            saving_accrued = 0.0
            # -- First part: merge pairs in decreasing stored saving --
            while heap:
                neg_s, u, v = heap[0]
                stored = candidates.saving(u, v)
                if stored is None or stored != -neg_s:
                    heapq.heappop(heap)  # stale entry
                    continue
                if stored < threshold:
                    break  # all remaining pairs are below omega(t)
                heapq.heappop(heap)
                fresh = partition.saving(u, v)
                if fresh >= threshold:
                    w = partition.merge(u, v)
                    dead = v if w == u else u
                    self._rekey_after_merge(partition, candidates, heap, w, dead)
                    merged_roots.add(w)
                    merged_roots.discard(dead)
                    iteration_merges.append((u, v))
                    num_merges += 1
                    timer.note_merges(1)
                    saving_accrued += fresh
                elif fresh > _EPS:
                    # Stale optimistic saving: record the renewed value;
                    # the pair stays for later (lower-threshold) rounds.
                    candidates.add(u, v, fresh)
                    heapq.heappush(heap, (-fresh, u, v))
                else:
                    candidates.discard(u, v)
                timer.check_budget()
                if timer.out_of_budget:
                    break  # anytime stop mid-iteration; partition valid

            # -- Second part: refresh savings around the merges --
            self._refresh_affected(partition, candidates, heap, merged_roots)
            timer.progress(
                "iteration",
                t=t,
                threshold=round(threshold, 6),
                merges=len(iteration_merges),
                total_merges=num_merges,
                saving_accrued=round(saving_accrued, 6),
            )
            timer.check_budget()
            self._maybe_checkpoint(
                t,
                lambda: self._checkpoint_state(
                    t, partition, candidates, base_merges + num_merges
                ),
            )
        return num_merges

    @staticmethod
    def _rekey_after_merge(
        partition: SuperNodePartition,
        candidates: CandidatePairs,
        heap: list[tuple[float, int, int]],
        survivor: int,
        dead: int,
    ) -> list[int]:
        """Re-key the dead root's candidate pairs and re-score them.

        The savings stored under the dead root describe a super-node
        that no longer exists, so seeding the moved pairs (or the heap)
        with them would order the queue by phantom values — the bug
        this method exists to prevent.  Every moved pair is re-scored
        against the *current* partition in one ``savings_many`` batch,
        so the heap entries pushed here match the authoritative
        candidate table exactly.
        """
        moved = candidates.replace_node(dead, survivor)
        if moved:
            fresh_savings = partition.savings_many(
                [(survivor, partner) for partner in moved]
            )
            for partner, fresh in zip(moved, fresh_savings):
                candidates.add(survivor, partner, fresh)
                heapq.heappush(heap, (-fresh, survivor, partner))
        return moved

    @staticmethod
    def _refresh_affected(
        partition: SuperNodePartition,
        candidates: CandidatePairs,
        heap: list[tuple[float, int, int]],
        merged_roots: set[int],
    ) -> None:
        """Refresh savings of every candidate pair the merges touched.

        All affected pairs are gathered first and re-scored in a
        single ``savings_many`` batch (grouped by the shared endpoint),
        then applied in the same order the scalar loop used.
        """
        affected: set[int] = set()
        for w in merged_roots:
            affected.add(w)
            affected.update(partition.weights(w))
        pair_list: list[tuple[int, int]] = []
        for x in affected:
            pair_list.extend((x, y) for y in candidates.partners(x))
        if not pair_list:
            return
        for (x, y), fresh in zip(
            pair_list, partition.savings_many(pair_list)
        ):
            if candidates.saving(x, y) != fresh:
                candidates.add(x, y, fresh)
                heapq.heappush(heap, (-fresh, x, y))
