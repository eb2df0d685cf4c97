"""Navlakha et al.'s Greedy baseline (Section 2.3).

Greedy keeps a priority queue of *every* 2-hop-apart super-node pair
with positive saving, repeatedly merges the best pair, and recomputes
the saving of every affected pair after each merge.  It produces the
most compact summaries known but runs in
``O(n * d_avg^3 * (d_avg + log m))`` time with a large constant — the
paper reports it cannot finish a 3M-edge graph in two days, which is
exactly why Mags exists.

The priority queue is a lazy ``heapq``: entries carry the saving they
were pushed with and are discarded on pop when they disagree with the
authoritative per-pair table (the standard stale-entry pattern, same
asymptotics as an indexed heap).
"""

from __future__ import annotations

import heapq
from typing import Iterable

from repro.algorithms.base import PhaseTimer, Summarizer
from repro.core.encoding import Representation, encode
from repro.core.supernodes import SuperNodePartition
from repro.graph.graph import Graph

__all__ = ["GreedySummarizer", "two_hop_pairs"]

#: Savings below this are treated as non-positive; pure-float equality
#: on "0" is fragile because the saving is a ratio of integers.
_EPS = 1e-12


def two_hop_pairs(partition: SuperNodePartition, u: int) -> set[int]:
    """Roots within two hops of root ``u`` (excluding ``u`` itself).

    Only such pairs can have positive saving (Section 2.3): merging
    nodes with no common neighbor cannot reduce any pairwise cost.
    """
    out: set[int] = set()
    weights = partition.weights(u)
    out.update(weights)
    for x in weights:
        out.update(partition.weights(x))
    out.discard(u)
    return out


class GreedySummarizer(Summarizer):
    """The exhaustive greedy algorithm of Navlakha et al. [30].

    Parameters
    ----------
    seed:
        Unused (the algorithm is deterministic) but accepted for
        interface uniformity.
    """

    name = "Greedy"

    def _run(
        self, graph: Graph, timer: PhaseTimer
    ) -> tuple[Representation, int]:
        partition = SuperNodePartition(graph)
        savings: dict[tuple[int, int], float] = {}
        heap: list[tuple[float, int, int]] = []

        # -- Step 1: initialization (all positive-saving 2-hop pairs) --
        # One batched savings_many call per node: all of u's 2-hop
        # candidates share the u endpoint, the kernel's best case.
        timer.start("init")
        for u in graph.nodes():
            vs = [v for v in two_hop_pairs(partition, u) if v > u]
            if vs:
                batch = partition.savings_many([(u, v) for v in vs])
                for v, s in zip(vs, batch):
                    if s > _EPS:
                        savings[(u, v)] = s
                        heapq.heappush(heap, (-s, u, v))
            if u % 256 == 0:
                timer.check_budget()
        if timer.candidate_cap is not None and len(savings) > timer.candidate_cap:
            # Candidate cap: keep only the top pairs by saving so the
            # queue (the dominant memory term) respects the budget.
            kept = timer.clamp_candidates(
                sorted(savings.items(), key=lambda kv: (-kv[1], kv[0]))
            )
            savings = dict(kept)
            heap = [(-s, u, v) for (u, v), s in savings.items()]
            heapq.heapify(heap)
        timer.progress("candidates_generated", pairs=len(savings))

        # -- Step 2: greedy merge loop --
        timer.start("merge")
        num_merges = 0
        saving_accrued = 0.0
        while heap:
            neg_s, u, v = heapq.heappop(heap)
            key = (u, v)
            current = savings.get(key)
            if current is None or current != -neg_s:
                continue  # stale heap entry
            del savings[key]
            w = partition.merge(u, v)
            num_merges += 1
            timer.note_merges(1)
            saving_accrued += -neg_s
            self._drop_dead_pairs(savings, u if w != u else v)
            self._update_affected(partition, savings, heap, w)
            if num_merges % 1024 == 0:
                timer.progress(
                    "progress",
                    merges=num_merges,
                    saving_accrued=round(saving_accrued, 6),
                    live_pairs=len(savings),
                )
            timer.check_budget()
            if timer.out_of_budget:
                break  # anytime stop: every committed merge is valid
        timer.progress(
            "merge_done",
            merges=num_merges,
            saving_accrued=round(saving_accrued, 6),
        )

        # -- Step 3: output --
        timer.start("output")
        return encode(partition), num_merges

    @staticmethod
    def _drop_dead_pairs(
        savings: dict[tuple[int, int], float], dead: int
    ) -> None:
        """Remove every queued pair touching the absorbed root."""
        for key in [k for k in savings if dead in k]:
            del savings[key]

    def _update_affected(
        self,
        partition: SuperNodePartition,
        savings: dict[tuple[int, int], float],
        heap: list[tuple[float, int, int]],
        w: int,
    ) -> None:
        """Recompute savings for every pair the merge may have changed.

        Affected pairs (x, y) have ``x`` in ``{w} union N_w`` and ``y``
        within two hops of ``x`` — the 3-hop sweep the paper blames for
        Greedy's cost.  The whole sweep is scored in one batched
        ``savings_many`` call (grouped by ``x``) before any queue
        update is applied.
        """
        affected: Iterable[int] = [w, *partition.weights(w)]
        pair_list: list[tuple[int, int]] = []
        for x in affected:
            pair_list.extend((x, y) for y in two_hop_pairs(partition, x))
        if not pair_list:
            return
        for (x, y), s in zip(
            pair_list, partition.savings_many(pair_list)
        ):
            key = (x, y) if x < y else (y, x)
            if s > _EPS:
                if savings.get(key) != s:
                    savings[key] = s
                    heapq.heappush(heap, (-s, key[0], key[1]))
            else:
                savings.pop(key, None)
