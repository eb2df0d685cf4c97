"""SWeG: Shin et al.'s divide-and-merge baseline (Section 2.4).

Each of ``T`` rounds (i) divides the live super-nodes into groups by
the MinHash of a fresh hash function, then (ii) within each group
repeatedly removes a random super-node and merges it with its most
Super-Jaccard-similar member when the saving clears
``theta(t) = 1/(t + 1)``.  Runs in ``O(T * m)``.

The paper's Section 6.4 uses SWeG as the ablation endpoint for
Mags-DM: no dividing strategy, no merging strategies.
"""

from __future__ import annotations

import random

from repro.algorithms._dm_common import (
    divide_by_single_hash,
    merge_group_superjaccard,
)
from repro.algorithms.base import PhaseTimer, Summarizer
from repro.core.encoding import Representation, encode
from repro.core.minhash import MinHashSignatures
from repro.core.supernodes import SuperNodePartition
from repro.core.thresholds import theta
from repro.graph.graph import Graph

__all__ = ["SWeGSummarizer"]


class SWeGSummarizer(Summarizer):
    """Shin et al.'s SWeG [34].

    Parameters
    ----------
    iterations:
        Number of divide/merge rounds ``T`` (the paper uses 50).
    seed:
        See :class:`repro.algorithms.base.Summarizer`.
    """

    name = "SWeG"

    def __init__(
        self,
        iterations: int = 50,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations

    def params(self):
        return {"seed": self.seed, "T": self.iterations}

    def _run(
        self, graph: Graph, timer: PhaseTimer
    ) -> tuple[Representation, int]:
        rng = random.Random(self.seed)
        partition = SuperNodePartition(graph)
        timer.start("signatures")
        # One signature row per round: SWeG draws a fresh hash function
        # for every dividing phase.
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
                    partition, signatures, group, threshold, rng
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

        timer.start("output")
        return encode(partition), num_merges
