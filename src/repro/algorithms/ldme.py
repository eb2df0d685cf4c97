"""LDME: Yong et al.'s weighted-LSH divide-and-merge baseline [45].

LDME keeps SWeG's round structure but divides super-nodes with an LSH
*signature of length k* rather than a single MinHash value, which
produces finer groups (faster merging phases) at equal ``T``; merging
within a group follows the SWeG recipe (most-similar partner,
``theta(t)`` threshold).

The dividing signature is a true *weighted* MinHash over the
super-node adjacency weights ``w(u, x)`` (the quantity Super-Jaccard
weighs by), per LDME's design: each round draws ``k`` fresh hash
functions and groups super-nodes by their full ``k``-tuple signature.
"""

from __future__ import annotations

import random
from collections import defaultdict

from repro.algorithms._dm_common import merge_group_superjaccard
from repro.algorithms.base import PhaseTimer, Summarizer
from repro.core.encoding import Representation, encode
from repro.core.minhash import MinHashSignatures, weighted_minhash_signature
from repro.core.supernodes import SuperNodePartition
from repro.core.thresholds import theta
from repro.graph.graph import Graph

__all__ = ["LDMESummarizer"]


class LDMESummarizer(Summarizer):
    """Yong et al.'s LDME [45].

    Parameters
    ----------
    iterations:
        Number of rounds ``T`` (paper setup: 50).
    signature_length:
        ``k``, the number of hash values concatenated into the group
        key (paper setup: 5).  ``k = 1`` degenerates to SWeG dividing.
    """

    name = "LDME"

    def __init__(
        self,
        iterations: int = 50,
        signature_length: int = 5,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if signature_length < 1:
            raise ValueError("signature_length must be >= 1")
        self.iterations = iterations
        self.signature_length = signature_length

    def params(self):
        return {
            "seed": self.seed,
            "T": self.iterations,
            "k": self.signature_length,
        }

    def _run(
        self, graph: Graph, timer: PhaseTimer
    ) -> tuple[Representation, int]:
        rng = random.Random(self.seed)
        partition = SuperNodePartition(graph)
        timer.start("signatures")
        # Super-node MinHash signatures back the merging phase (they
        # are maintained under merges); the weighted LSH below backs
        # the dividing phase, recomputed per round as in LDME.
        signatures = MinHashSignatures(graph, 16, self.seed)

        num_merges = 0
        for t in range(1, self.iterations + 1):
            timer.start("divide")
            groups = self._divide(partition, round_seed=self.seed * 7919 + t)
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

    def _divide(
        self, partition: SuperNodePartition, round_seed: int
    ) -> list[list[int]]:
        """Group live roots by their weighted-MinHash k-tuple."""
        buckets: dict[tuple[int, ...], list[int]] = defaultdict(list)
        for root in sorted(partition.roots()):
            key = weighted_minhash_signature(
                partition, root, self.signature_length, round_seed
            )
            buckets[key].append(root)
        return [group for group in buckets.values() if len(group) > 1]
