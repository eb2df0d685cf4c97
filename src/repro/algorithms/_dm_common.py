"""Shared machinery for the divide-and-merge family (SWeG, LDME,
Slugger's merge phase, Mags-DM).

All four algorithms iterate: divide the live super-nodes into groups
by (variants of) MinHash, then merge similar pairs within each group
when the saving clears the iteration's threshold.  The group data
model and the Super-Jaccard merge loop live here so the baselines
share one tested implementation; Mags-DM overrides the similarity,
selection and threshold pieces (its Merging Strategies 1-3).
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Callable, Sequence

from repro.core.minhash import MinHashSignatures, super_jaccard
from repro.core.supernodes import SuperNodePartition

__all__ = [
    "divide_by_single_hash",
    "divide_recursive",
    "merge_group_superjaccard",
    "MergeRecorder",
]

# A callable invoked after every merge with (survivor, absorbed); used
# by Slugger to record its hierarchy and by signatures to fold columns.
MergeRecorder = Callable[[int, int], None]


def divide_by_single_hash(
    roots: Sequence[int], signatures: MinHashSignatures, row: int
) -> list[list[int]]:
    """SWeG's dividing: group roots by one MinHash value (Section 2.4).

    Singleton groups are dropped — nothing can merge inside them.
    """
    buckets: dict[int, list[int]] = defaultdict(list)
    sig_row = signatures.sig[row]
    for root in roots:
        buckets[int(sig_row[root])].append(root)
    return [group for group in buckets.values() if len(group) > 1]


def divide_recursive(
    roots: Sequence[int],
    signatures: MinHashSignatures,
    row_order: Sequence[int],
    max_group_size: int,
) -> list[list[int]]:
    """Mags-DM's dividing strategy (Section 4.1).

    Groups by the first hash function in ``row_order``; any group
    larger than ``max_group_size`` is recursively re-divided with the
    next function, up to ``len(row_order)`` levels (the paper limits
    the recursion depth to 10).  Returns only groups of size >= 2.
    """
    final: list[list[int]] = []

    def split(group: list[int], depth: int) -> None:
        if len(group) <= 1:
            return
        if len(group) <= max_group_size or depth >= len(row_order):
            final.append(group)
            return
        sig_row = signatures.sig[row_order[depth]]
        buckets: dict[int, list[int]] = defaultdict(list)
        for root in group:
            buckets[int(sig_row[root])].append(root)
        if len(buckets) == 1:
            # The hash cannot distinguish these roots; stop early.
            final.append(group)
            return
        for sub in buckets.values():
            split(sub, depth + 1)

    split(list(roots), 0)
    return final


def merge_group_superjaccard(
    partition: SuperNodePartition,
    signatures: MinHashSignatures,
    group: list[int],
    threshold: float,
    rng: random.Random,
    on_merge: MergeRecorder | None = None,
) -> int:
    """SWeG's merging phase on one group (Section 2.4).

    Repeatedly removes a random super-node ``u`` from the group, finds
    the member ``v`` with the highest Super-Jaccard similarity to
    ``u``, and merges when ``s(u, v) >= threshold``; the merged
    super-node stays in the group.  Returns the number of merges.
    """
    group = list(group)
    merges = 0
    while len(group) >= 2:
        pick = rng.randrange(len(group))
        u = group[pick]
        group[pick] = group[-1]
        group.pop()
        best_v = -1
        best_sim = -1.0
        for v in group:
            sim = super_jaccard(partition, u, v)
            if sim > best_sim:
                best_sim, best_v = sim, v
        if best_v < 0:
            continue
        if partition.saving(u, best_v) >= threshold:
            w = partition.merge(u, best_v)
            absorbed = best_v if w == u else u
            signatures.merge(w, absorbed)
            if on_merge is not None:
                on_merge(w, absorbed)
            merges += 1
            group[group.index(best_v)] = w
    return merges


def shuffled_rows(h: int, rng: random.Random) -> list[int]:
    """A random permutation of signature row indices (dividing phase)."""
    rows = list(range(h))
    rng.shuffle(rows)
    return rows
