"""Differential fuzzer for the cost-calculus fast paths.

Runs randomized merge sequences over the generator zoo and, at every
step, checks the performance-tuned code in
:class:`repro.core.supernodes.SuperNodePartition` (the cached scalar
methods *and* the batched NumPy kernel ``savings_many``) against the
cache-free pure-Python oracle in :mod:`repro.core.reference`.
``savings_many`` sends groups narrower than ``KERNEL_MIN_GROUP`` pairs
through the scalar loop, so every step scores both a scattered sample
(mostly one- and two-pair groups) and one wide 2-hop sweep of a single
root, and the summary line counts the comparisons made on each path.

The contract being enforced is **bit identity**, not tolerance: every
compared value must satisfy ``==`` exactly (see ``docs/performance.md``
for why that is achievable).  Each step also runs
``partition.check_invariants()`` and, periodically, compares the
maintained total representation cost against a from-first-principles
recount.

Usage::

    PYTHONPATH=src python tools/diff_fuzz.py --seeds 200
    PYTHONPATH=src python tools/diff_fuzz.py --seeds 5 --verbose

Exit status is non-zero on the first mismatch, with a reproduction
line (seed + step) printed to stderr.  The CI ``perf`` job runs this
with ``--seeds 20``; ``tests/test_kernels.py`` smoke-runs a few seeds
on every test invocation.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path
from typing import Callable


def _import_repro():
    """Make ``repro`` importable when run straight from a checkout."""
    try:
        import repro  # noqa: F401
    except ImportError:
        src = Path(__file__).resolve().parent.parent / "src"
        sys.path.insert(0, str(src))


_import_repro()

from repro.core import reference  # noqa: E402
from repro.core import supernodes  # noqa: E402
from repro.core.supernodes import SuperNodePartition  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.graph.graph import Graph  # noqa: E402

#: The generator zoo: name -> seed -> Graph.  Sizes are kept small so
#: a 200-seed run stays in CPU seconds; the oracle is O(merges * n * d)
#: per run and dominates the cost.
ZOO: dict[str, Callable[[int], Graph]] = {
    "erdos_renyi": lambda s: generators.erdos_renyi(60, 0.08, seed=s),
    "barabasi_albert": lambda s: generators.barabasi_albert(70, 3, seed=s),
    "watts_strogatz": lambda s: generators.watts_strogatz(64, 6, 0.2, seed=s),
    "planted_partition": lambda s: generators.planted_partition(
        60, 6, 0.6, 0.02, seed=s
    ),
    "caveman": lambda s: generators.caveman(6, 8, seed=s),
    "rmat": lambda s: generators.rmat(6, 4, seed=s),
    "power_law": lambda s: generators.configuration_power_law(60, seed=s),
    "cliques_and_stars": lambda s: generators.cliques_and_stars(
        3, 6, 3, 7, noise_edges=10, seed=s
    ),
}


class Mismatch(AssertionError):
    """A fast-path value disagreed with the reference oracle."""


def _sample_pairs(
    partition: SuperNodePartition, rng: random.Random, count: int
) -> list[tuple[int, int]]:
    """Candidate pairs mixing 2-hop neighbors (the realistic case,
    where savings are nonzero) with uniform random root pairs (which
    exercise the disconnected/zero-saving branches)."""
    roots = sorted(partition.roots())
    if len(roots) < 2:
        return []
    pairs: list[tuple[int, int]] = []
    for _ in range(count):
        u = rng.choice(roots)
        w_u = list(partition.weights(u))
        if w_u and rng.random() < 0.8:
            x = rng.choice(w_u)
            two_hop = [y for y in partition.weights(x) if y != u] or w_u
            v = rng.choice(two_hop)
        else:
            v = rng.choice(roots)
        if v != u:
            pairs.append((u, v))
    # Group by first endpoint: the batched kernel's intended shape.
    pairs.sort()
    return pairs


def _wide_sweep(
    partition: SuperNodePartition, rng: random.Random
) -> list[tuple[int, int]]:
    """One root's 2-hop candidates, padded with random roots (repeats
    allowed once the partition runs short) to at least
    ``KERNEL_MIN_GROUP`` pairs, so the NumPy kernel scores them."""
    roots = sorted(partition.roots())
    if len(roots) < 2:
        return []
    u = rng.choice(roots)
    two_hop = set()
    for x in partition.weights(u):
        two_hop.update(partition.weights(x))
    two_hop.discard(u)
    vs = sorted(two_hop)
    others = [r for r in roots if r != u]
    while len(vs) < supernodes.KERNEL_MIN_GROUP:
        vs.append(rng.choice(others))
    return [(u, v) for v in vs]


def _path_counts(pairs: list[tuple[int, int]]) -> Counter:
    """Pairs per ``savings_many`` path: groups of consecutive pairs
    sharing their first endpoint go to the kernel from
    ``KERNEL_MIN_GROUP`` pairs up, to the scalar loop below that."""
    counts: Counter = Counter()
    start = 0
    while start < len(pairs):
        end = start + 1
        while end < len(pairs) and pairs[end][0] == pairs[start][0]:
            end += 1
        wide = end - start >= supernodes.KERNEL_MIN_GROUP
        counts["kernel" if wide else "scalar"] += end - start
        start = end
    return counts


def fuzz_one(seed: int, verbose: bool = False) -> Counter:
    """Run one randomized merge sequence; return comparisons made,
    keyed by path: ``kernel`` and ``scalar`` (``savings_many``),
    ``saving`` (direct scalar calls) and ``total_cost``.

    Raises :class:`Mismatch` on any fast-vs-reference disagreement and
    ``AssertionError`` if ``check_invariants`` fails.
    """
    rng = random.Random(seed)
    name = rng.choice(sorted(ZOO))
    graph = ZOO[name](seed)
    partition = SuperNodePartition(graph)
    merges = rng.randrange(2, max(3, graph.n // 2))
    comparisons: Counter = Counter()
    if verbose:
        print(
            f"seed={seed}: {name} n={graph.n} m={graph.m} "
            f"merges<={merges}",
            file=sys.stderr,
        )

    for step in range(merges):
        pairs = _sample_pairs(partition, rng, count=12)
        if not pairs:
            break
        for batch in (pairs, _wide_sweep(partition, rng)):
            fast = partition.savings_many(batch)
            slow = reference.savings_many(partition, batch)
            for (u, v), got, want in zip(batch, fast, slow):
                if got != want:
                    raise Mismatch(
                        f"seed={seed} step={step} gen={name}: "
                        f"savings_many({u}, {v}) = {got!r}, "
                        f"reference = {want!r}"
                    )
            comparisons += _path_counts(batch)
        # Scalar path too (shares caches with the kernel).
        u, v = rng.choice(pairs)
        comparisons["saving"] += 1
        if partition.saving(u, v) != reference.saving(partition, u, v):
            raise Mismatch(
                f"seed={seed} step={step} gen={name}: scalar saving"
                f"({u}, {v}) disagrees with reference"
            )

        # Merge a random sampled pair and re-validate the state.
        u, v = rng.choice(pairs)
        partition.merge(u, v)
        partition.check_invariants()
        if step % 5 == 0:
            comparisons["total_cost"] += 1
            if partition.total_cost() != reference.total_cost(partition):
                raise Mismatch(
                    f"seed={seed} step={step} gen={name}: total_cost "
                    f"{partition.total_cost()} != reference "
                    f"{reference.total_cost(partition)}"
                )
    return comparisons


def run(seeds: int, start: int = 0, verbose: bool = False) -> Counter:
    """Fuzz ``seeds`` sequences; return comparisons made, by path."""
    total: Counter = Counter()
    for seed in range(start, start + seeds):
        total += fuzz_one(seed, verbose=verbose)
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Differential fuzz of fast cost kernels vs the "
        "pure-Python reference oracle."
    )
    parser.add_argument(
        "--seeds", type=int, default=50, help="number of seeds (default 50)"
    )
    parser.add_argument(
        "--start", type=int, default=0, help="first seed (default 0)"
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        comparisons = run(args.seeds, start=args.start, verbose=args.verbose)
    except Mismatch as exc:
        print(f"MISMATCH: {exc}", file=sys.stderr)
        return 1
    by_path = ", ".join(
        f"{path} {comparisons[path]}"
        for path in ("kernel", "scalar", "saving", "total_cost")
    )
    print(
        f"diff_fuzz: {args.seeds} seeds, {comparisons.total()} comparisons "
        f"({by_path}), 0 mismatches"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
