"""Compute the aggregate ratios EXPERIMENTS.md quotes from the saved
bench reports (run after `pytest benchmarks/ --benchmark-only`).

Usage:  python tools/summarize_bench_results.py

(Per-phase before/after tables of two profile traces are
``python -m repro trace A.jsonl --diff B.jsonl``.)
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

DEFAULT_RESULTS = Path(__file__).resolve().parent.parent / "bench_results"
RESULTS = DEFAULT_RESULTS


def rows(
    name: str, columns: list[str], results: Path | None = None
) -> list[dict]:
    out: list[dict] = []
    base = results or RESULTS
    for line in (base / f"{name}.txt").read_text().splitlines():
        parts = line.split()
        if len(parts) < len(columns):
            continue
        if parts[0] in ("dataset", "Figures", "Figure", "Table", "Section"):
            continue
        if set(line.strip()) <= set("-= "):
            continue
        if "#" in line or "chart" in line or "=" in parts[0]:
            continue
        try:
            row = {}
            for i, col in enumerate(columns):
                row[col] = parts[i] if i < 2 else (
                    None if parts[i] == "-" else float(parts[i])
                )
            out.append(row)
        except ValueError:
            continue
    return out


def gmean(values: list[float]) -> float:
    values = [v for v in values if v]
    return math.exp(sum(math.log(v) for v in values) / len(values))


def cell(rows_: list[dict], key: str) -> dict:
    return {(r["dataset"], r["algorithm"]): r[key] for r in rows_}


def main() -> None:
    r46 = cell(rows("fig4_compactness_small", ["dataset", "algorithm", "rel"]), "rel")
    t46 = cell(rows("fig6_time_small", ["dataset", "algorithm", "t"]), "t")
    r57 = cell(rows("fig5_compactness_large", ["dataset", "algorithm", "rel"]), "rel")
    t57 = cell(rows("fig7_time_large", ["dataset", "algorithm", "t"]), "t")

    small = sorted({d for d, __ in r46})
    large = sorted({d for d, __ in r57})

    print("== compactness (small graphs)")
    for algo in ("Mags", "Mags-DM"):
        diffs = [
            100 * (r46[(d, algo)] - r46[(d, "Greedy")]) / r46[(d, "Greedy")]
            for d in small
        ]
        print(f"{algo} vs Greedy %: "
              + ", ".join(f"{d}:{x:+.2f}" for d, x in zip(small, diffs)))
    for other in ("LDME", "Slugger"):
        gap = 100 * (1 - gmean([r46[(d, "Greedy")] / r46[(d, other)] for d in small]))
        print(f"Greedy smaller than {other}: {gap:.1f}%")

    print("== compactness (large graphs)")
    for other in ("LDME", "Slugger"):
        vals = [
            r57[(d, "Mags")] / r57[(d, other)]
            for d in large
            if r57.get((d, other))
        ]
        print(f"Mags smaller than {other}: {100 * (1 - gmean(vals)):.1f}%")
    dm_gap = gmean([r57[(d, "Mags-DM")] / r57[(d, "Mags")] for d in large])
    print(f"Mags-DM vs Mags gap: {100 * (dm_gap - 1):.1f}%")

    print("== running time")
    print(f"Greedy / Mags (small): "
          f"{gmean([t46[(d, 'Greedy')] / t46[(d, 'Mags')] for d in small]):.1f}x")
    all_t = {**t46, **{k: v for k, v in t57.items() if v}}
    datasets = small + large
    for other in ("LDME", "Slugger"):
        vals = [
            all_t[(d, other)] / all_t[(d, "Mags")]
            for d in datasets
            if all_t.get((d, other))
        ]
        print(f"{other} / Mags (all): {gmean(vals):.1f}x")
    print(f"Mags / Mags-DM (all): "
          f"{gmean([all_t[(d, 'Mags')] / all_t[(d, 'Mags-DM')] for d in datasets]):.1f}x")
    large_ratio = gmean(
        [all_t[(d, "Mags")] / all_t[(d, "Mags-DM")] for d in large]
    )
    print(f"Mags / Mags-DM (large only): {large_ratio:.1f}x")


if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__).parse_args()
    main()
