"""Performance regression gate for the core microbenchmarks.

Runs ``benchmarks/bench_micro_core.py`` under pytest-benchmark and
compares the results against the committed baseline
``bench_results/micro_core_baseline.json``.  Raw wall-times are not
comparable across machines, so two machine-independent checks are
applied instead:

1. **Calibration-normalized regression.**  A fixed, deterministic
   CPU workload (Python dict churn + NumPy reductions, mirroring the
   mix the benches exercise) is timed on the current machine; every
   bench time is divided by that calibration time before comparing to
   the baseline's equally-normalized score.  A bench fails if its
   normalized score regresses by more than ``--threshold`` (default
   25%).
2. **Kernel speedup ratio.**  The scalar-vs-batched saving benches
   time the *same* pair list, so their ratio is a pure same-machine
   speedup.  The gate fails if it drops below ``--min-speedup``.
3. **Shortlist ratio.**  The same comparison over Mags-DM's 5-pair
   shortlists, where ``savings_many`` must take the scalar path: the
   gate fails if it runs slower than ``SHORTLIST_FLOOR`` times the
   scalar loop's speed (the NumPy kernel manages ~0.3x there).

Usage::

    PYTHONPATH=src python tools/perf_gate.py \\
        --baseline bench_results/micro_core_baseline.json
    PYTHONPATH=src python tools/perf_gate.py --update-baseline

Exit status 0 when every check passes; 1 on any regression.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO / "bench_results" / "micro_core_baseline.json"
BENCH_FILE = REPO / "benchmarks" / "bench_micro_core.py"

#: The bench pair whose time ratio is the kernel speedup.
BATCHED_BENCH = "test_micro_saving_pairs_batched"
SCALAR_BENCH = "test_micro_saving_pairs_scalar"
#: The bench pair timing ``savings_many`` against the scalar loop on
#: small groups, and the lowest acceptable scalar/batched ratio there.
SHORTLIST_BENCH = "test_micro_saving_shortlists"
SHORTLIST_SCALAR_BENCH = "test_micro_saving_shortlists_scalar"
SHORTLIST_FLOOR = 0.8


def calibrate(repeats: int = 5) -> float:
    """Best-of-``repeats`` time of a fixed mixed CPU workload.

    Deterministic by construction (no RNG, fixed sizes) and shaped
    like the benches themselves: interpreter-bound dict/loop work plus
    NumPy elementwise-and-reduce work, so machines are ranked the way
    the benches rank them.
    """
    import numpy as np

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        table: dict[int, int] = {}
        acc = 0
        for i in range(150_000):
            key = (i * 2654435761) & 1023
            table[key] = table.get(key, 0) + i
        acc += sum(table.values())
        arr = np.arange(250_000, dtype=np.int64)
        for _ in range(12):
            acc += int(np.minimum(arr % 97, arr % 89).sum())
        best = min(best, time.perf_counter() - start)
    if acc <= 0:  # keep the work observable
        raise RuntimeError("calibration workload underflowed")
    return best


def run_benchmarks(json_path: Path) -> dict[str, float]:
    """Run the micro benches, return {bench name: seconds}."""
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        str(BENCH_FILE),
        "--benchmark-only",
        "--benchmark-json",
        str(json_path),
        "-q",
        "-p",
        "no:cacheprovider",
    ]
    result = subprocess.run(cmd, cwd=REPO, env=env)
    if result.returncode != 0:
        raise RuntimeError(f"benchmark run failed (exit {result.returncode})")
    return parse_benchmark_json(json_path)


def parse_benchmark_json(json_path: Path) -> dict[str, float]:
    """Extract {bench name: best-round seconds} from pytest-benchmark JSON.

    The *min* over rounds, not the mean: the minimum is the standard
    low-noise estimator for microbenchmarks (every slower round is,
    by construction, the same work plus interference).
    """
    with open(json_path) as handle:
        data = json.load(handle)
    times: dict[str, float] = {}
    for bench in data["benchmarks"]:
        times[bench["name"]] = float(bench["stats"]["min"])
    return times


def evaluate(
    means: dict[str, float],
    calibration: float,
    baseline: dict,
    threshold: float = 0.25,
    min_speedup: float = 1.5,
) -> tuple[list[str], list[str]]:
    """Pure comparison logic; returns ``(failures, report_lines)``.

    ``baseline`` is the parsed baseline file: ``calibration_s`` plus a
    ``benchmarks`` mapping of name -> {"time_s": float}.  Benches
    present on only one side are reported but never fail the gate, so
    adding a bench doesn't require regenerating the baseline on the
    same machine that made it.
    """
    failures: list[str] = []
    lines = [
        f"{'benchmark':<36} {'base_norm':>10} {'now_norm':>10} {'ratio':>7}"
    ]
    base_cal = float(baseline["calibration_s"])
    base_means = baseline["benchmarks"]
    for name in sorted(set(means) | set(base_means)):
        if name not in means:
            lines.append(f"{name:<36} {'(baseline only)':>29}")
            continue
        if name not in base_means:
            lines.append(f"{name:<36} {'(new bench)':>29}")
            continue
        base_norm = float(base_means[name]["time_s"]) / base_cal
        now_norm = means[name] / calibration
        ratio = now_norm / base_norm
        flag = ""
        if ratio > 1.0 + threshold:
            flag = "  <-- REGRESSION"
            failures.append(
                f"{name}: normalized score {ratio:.2f}x baseline "
                f"(limit {1.0 + threshold:.2f}x)"
            )
        lines.append(
            f"{name:<36} {base_norm:>10.4g} {now_norm:>10.4g} "
            f"{ratio:>7.3f}{flag}"
        )

    for label, scalar, batched, floor in (
        ("kernel speedup", SCALAR_BENCH, BATCHED_BENCH, min_speedup),
        ("shortlist ratio", SHORTLIST_SCALAR_BENCH, SHORTLIST_BENCH,
         SHORTLIST_FLOOR),
    ):
        if scalar not in means or batched not in means:
            failures.append(
                f"{label} benches missing from the run: {scalar}, {batched}"
            )
            continue
        ratio = means[scalar] / means[batched]
        lines.append(
            f"{label} (scalar/batched): {ratio:.2f}x (floor {floor:.2f}x)"
        )
        if ratio < floor:
            failures.append(
                f"{label} {ratio:.2f}x is below the {floor:.2f}x floor"
            )
    return failures, lines


def write_baseline(
    path: Path, means: dict[str, float], calibration: float
) -> None:
    payload = {
        "calibration_s": calibration,
        "benchmarks": {
            name: {"time_s": mean} for name, mean in sorted(means.items())
        },
        "meta": {
            "bench_file": BENCH_FILE.name,
            "python": sys.version.split()[0],
            "note": (
                "Scores are compared after dividing by calibration_s; "
                "regenerate with tools/perf_gate.py --update-baseline."
            ),
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate core microbenchmark performance against the "
        "committed baseline."
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help=f"baseline JSON (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="max tolerated normalized regression (default 0.25 = +25%%)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=1.5,
        help="minimum scalar/batched kernel speedup (default 1.5)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="re-measure and overwrite the baseline instead of gating",
    )
    args = parser.parse_args(argv)

    # Calibrate on both sides of the bench run and keep the slower
    # measurement: a machine that throttles under the sustained bench
    # load runs the benches at the *throttled* speed, and a cold
    # calibration alone would make every bench look uniformly slower.
    calibration_before = calibrate()
    with tempfile.TemporaryDirectory() as tmp:
        means = run_benchmarks(Path(tmp) / "bench.json")
    calibration = max(calibration_before, calibrate())
    print(
        f"calibration: {calibration * 1000:.1f} ms "
        f"(cold {calibration_before * 1000:.1f} ms)"
    )

    if args.update_baseline:
        write_baseline(args.baseline, means, calibration)
        print(f"baseline written: {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run --update-baseline first")
        return 1
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    failures, lines = evaluate(
        means,
        calibration,
        baseline,
        threshold=args.threshold,
        min_speedup=args.min_speedup,
    )
    print("\n".join(lines))
    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
