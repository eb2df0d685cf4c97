"""Performance regression gate for the core microbenchmarks.

Runs ``benchmarks/bench_micro_core.py`` under pytest-benchmark and
compares the results against the committed baseline
``bench_results/micro_core_baseline.json``.  Raw wall-times are not
comparable across machines, nor across minutes on a shared host, so
three host-independent checks are applied instead:

1. **Reference-time regression.**  Rounds are timed with
   :class:`ReferenceClock`, which samples the benchmark's host-speed
   probe (``perfbench.measure.Reference``: a fixed interpreter loop)
   right before and right after each round and rescales the round by
   their mean into reference seconds: seconds on a host whose probe
   takes ``REFERENCE_PROBE_S``.  A slow spell of the host slows the
   probes next to a round too and cancels out.  A bench fails if its
   median round regresses by more than ``--threshold`` (default 25%).
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
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from perfbench.measure import REFERENCE_PROBE_S, Reference  # noqa: E402

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
#: pytest-benchmark round sizing: every round runs at least
#: ``MIN_ROUND_S`` reference seconds of loops, short enough for the
#: probes on its two sides to share its host speed, and a bench gets
#: about ``MAX_TIME_S`` of rounds.
MIN_ROUND_S = 0.005
MAX_TIME_S = 1.0
#: Bench runs whose per-bench median an ``--update-baseline`` keeps,
#: so that one lucky run cannot set the bar.
BASELINE_RUNS = 3


class ReferenceClock:
    """A pytest-benchmark timer that counts reference seconds.

    Each call times one reference probe (``perfbench.measure``'s
    fixed interpreter loop) and returns a clock that advances by the
    wall time since the previous call's probe, rescaled by the mean of
    the two probes to reference seconds: seconds on a host whose probe
    takes ``REFERENCE_PROBE_S``.  A round is timed between two calls,
    so it is rescaled by the probes taken right before and right after
    it, and the probes' own time is in no round.  On a shared host
    that switches speed within a second, probes next to each round
    track the round's speed where probes around a whole bench do not.
    """

    def __init__(self, reference=None, clock=time.perf_counter):
        self.reference = reference if reference is not None else Reference()
        self.clock = clock
        self.now = 0.0
        self._last: tuple[float, float] | None = None

    def __call__(self) -> float:
        start = self.clock()
        probe = self.reference.sample(1)
        if self._last is not None:
            end, last_probe = self._last
            self.now += (
                (start - end) * 2 * REFERENCE_PROBE_S / (last_probe + probe)
            )
        self._last = (self.clock(), probe)
        return self.now


_CLOCK = ReferenceClock()


def reference_timer() -> float:
    """The bench run's ``--benchmark-timer``: :class:`ReferenceClock`."""
    return _CLOCK()


def run_benchmarks(json_path: Path) -> dict[str, float]:
    """Run the micro benches, return {bench name: reference seconds}."""
    env = dict(os.environ)
    paths = [str(REPO / "src"), str(REPO / "tools")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        str(BENCH_FILE),
        "--benchmark-only",
        "--benchmark-json",
        str(json_path),
        "--benchmark-timer",
        "perf_gate.reference_timer",
        "--benchmark-min-time",
        str(MIN_ROUND_S),
        "--benchmark-max-time",
        str(MAX_TIME_S),
        "-q",
        "-p",
        "no:cacheprovider",
    ]
    result = subprocess.run(cmd, cwd=REPO, env=env)
    if result.returncode != 0:
        raise RuntimeError(f"benchmark run failed (exit {result.returncode})")
    return parse_benchmark_json(json_path)


def measure() -> dict[str, float]:
    """One run of the micro benches, in a scratch directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return run_benchmarks(Path(tmp) / "bench.json")


def parse_benchmark_json(json_path: Path) -> dict[str, float]:
    """Extract {bench name: median round, reference seconds} from
    pytest-benchmark JSON.

    The *median* over rounds, not the minimum: each round is already
    rescaled by its own probes, and the minimum then picks the round
    whose probe ran slow for a reason its work did not share (over six
    runs of untouched code the per-bench minimum spread by up to 1.79x
    from run to run, the median by at most 1.19x).
    """
    with open(json_path) as handle:
        data = json.load(handle)
    return {
        bench["name"]: float(bench["stats"]["median"])
        for bench in data["benchmarks"]
    }


def evaluate(
    benches: dict[str, float],
    baseline: dict,
    threshold: float = 0.25,
    min_speedup: float = 1.5,
) -> tuple[list[str], list[str]]:
    """Pure comparison logic; returns ``(failures, report_lines)``.

    ``benches`` maps bench names to reference seconds, and so does the
    parsed baseline's ``benchmarks`` (as ``{"ref_s": float}``).
    Benches present on only one side are reported but never fail the
    gate, so adding a bench doesn't require regenerating the baseline
    on the same machine that made it.
    """
    failures: list[str] = []
    lines = [
        f"{'benchmark':<36} {'base_ref_s':>10} {'now_ref_s':>10} {'ratio':>7}"
    ]
    base = {
        name: float(bench["ref_s"])
        for name, bench in baseline["benchmarks"].items()
    }
    for name in sorted(set(benches) | set(base)):
        if name not in benches:
            lines.append(f"{name:<36} {'(baseline only)':>29}")
            continue
        if name not in base:
            lines.append(f"{name:<36} {'(new bench)':>29}")
            continue
        ratio = benches[name] / base[name]
        flag = ""
        if ratio > 1.0 + threshold:
            flag = "  <-- REGRESSION"
            failures.append(
                f"{name}: reference time {ratio:.2f}x baseline "
                f"(limit {1.0 + threshold:.2f}x)"
            )
        lines.append(
            f"{name:<36} {base[name]:>10.4g} {benches[name]:>10.4g} "
            f"{ratio:>7.3f}{flag}"
        )

    for label, scalar, batched, floor in (
        ("kernel speedup", SCALAR_BENCH, BATCHED_BENCH, min_speedup),
        ("shortlist ratio", SHORTLIST_SCALAR_BENCH, SHORTLIST_BENCH,
         SHORTLIST_FLOOR),
    ):
        if scalar not in benches or batched not in benches:
            failures.append(
                f"{label} benches missing from the run: {scalar}, {batched}"
            )
            continue
        ratio = benches[scalar] / benches[batched]
        lines.append(
            f"{label} (scalar/batched): {ratio:.2f}x (floor {floor:.2f}x)"
        )
        if ratio < floor:
            failures.append(
                f"{label} {ratio:.2f}x is below the {floor:.2f}x floor"
            )
    return failures, lines


def write_baseline(path: Path, benches: dict[str, float]) -> None:
    payload = {
        "benchmarks": {
            name: {"ref_s": ref_s} for name, ref_s in sorted(benches.items())
        },
        "meta": {
            "bench_file": BENCH_FILE.name,
            "python": sys.version.split()[0],
            "reference_probe_s": REFERENCE_PROBE_S,
            "note": (
                "ref_s is a bench's median round in reference seconds "
                "(tools/perf_gate.py ReferenceClock), the median of "
                "BASELINE_RUNS runs; regenerate with "
                "tools/perf_gate.py --update-baseline."
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
        help="max tolerated reference-time regression (default 0.25 = +25%%)",
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

    if args.update_baseline:
        runs = [measure() for _ in range(BASELINE_RUNS)]
        write_baseline(
            args.baseline,
            {
                name: statistics.median(run[name] for run in runs)
                for name in runs[0]
            },
        )
        print(f"baseline written: {args.baseline}")
        return 0

    benches = measure()

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run --update-baseline first")
        return 1
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    failures, lines = evaluate(
        benches,
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
