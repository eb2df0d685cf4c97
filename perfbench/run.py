"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload read --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: the program is imported
from the checkout's ``src/`` and served from it as a subprocess, and
scratch files go under ``.perfbench/`` there.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds diagnostics
(sample counts, CPU steal, CPU seconds).  With ``--trace 0`` the
metrics are every end-to-end metric ``BENCHMARK.json`` declares, with
``--trace 1`` every per-layer one; a run that measured any other set
prints no result.  The exit code is 0 only when every correctness
check passed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("summarize", "read", "ingest")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="a quarter-size graph, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    # Client and server share one CPU (the server inherits the
    # affinity).  On a small shared host, request/response ping-pong
    # across two vCPUs pays cross-CPU wake-ups and steal that swung
    # throughput two- to three-fold between runs; on one CPU the
    # spread fell below a fifth, and the run measures the combined CPU
    # cost of each request.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import run_workload

    out_dir = ROOT / ".perfbench"
    tag = f"{args.workload}-seed{args.seed}"
    outcome = run_workload(
        args.workload, SRC, out_dir / f"work-{os.getpid()}", args.seed,
        args.seconds, bool(args.trace), quick=args.quick,
        trace_out=out_dir / "traces" / f"{tag}.jsonl" if args.trace else None,
    )
    for error in outcome.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    measured = {name: m["unit"] for name, m in outcome.metrics.items()}
    if measured != declared:
        print(
            f"error: metrics {sorted(measured.items())} differ from the "
            f"declared {sorted(declared.items())}",
            file=sys.stderr,
        )
        return 3
    print(json.dumps({"diagnostics": {"cpu": cpu, **outcome.diagnostics}}))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
