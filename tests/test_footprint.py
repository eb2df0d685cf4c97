"""The serving stack runs without NumPy.

A read-only or WAL-backed server, and a router, import neither NumPy
nor the summarizers until a request needs them (docs/architecture.md,
rule 4).  Each check runs in a fresh interpreter, since this one
has long since imported both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.core.serialization import save_representation
from repro.graph.generators import planted_partition

SRC = str(Path(repro.__file__).resolve().parents[1])

# Goes through ``repro serve``'s own assembly: the CLI parser, then
# NodeConfig.from_args, then Node.  Prints one JSON object: per stage,
# whether NumPy was loaded after it, plus the pagerank answers.
_CHILD = r"""
import json, sys, time

from repro.cli import build_parser
from repro.service.client import SummaryServiceClient
from repro.service.node import Node, NodeConfig

artifact, wal_dir = sys.argv[1], sys.argv[2]
stages = {}


def node(*flags):
    args = build_parser().parse_args(
        ["serve", artifact, "--log-interval", "0", *flags]
    )
    return Node(NodeConfig.from_args(args)).start()


def ask(address, request):
    with SummaryServiceClient(*address) as client:
        response = client.request_raw({"id": 1, **request})
    assert response["ok"], response
    return response


stages["import"] = "numpy" in sys.modules

reader = node("--degraded")
ask(reader.address, {"op": "neighbors", "node": 0})
stages["read-only neighbors"] = "numpy" in sys.modules

writer = node("--wal-dir", wal_dir, "--compact-interval", "3600")
ask(writer.address, {
    "op": "ingest", "stream": "s", "seq": 0, "mutations": [["+", 0, 59]],
})
assert writer._compactor.compact_now()
ask(writer.address, {
    "op": "ingest", "stream": "s", "seq": 1, "mutations": [["+", 1, 58]],
})
writer.kill()
stages["ingest and compact"] = "numpy" in sys.modules

restarted = node("--wal-dir", wal_dir, "--compact-interval", "3600")
deadline = time.monotonic() + 30
while restarted.engine.replaying:
    assert time.monotonic() < deadline, "replay never drained"
    time.sleep(0.01)
replayed = ask(restarted.address, {"op": "neighbors", "node": 1})["result"]
assert 58 in replayed, replayed
restarted.stop()
stages["restart and replay"] = "numpy" in sys.modules

from repro.cluster.manager import start_local_cluster
from repro.core.serialization import load_representation

cluster = start_local_cluster([load_representation(artifact)])
try:
    ask(cluster.router_address, {"op": "neighbors", "node": 0})
finally:
    cluster.close()
stages["1-shard router"] = "numpy" in sys.modules

estimate = reader.engine.query(
    {"id": 1, "op": "pagerank", "node": 0}, deadline=time.monotonic()
)
assert estimate["degraded"] is True, estimate
stages["degraded pagerank"] = "numpy" in sys.modules

served = ask(reader.address, {"op": "pagerank", "node": 0})["result"]
stages["pagerank"] = "numpy" in sys.modules
reader.stop()

from repro.queries.pagerank import pagerank_summary

expected = float(pagerank_summary(load_representation(artifact))[0])
print(json.dumps({"stages": stages, "served": served, "expected": expected}))
"""


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    graph = planted_partition(60, 4, 0.6, 0.05, seed=4)
    path = tmp_path_factory.mktemp("footprint") / "summary.txt"
    save_representation(
        path, MagsDMSummarizer(iterations=4, seed=0).summarize(graph)
        .representation,
    )
    return path


def test_serving_never_loads_numpy(artifact, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(artifact), str(tmp_path / "wal")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    stages = report.pop("stages")
    assert stages == {
        "import": False,
        "read-only neighbors": False,
        "ingest and compact": False,
        "restart and replay": False,
        "1-shard router": False,
        "degraded pagerank": False,
        "pagerank": True,
    }
    # The first exact request builds the Algorithm 7 vector it would
    # have built with NumPy loaded from the start.
    assert report["served"] == report["expected"]
