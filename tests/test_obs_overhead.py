"""Guard: tracing-disabled cost stays within 5% of obs-unimported.

The whole point of the ``sys.modules`` gate in
``repro.algorithms.base.active_tracer`` is that a process which never
imports ``repro.obs`` runs the pre-observability code paths untouched,
and one that imports it with the null tracer installed pays a dict
lookup per phase boundary.  This test measures both in one fresh
subprocess (so the import state is controlled) and fails if disabled
tracing regresses past ``base * 1.05 + 0.05s``.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

_SCRIPT = r"""
import json
import sys
import time

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.graph import generators

graph = generators.planted_partition(200, 10, 0.6, 0.03, seed=3)


def best_of(k):
    times = []
    for __ in range(k):
        started = time.perf_counter()
        MagsDMSummarizer(iterations=5, seed=0).summarize(graph)
        times.append(time.perf_counter() - started)
    return min(times)


# Warm up interpreter/caches, then measure with repro.obs unimported.
best_of(1)
assert not any(m.startswith("repro.obs") for m in sys.modules), (
    "repro.obs leaked into the baseline import graph"
)
base = best_of(3)

# Import the whole observability layer; tracing stays disabled.
import repro.obs  # noqa: E402,F401

assert not repro.obs.get_tracer().enabled
disabled = best_of(3)

print(json.dumps({"base": base, "disabled": disabled}))
"""


def test_disabled_tracing_overhead_within_5_percent():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": ""},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    timings = json.loads(proc.stdout.strip().splitlines()[-1])
    base, disabled = timings["base"], timings["disabled"]
    assert disabled <= base * 1.05 + 0.05, (
        f"tracing-disabled run took {disabled:.4f}s vs "
        f"obs-unimported {base:.4f}s"
    )


_SERVICE_SCRIPT = r"""
import json
import time

from repro.core.encoding import encode
from repro.core.supernodes import SuperNodePartition
from repro.graph import generators
from repro.service import (
    QueryEngine,
    SummaryQueryServer,
    SummaryServiceClient,
)
import repro.service.server as server_mod

graph = generators.planted_partition(120, 6, 0.6, 0.05, seed=2)
rep = encode(SuperNodePartition(graph))

REQUESTS = 300
SWEEPS = 5


def bench(server_cls):
    engine = QueryEngine(rep, cache_size=256)
    with server_cls(engine, port=0, workers=2) as srv:
        host, port = srv.address
        with SummaryServiceClient(host, port) as client:
            client.ping()  # warm the connection + engine caches
            best = float("inf")
            for __ in range(SWEEPS):
                started = time.perf_counter()
                for q in range(REQUESTS):
                    client.neighbors(q % rep.n)
                best = min(best, time.perf_counter() - started)
    return best


class NoGateServer(server_mod.SummaryQueryServer):
    # ``_handle_line`` with the tracer gate removed — the
    # pre-observability request path, used as the overhead baseline.
    def _handle_line(self, line):
        try:
            request = server_mod.decode_line(line)
        except server_mod.ProtocolError as exc:
            self.metrics.protocol_rejected("frame")
            return server_mod.error_response(
                None, "bad_request", str(exc)
            ), False
        try:
            server_mod.validate_request(request)
        except server_mod.ProtocolError as exc:
            return self._schema_error(request, exc), False
        return self._handle_request(request)


bench(NoGateServer)  # warm-up
base = bench(NoGateServer)
disabled = bench(server_mod.SummaryQueryServer)
print(json.dumps({"base": base, "disabled": disabled}))
"""


def test_disabled_tracing_service_path_within_5_percent():
    """The per-request tracer gate (``get_tracer()`` + ``enabled``
    check) must be invisible on the untraced service bench: no
    ``trace`` field sent, no ``--trace-dir`` configured."""
    proc = subprocess.run(
        [sys.executable, "-c", _SERVICE_SCRIPT],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": ""},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    timings = json.loads(proc.stdout.strip().splitlines()[-1])
    base, disabled = timings["base"], timings["disabled"]
    assert disabled <= base * 1.05 + 0.05, (
        f"disabled-tracing service path took {disabled:.4f}s vs "
        f"gate-free baseline {base:.4f}s for 300 requests"
    )


def test_algorithms_do_not_import_obs():
    """The algorithm layer must stay importable without repro.obs."""
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            (
                "import sys\n"
                "import repro.algorithms\n"
                "import repro.bench.runner\n"
                "assert not any(m.startswith('repro.obs') "
                "for m in sys.modules), sorted(\n"
                "    m for m in sys.modules if m.startswith('repro.obs'))\n"
            ),
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": ""},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
