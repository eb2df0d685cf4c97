"""One real ``kill -9`` of a durable server, as a smoke test.

Every other crash and failover check runs in process, in tier-1:
the in-process kill (``LocalCluster.kill_instance`` and
``Node.kill``) writes nothing a SIGKILL would not, and
``tests/test_cluster_ingest.py``, ``tests/test_replication.py``,
``tests/test_maintenance.py`` and the resilience test modules cover
failover, rejoin, maintenance replay and checkpoint corruption.  What
only a real process can show is kept here:

**SIGKILL mid-ingest** — a durable (``--wal-dir``) ``repro serve``
subprocess is killed with ``kill -9`` during sustained acknowledged
edge mutations; the restarted process replays the WAL and must serve
exactly the acknowledged prefix (zero acknowledged-but-lost
mutations, at most one in-flight batch extra), dedup a cross-restart
retry, and its state must be bit-identical to an uninterrupted replay
and pass :func:`repro.core.verify.deep_audit`.  The replay is checked
through the :mod:`repro.obs` metrics registry too.

Run:  PYTHONPATH=src python tools/chaos_harness.py --seed 0
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.algorithms.mags_dm import MagsDMSummarizer  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.obs.metrics import get_registry  # noqa: E402
from repro.service import SummaryServiceClient  # noqa: E402
from repro.service.node import NodeConfig  # noqa: E402

PASS = "PASS"


def _graph(seed: int):
    return generators.planted_partition(240, 12, 0.6, 0.03, seed=seed)


def scenario_ingest_kill9_recovery(seed: int) -> str:
    """``kill -9`` a durable server mid-stream; restart must lose
    nothing acknowledged.

    The kill instant is timing-chosen (a timer fires while the writer
    streams as fast as the fsync path allows), so every assertion is
    prefix-invariant: whatever the acknowledged count turned out to
    be, the recovered state must be the oracle of exactly the durable
    prefix — acked batches plus at most one in-flight batch whose ack
    was lost to the kill — never a torn or divergent state."""
    import random
    import threading

    from repro.cluster.manager import _SERVING_RE, InstanceProcess
    from repro.cluster.topology import InstanceSpec
    from repro.core.serialization import save_representation
    from repro.core.verify import deep_audit
    from repro.durability import WriteAheadLog, recover_engine, replay_tail
    from repro.dynamic.summary import DynamicGraphSummary
    from repro.graph.graph import Graph
    from repro.resilience.checkpoint import CheckpointStore
    from repro.service.ingest import MutableQueryEngine
    from repro.service.protocol import ProtocolError

    graph = _graph(seed)
    rep = (
        MagsDMSummarizer(iterations=6, seed=seed)
        .summarize(graph)
        .representation
    )

    # Deterministic, always-applicable mutation script.
    rng = random.Random(seed)
    edges = set(graph.edges())
    script = []
    for _ in range(2000):
        if edges and rng.random() < 0.4:
            edge = rng.choice(sorted(edges))
            edges.discard(edge)
            script.append(("-", *edge))
        else:
            while True:
                u, v = rng.randrange(graph.n), rng.randrange(graph.n)
                pair = (min(u, v), max(u, v))
                if u != v and pair not in edges:
                    break
            edges.add(pair)
            script.append(("+", *pair))

    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = Path(tmp)
        artifact = tmpdir / "summary.bin"
        save_representation(artifact, rep)
        wal_dir = tmpdir / "wal"

        def spawn() -> tuple[InstanceProcess, int]:
            proc = InstanceProcess(
                InstanceSpec(shard=0, replica=0, host="127.0.0.1", port=0),
                NodeConfig(
                    input=str(artifact),
                    workers=2,
                    log_interval=0,
                    wal_dir=str(wal_dir),
                    # Compaction off: the offline audit below must see
                    # the whole tail as WAL records, deterministically.
                    compact_interval=0,
                ),
            )
            proc.start(startup_timeout=120.0)
            match = _SERVING_RE.search(proc.output_tail())
            assert match, proc.output_tail()
            return proc, int(match.group(2))

        server, port = spawn()
        acked = 0
        killer = threading.Timer(0.35, server.kill)
        killer.start()
        try:
            with SummaryServiceClient("127.0.0.1", port) as client:
                for i, mutation in enumerate(script):
                    try:
                        result = client.ingest(
                            [list(mutation)], stream="chaos", seq=i
                        )
                    except (OSError, ProtocolError):
                        break  # the kill landed
                    assert result["applied"] == 1, result
                    acked = i + 1
        finally:
            killer.cancel()
            server.kill()
        assert acked > 0, "no mutation was acknowledged before the kill"

        # Restart on the same WAL; wait out the background replay.
        server, port = spawn()
        try:
            with SummaryServiceClient("127.0.0.1", port) as client:
                deadline = time.monotonic() + 60.0
                while True:
                    response = client.request_raw({"id": 1, "op": "ping"})
                    if not response.get("degraded"):
                        break
                    assert time.monotonic() < deadline, "replay stuck"
                    time.sleep(0.02)
                epoch = response["epoch"]
                assert acked <= epoch <= acked + 1, (
                    f"acknowledged {acked} mutation(s) but recovered "
                    f"epoch={epoch}: acknowledged writes were lost"
                )
                # Cross-restart idempotence: replaying the last durable
                # (stream, seq) is absorbed by the recovered dedup map.
                retry = client.ingest(
                    [list(script[epoch - 1])], stream="chaos", seq=epoch - 1
                )
                assert retry.get("duplicate") is True, retry
                # The served graph is the oracle of the durable prefix.
                oracle = set(graph.edges())
                for sign, u, v in script[:epoch]:
                    (oracle.add if sign == "+" else oracle.discard)((u, v))
                got = set()
                for node in range(graph.n):
                    for peer in client.neighbors(node):
                        got.add((min(node, peer), max(node, peer)))
                assert got == oracle, "recovered graph diverged from oracle"
        finally:
            server.kill()  # a second SIGKILL: the tail must survive too

        # Offline audit of the durable state left behind: replay it
        # in-process, check bit-identity against an uninterrupted run
        # of the same prefix, and deep-audit the summary.
        replayed_before = _counter_value(
            "repro_wal_records_total", event="replayed"
        )
        wal = WriteAheadLog(wal_dir, fsync="never", registry=get_registry())
        recovered, pending, report = recover_engine(
            rep, wal, CheckpointStore(wal_dir / "checkpoints"),
            engine_factory=lambda d: MutableQueryEngine(d, wal=wal),
        )
        replay_tail(recovered, pending, report)
        wal.close()
        assert recovered.epoch == epoch, (recovered.epoch, epoch)
        uninterrupted = MutableQueryEngine(
            DynamicGraphSummary.from_representation(rep)
        )
        for i, mutation in enumerate(script[:epoch]):
            uninterrupted.ingest("chaos", i, [list(mutation)])
        assert recovered.representation == uninterrupted.representation, (
            "recovered summary is not bit-identical to an uninterrupted run"
        )
        # optimal=False: an online-mutated summary stays lossless and
        # structurally sound but is not the optimal re-encoding.
        findings = deep_audit(
            recovered.representation,
            Graph(graph.n, sorted(oracle)),
            optimal=False,
        )
        assert not findings, findings
        replayed = _counter_value(
            "repro_wal_records_total", event="replayed"
        ) - replayed_before
        assert replayed >= 1, "WAL replay not visible in metrics"
    return (
        f"kill -9 after {acked} ack(s): recovered epoch={epoch}, "
        f"0 acknowledged mutations lost, bit-identical, deep audit clean"
    )


def _counter_value(name: str, **labels) -> int:
    return int(get_registry().counter(name, **labels).value)


SCENARIOS = [scenario_ingest_kill9_recovery]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    failures = 0
    for scenario in SCENARIOS:
        name = scenario.__name__.removeprefix("scenario_")
        try:
            detail = scenario(args.seed)
        except Exception as exc:  # noqa: BLE001 - harness must report all
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"{PASS} {name}: {detail}")
    if failures:
        print(f"chaos suite FAILED ({failures} scenario(s))")
        return 1
    print("chaos suite PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
