"""Seeded chaos suite for the resilience subsystem.

What CI runs after the unit suite: a battery of fault-injection
scenarios, each fully deterministic under ``--seed``, asserting that
the system's end state is *correct* despite the faults — not merely
that it survived:

1. **Dropped connection** — the service client's transport drops
   mid-request; with a retry policy the client reconnects and the
   answer matches Algorithm 6 exactly.
2. **Crash + corrupted checkpoint + resume** — a Mags-DM run is
   killed mid-iteration, its newest checkpoint is then corrupted on
   disk; ``resume`` skips the corrupt snapshot, restarts from the
   previous one, and the finished run's relative size matches the
   uninterrupted baseline.
3. **Degraded serving** — with a zero deadline and degraded mode on,
   ``khop``/``pagerank`` return flagged approximate answers instead
   of timeout errors.
4. **SLO gate** — a healthy server's live telemetry passes the
   default availability/latency SLOs, while an impossible latency
   objective is reported as violated with an error-budget burn > 1.
5. **SIGKILL mid-ingest** — a durable (``--wal-dir``) server is
   killed with ``kill -9`` during sustained acknowledged edge
   mutations; the restarted process replays the WAL and must serve
   exactly the acknowledged prefix (zero acknowledged-but-lost
   mutations, at most one in-flight batch extra), dedup a
   cross-restart retry, and its state must be bit-identical to an
   uninterrupted replay and pass :func:`repro.core.verify.deep_audit`.
6. **SIGKILL mid-maintenance** — a durable server with background
   compactness maintenance enabled is killed twice: mid-ingest, then
   again the moment a recovered maintenance pass commits.  A final
   recovery must replay every ``resummarize`` WAL record
   bit-identically (straight, repeated, and across a mid-tail
   checkpoint cut), converge to zero dirty super-nodes, and pass
   ``deep_audit(optimal=True)`` — the optimality waiver removed.
7. **SIGKILL the primary of a replicated shard** — a replicas=2
   ``acks=quorum`` shard loses its primary to ``kill -9`` mid-stream;
   the router auto-promotes the surviving follower at a higher term,
   client retries dedup across the promotion, the revived stale
   primary is demoted and snapshot-caught-up, zero acknowledged
   mutations are lost, and both replicas recover bit-identically.
8. **SIGKILL + rejoin a follower** — under ``acks=leader`` the
   primary never stops acknowledging while its follower is dead; the
   rejoined follower drains the gap incrementally and ends with a
   byte-identical WAL and bit-identical recovered state.

Every scenario also checks its events are observable through the
:mod:`repro.obs` metrics registry.

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
from repro.core.verify import verify_lossless  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.obs.metrics import get_registry  # noqa: E402
from repro.queries.neighbors import neighbor_query  # noqa: E402
from repro.resilience import (  # noqa: E402
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    use_injector,
)
from repro.service import (  # noqa: E402
    QueryEngine,
    SummaryQueryServer,
    SummaryServiceClient,
)
from repro.service.node import NodeConfig  # noqa: E402

PASS = "PASS"


def _graph(seed: int):
    return generators.planted_partition(240, 12, 0.6, 0.03, seed=seed)


def _quiet_policy() -> RetryPolicy:
    return RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)


# ----------------------------------------------------------------------
def scenario_connection_drop(seed: int) -> str:
    graph = _graph(seed)
    rep = (
        MagsDMSummarizer(iterations=6, seed=seed)
        .summarize(graph)
        .representation
    )
    engine = QueryEngine(rep, cache_size=128)
    retries_before = _counter_value(
        "repro_resilience_retries_total", component="service_client"
    )
    with SummaryQueryServer(engine, workers=4, request_timeout=5.0) as srv:
        host, port = srv.address
        plan = FaultPlan().drop("client:send", after=1, times=1)
        with use_injector(FaultInjector(plan, seed=seed)) as injector:
            with SummaryServiceClient(
                host, port,
                retry_policy=_quiet_policy(), retry_budget=10.0, seed=seed,
            ) as client:
                assert client.ping() == "pong"
                # This request's transport drops; the client must
                # reconnect and still return the exact answer.
                node = 17
                got = set(client.neighbors(node))
        assert injector.fired_count("client:send") == 1, "drop did not fire"
    want = neighbor_query(rep, node)
    assert got == want, "retried answer is wrong"
    retries_after = _counter_value(
        "repro_resilience_retries_total", component="service_client"
    )
    assert retries_after > retries_before, "retry not recorded in metrics"
    return "dropped connection retried transparently, answer exact"


def scenario_checkpoint_corrupt_resume(seed: int) -> str:
    graph = _graph(seed)
    iterations = 12
    baseline = MagsDMSummarizer(iterations=iterations, seed=seed).summarize(
        graph
    )
    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(tmp, keep=5)
        interrupted = MagsDMSummarizer(
            iterations=iterations, seed=seed
        ).configure_checkpointing(store, interval=2)
        plan = FaultPlan().crash("summarize:iteration", after=7)
        try:
            with use_injector(FaultInjector(plan, seed=seed)):
                interrupted.summarize(graph)
        except InjectedFault:
            pass
        else:
            raise AssertionError("run was not interrupted")
        steps = store.steps()
        assert steps, "no checkpoints were written"
        # Corrupt the newest snapshot on disk; resume must skip it.
        newest = store.path_for(steps[-1])
        newest.write_bytes(newest.read_bytes()[:-40] + b"garbage!")
        resumed = MagsDMSummarizer(
            iterations=iterations, seed=seed
        ).configure_checkpointing(store, interval=2, resume=True)
        result = resumed.summarize(graph)
    verify_lossless(graph, result.representation)
    assert result.relative_size == baseline.relative_size, (
        f"resumed run diverged: {result.relative_size} "
        f"vs {baseline.relative_size}"
    )
    corrupt_skips = _counter_value(
        "repro_resilience_checkpoints_total", event="corrupt_skipped"
    )
    assert corrupt_skips >= 1, "corrupt checkpoint skip not recorded"
    return (
        f"crash + corrupt checkpoint resumed to relative_size="
        f"{result.relative_size:.4f} (matches baseline)"
    )


def scenario_degraded_serving(seed: int) -> str:
    graph = _graph(seed)
    rep = (
        MagsDMSummarizer(iterations=6, seed=seed)
        .summarize(graph)
        .representation
    )
    engine = QueryEngine(rep, cache_size=128, degraded=True)
    expired = time.monotonic()  # an already-spent deadline
    response = engine.query(
        {"id": 1, "op": "khop", "node": 3, "k": 4}, deadline=expired
    )
    assert response["ok"] and response.get("degraded") is True, response
    response = engine.query(
        {"id": 2, "op": "pagerank", "node": 3}, deadline=expired
    )
    assert response["ok"] and response.get("degraded") is True, response
    assert isinstance(response["result"], float)
    for op in ("khop", "pagerank"):
        degraded = engine.metrics.registry.counter(
            "service_degraded_total", op=op
        )
        assert degraded.value >= 1, op
    return "zero-deadline khop/pagerank served degraded, flagged, counted"


def scenario_slo_gate(seed: int) -> str:
    """The SLO gate over live telemetry: a healthy server under real
    traffic must stay inside the default error budgets, and an
    impossible latency objective must be reported as violated with a
    burn rate > 1 (the gate actually fires)."""
    from repro.obs.slo import SLO, DEFAULT_SLOS, evaluate_slos

    graph = _graph(seed)
    rep = (
        MagsDMSummarizer(iterations=6, seed=seed)
        .summarize(graph)
        .representation
    )
    engine = QueryEngine(rep, cache_size=128)
    with SummaryQueryServer(engine, workers=4) as srv:
        host, port = srv.address
        with SummaryServiceClient(host, port) as client:
            for q in range(120):
                client.neighbors(q % rep.n)
            telemetry = client.telemetry()
    snapshots = {"server": telemetry}

    results = evaluate_slos(snapshots, DEFAULT_SLOS)
    violated = [r.slo.name for r in results if not r.ok]
    assert not violated, f"healthy server violated SLOs: {violated}"
    burns = {r.slo.name: r.budget_burn for r in results}

    impossible = SLO(
        "latency-impossible", "latency", objective=1e-6, percentile=99.0
    )
    (gate,) = evaluate_slos(snapshots, [impossible])
    assert not gate.ok, "impossible latency SLO was not flagged"
    assert gate.budget_burn > 1.0, (
        f"violated SLO burn must exceed 1, got {gate.budget_burn}"
    )
    return (
        f"defaults OK (burn availability={burns['availability']:.2f}, "
        f"latency={burns['latency-p99']:.2f}); impossible objective "
        f"fired with burn={gate.budget_burn:.0f}"
    )


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


def scenario_maintenance_kill9_recovery(seed: int) -> str:
    """``kill -9`` a durable server while background maintenance is
    re-summarizing; recovery must replay every committed pass
    bit-identically and converge to an optimally re-encoded summary.

    Three lives of one WAL directory: (1) sustained acknowledged
    ingest with maintenance ticking, killed mid-stream; (2) restart,
    replay, maintenance starts committing ``resummarize`` records,
    killed again the moment one is observed — the second kill lands
    mid-maintenance-activity; (3) restart again and let maintenance
    drain every dirty super-node.  The offline audit then replays the
    surviving WAL twice (and once across a mid-tail checkpoint cut):
    all three replays must agree bit-for-bit, and because the last
    committed record is a full re-encode of a clean summary,
    ``deep_audit(optimal=True)`` must pass — no waiver."""
    import json
    import random
    import threading

    from repro.cluster.manager import _SERVING_RE, InstanceProcess
    from repro.cluster.topology import InstanceSpec
    from repro.core.serialization import (
        load_representation,
        save_representation,
    )
    from repro.core.verify import deep_audit
    from repro.durability import (
        ResummarizeRecord,
        WriteAheadLog,
        recover_engine,
        replay_tail,
    )
    from repro.graph.graph import Graph
    from repro.obs.metrics import series_value
    from repro.resilience.checkpoint import CheckpointStore
    from repro.service.client import ServiceError
    from repro.service.ingest import MutableQueryEngine
    from repro.service.protocol import ProtocolError

    graph = _graph(seed)
    rep = (
        MagsDMSummarizer(iterations=6, seed=seed)
        .summarize(graph)
        .representation
    )

    rng = random.Random(seed + 1)
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
                    # Compaction off so the offline audit sees the
                    # whole history as WAL records; maintenance on a
                    # tight tick with a recorded merge cap.
                    compact_interval=0,
                    maintenance_interval=0.05,
                    maintenance_max_supernodes=24,
                    maintenance_budget_merges=256,
                    maintenance_budget_seconds=0,
                ),
            )
            proc.start(startup_timeout=120.0)
            match = _SERVING_RE.search(proc.output_tail())
            assert match, proc.output_tail()
            return proc, int(match.group(2))

        def wait_replayed(client) -> dict:
            deadline = time.monotonic() + 60.0
            while True:
                response = client.request_raw({"id": 1, "op": "ping"})
                if not response.get("degraded"):
                    return response
                assert time.monotonic() < deadline, "replay stuck"
                time.sleep(0.02)

        def committed_passes(client) -> int:
            registry = client.telemetry()["registry"]
            return int(series_value(
                registry, "repro_maintenance_passes_total",
                outcome="committed",
            ) or 0)

        # Life 1: acknowledged ingest + maintenance ticking, kill -9.
        server, port = spawn()
        acked = 0
        killer = threading.Timer(0.35, server.kill)
        killer.start()
        try:
            with SummaryServiceClient("127.0.0.1", port) as client:
                for i, mutation in enumerate(script):
                    try:
                        result = client.ingest(
                            [list(mutation)], stream="maint-chaos", seq=i
                        )
                    except (OSError, ProtocolError):
                        break
                    assert result["applied"] == 1, result
                    acked = i + 1
        finally:
            killer.cancel()
            server.kill()
        assert acked > 0, "no mutation was acknowledged before the kill"

        # Life 2: recover, then kill again the moment maintenance has
        # committed at least one pass — mid-activity by construction.
        server, port = spawn()
        try:
            with SummaryServiceClient("127.0.0.1", port) as client:
                wait_replayed(client)
                # Cross-restart dedup: the last durable batch is either
                # the last acknowledged one or the in-flight one whose
                # ack the kill swallowed; a rewind rejection for the
                # former proves the recovered dedup map knows the
                # latter.
                try:
                    retry = client.ingest(
                        [list(script[acked - 1])],
                        stream="maint-chaos", seq=acked - 1,
                    )
                except ServiceError:
                    retry = client.ingest(
                        [list(script[acked])],
                        stream="maint-chaos", seq=acked,
                    )
                assert retry.get("duplicate") is True, retry
                deadline = time.monotonic() + 60.0
                while True:
                    if committed_passes(client) >= 1:
                        break
                    assert time.monotonic() < deadline, (
                        "maintenance never committed a pass"
                    )
                    time.sleep(0.01)
        finally:
            server.kill()

        # Life 3: recover once more and let maintenance drain.
        server, port = spawn()
        try:
            with SummaryServiceClient("127.0.0.1", port) as client:
                wait_replayed(client)
                deadline = time.monotonic() + 120.0
                while True:
                    registry = client.telemetry()["registry"]
                    dirty = series_value(
                        registry, "repro_maintenance_dirty_supernodes"
                    )
                    if dirty == 0:
                        break
                    assert time.monotonic() < deadline, (
                        f"maintenance never converged: {dirty} dirty "
                        "super-nodes"
                    )
                    time.sleep(0.02)
                converged_passes = committed_passes(client)
                # The served graph is still the oracle of the durable
                # mutation prefix (re-encoding must never change it).
                got = set()
                for node in range(graph.n):
                    for peer in client.neighbors(node):
                        got.add((min(node, peer), max(node, peer)))
        finally:
            server.kill()

        # Offline audit of what the three lives left behind.
        wal = WriteAheadLog(wal_dir, fsync="never", registry=get_registry())
        records = list(wal.records(after_lsn=0))
        resummarized = [
            r for r in records if isinstance(r, ResummarizeRecord)
        ]
        assert resummarized, "no resummarize record survived the kills"
        durable = sum(
            1 for r in records if not isinstance(r, ResummarizeRecord)
        )
        assert acked <= durable <= acked + 1, (acked, durable)
        oracle = set(graph.edges())
        for sign, u, v in script[:durable]:
            (oracle.add if sign == "+" else oracle.discard)((u, v))
        assert got == oracle, "served graph diverged from oracle"

        # Replay from the artifact the server itself loaded: replay
        # determinism is member-order-sensitive (union-find roots
        # follow member order, serialization stores it sorted), so the
        # audit must start from the same bytes the server did.
        base = load_representation(artifact)

        def replay_all(tail):
            engine, pending, report = recover_engine(
                base, None, None,
                engine_factory=lambda d: MutableQueryEngine(d),
            )
            replay_tail(engine, list(tail), report)
            return engine

        first = replay_all(records)
        second = replay_all(records)
        assert first.representation == second.representation, (
            "independent WAL replays diverged"
        )
        assert first.epoch == second.epoch
        assert (
            first.state.dynamic.dirty_supernodes()
            == second.state.dynamic.dirty_supernodes()
        )
        # Mid-tail checkpoint cut: replaying half, checkpointing, and
        # recovering from that checkpoint plus the rest must land on
        # the same bits as the straight-through replay.
        half = len(records) // 2
        prefix = replay_all(records[:half])
        store = CheckpointStore(tmpdir / "cut-checkpoints")
        store.save(prefix.state.to_state(), step=prefix.applied_lsn)
        resumed, pending, report = recover_engine(
            base, None, store,
            engine_factory=lambda d: MutableQueryEngine(d),
        )
        replay_tail(resumed, records[half:], report)
        assert resumed.representation == first.representation, (
            "checkpoint-cut replay diverged from straight-through replay"
        )
        assert json.dumps(
            resumed.state.to_state(), sort_keys=True
        ) == json.dumps(first.state.to_state(), sort_keys=True)
        # Replayed maintenance passes are observable in metrics (each
        # engine carries its own registry).
        replayed_passes = int(
            first.metrics.registry.counter(
                "repro_maintenance_passes_total", outcome="committed"
            ).value
        )
        assert replayed_passes >= len(resummarized), replayed_passes
        # Converged maintenance leaves *the* optimal encoding of its
        # partition — the full audit, waiver removed.
        assert first.state.dynamic.dirty_supernodes() == {}, (
            "replay did not converge with the live run"
        )
        findings = deep_audit(
            first.representation,
            Graph(graph.n, sorted(oracle)),
            optimal=True,
        )
        assert not findings, findings
        wal.close()
    return (
        f"kill -9 x2 around {len(resummarized)} committed maintenance "
        f"pass(es): replay bit-identical (straight, repeated, and "
        f"checkpoint-cut), converged after {converged_passes} pass(es), "
        f"deep_audit(optimal=True) clean"
    )


def _replication_script(graph, seed: int, length: int) -> list:
    """Deterministic, always-applicable mutation script."""
    import random

    rng = random.Random(seed)
    edges = set(graph.edges())
    script = []
    for _ in range(length):
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
    return script


def _spawn_replica(artifact, wal_dir, *, replica, port, role,
                   follower_ports=(), acks="quorum"):
    """One replicated serve subprocess; returns ``(proc, bound_port)``."""
    from repro.cluster.manager import _SERVING_RE, InstanceProcess
    from repro.cluster.topology import InstanceSpec

    proc = InstanceProcess(
        InstanceSpec(shard=0, replica=replica, host="127.0.0.1", port=port),
        NodeConfig(
            input=str(artifact),
            port=port,
            workers=2,
            log_interval=0,
            wal_dir=str(wal_dir),
            compact_interval=0,
            repl_role=role,
            repl_follower=tuple(f"127.0.0.1:{p}" for p in follower_ports),
            repl_acks=acks,
        ),
    )
    proc.start(startup_timeout=120.0)
    match = _SERVING_RE.search(proc.output_tail())
    assert match, proc.output_tail()
    return proc, int(match.group(2))


def _recover_offline(artifact, wal_dir):
    """Recover a dead replica's durable state in-process.

    The base loads from the serialized ``artifact`` — the same bytes
    the server process started from — because replay determinism is
    member-order-sensitive (see ``scenario_maintenance_kill9_recovery``).
    """
    from repro.core.serialization import load_representation
    from repro.durability import WriteAheadLog, recover_engine, replay_tail
    from repro.resilience.checkpoint import CheckpointStore
    from repro.service.ingest import MutableQueryEngine

    wal = WriteAheadLog(wal_dir, fsync="never")
    engine, pending, report = recover_engine(
        load_representation(artifact), wal,
        CheckpointStore(wal_dir / "checkpoints"),
        engine_factory=lambda d: MutableQueryEngine(d, wal=wal),
    )
    replay_tail(engine, pending, report)
    wal.close()
    return engine


def _wait_replication_drained(port: int, timeout: float = 60.0) -> dict:
    """Poll a primary's ``repl_status`` until every follower link is
    healthy with zero lag; returns the final status."""
    deadline = time.monotonic() + timeout
    last = None
    while time.monotonic() < deadline:
        try:
            with SummaryServiceClient("127.0.0.1", port) as client:
                last = client.repl_status()
        except (OSError, ValueError):
            time.sleep(0.1)
            continue
        followers = last.get("followers", [])
        if followers and all(
            f.get("healthy") and f.get("lag") == 0 for f in followers
        ):
            return last
        time.sleep(0.1)
    raise AssertionError(f"followers never drained: {last}")


def scenario_replicated_primary_kill9_failover(seed: int) -> str:
    """``kill -9`` the primary of a replicas=2 ``acks=quorum`` shard
    mid-stream; the router must auto-promote, the client's retried
    batches must dedup, and nothing acknowledged may be lost.

    A two-replica shard (r0 primary, r1 follower) serves a sustained
    acknowledged mutation stream through an in-process
    :class:`RouterEngine`.  Mid-stream the primary is SIGKILLed and
    then revived as a follower (quorum needs both replicas back).
    Every batch is pushed until acknowledged — retries reuse the same
    ``(stream, seq)`` so a batch whose ack the kill swallowed converges
    as ``duplicate``.  Afterwards: the router must have promoted on
    its own at a higher term, the revived stale replica must have been
    demoted and caught up (snapshot across the term change), the
    served graph must equal the oracle of every acknowledged batch,
    and both replicas' durable states must recover bit-identically
    offline and pass ``deep_audit``."""
    import json
    import threading

    from repro.cluster.router import RouterEngine
    from repro.cluster.topology import ClusterSpec, InstanceSpec
    from repro.core.serialization import save_representation
    from repro.core.verify import deep_audit
    from repro.graph.graph import Graph
    from repro.service.engine import QueryError

    graph = _graph(seed)
    rep = (
        MagsDMSummarizer(iterations=6, seed=seed)
        .summarize(graph)
        .representation
    )
    script = _replication_script(graph, seed + 2, 300)
    kill_at = 40

    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = Path(tmp)
        artifact = tmpdir / "summary.bin"
        save_representation(artifact, rep)
        wal0, wal1 = tmpdir / "wal-r0", tmpdir / "wal-r1"

        follower, f_port = _spawn_replica(
            artifact, wal1, replica=1, port=0, role="follower",
        )
        primary, p_port = _spawn_replica(
            artifact, wal0, replica=0, port=0, role="primary",
            follower_ports=[f_port], acks="quorum",
        )
        spec = ClusterSpec(
            shards=1, replicas=2, seed=seed,
            router_host="127.0.0.1", router_port=1,  # in-process: unused
            instances=[
                InstanceSpec(shard=0, replica=0,
                             host="127.0.0.1", port=p_port),
                InstanceSpec(shard=0, replica=1,
                             host="127.0.0.1", port=f_port),
            ],
            n=graph.n, acks="quorum",
        )
        router = RouterEngine(
            spec,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.05, max_delay=0.2
            ),
        )
        procs = {"r0": primary, "r1": follower}
        revival = []
        try:
            def ingest(i: int) -> dict:
                return router.query({
                    "op": "ingest", "stream": "repl-chaos", "seq": i,
                    "mutations": [list(script[i])],
                })["result"]

            def revive():
                # The supervisor rejoins a dead node as a follower;
                # the router (or the acting primary's shipper) decides
                # what it becomes.
                procs["r0"], __ = _spawn_replica(
                    artifact, wal0, replica=0, port=p_port,
                    role="follower",
                )

            retried = 0
            for i in range(len(script)):
                if i == kill_at:
                    # SIGKILL mid-stream, then revive concurrently
                    # with the client's retries: under acks=quorum the
                    # promoted survivor cannot ack alone.
                    procs["r0"].kill()
                    reviver = threading.Thread(target=revive)
                    reviver.start()
                    revival.append(reviver)
                attempts = 0
                while True:
                    try:
                        result = ingest(i)
                        break
                    except QueryError:
                        attempts += 1
                        assert attempts < 120, (
                            f"batch {i} never acknowledged after the "
                            f"failover"
                        )
                        time.sleep(0.25)
                retried += 1 if attempts else 0
                assert (
                    result.get("applied") == 1
                    or result["shards"]["0"].get("duplicate")
                ), result
            for reviver in revival:
                reviver.join(timeout=120.0)

            # The router promoted on its own: a higher term, and at
            # least one promotion counted.
            pool = router._shards[0]
            assert pool.term >= 2, pool.term
            promoted = int(
                router.metrics.registry.counter(
                    "repro_replication_promotions_total", shard="0"
                ).value
            )
            assert promoted >= 1, "router never promoted"

            # Whoever ended up primary: its follower (the revived
            # stale replica or the original follower) must drain to
            # zero lag, demoted to follower at the new term.
            acting = spec.instances[pool.primary]
            status = _wait_replication_drained(acting.port)
            assert status["role"] == "primary", status
            other = spec.instances[1 - pool.primary]
            with SummaryServiceClient(
                "127.0.0.1", other.port
            ) as client:
                peer = client.repl_status()
            assert peer["role"] == "follower", peer
            assert peer["term"] == status["term"] >= 2, (peer, status)
            assert peer["applied_lsn"] == status["applied_lsn"]

            # Zero acknowledged mutations lost: the served graph is
            # the oracle of the full acknowledged script.
            oracle = set(graph.edges())
            for sign, u, v in script:
                (oracle.add if sign == "+" else oracle.discard)((u, v))
            got = set()
            for node in range(graph.n):
                response = router.query({"op": "neighbors", "node": node})
                for peer_node in response["result"]:
                    got.add(
                        (min(node, peer_node), max(node, peer_node))
                    )
            assert got == oracle, "served graph diverged from oracle"
        finally:
            router.close()
            for proc in procs.values():
                proc.kill()

        # Offline: both replicas' durable states recover to the same
        # bits, and the summary deep-audits clean.
        r0 = _recover_offline(artifact, wal0)
        r1 = _recover_offline(artifact, wal1)
        assert r0.representation == r1.representation, (
            "replicas' recovered summaries diverged"
        )
        assert json.dumps(
            r0.state.to_state(), sort_keys=True
        ) == json.dumps(r1.state.to_state(), sort_keys=True), (
            "replicas' recovered states are not bit-identical"
        )
        findings = deep_audit(
            r0.representation, Graph(graph.n, sorted(oracle)),
            optimal=False,
        )
        assert not findings, findings
    return (
        f"primary kill -9 at batch {kill_at}/{len(script)}: "
        f"auto-promoted to term {status['term']}, {retried} batch(es) "
        f"retried through failover, 0 acknowledged mutations lost, "
        f"replicas bit-identical, deep audit clean"
    )


def scenario_follower_kill_rejoin(seed: int) -> str:
    """``kill -9`` a follower mid-stream; the primary keeps serving
    (``acks=leader``), and the rejoined follower must catch up to a
    byte-identical log and bit-identical state without operator help.

    The follower is SIGKILLed while the primary streams acknowledged
    mutations, revived on the same port a few dozen batches later, and
    the primary's background shipper must reconnect and drain the gap
    incrementally (same term — no snapshot).  Afterwards both WAL
    directories must hold byte-identical logs and recover offline to
    bit-identical engines."""
    import json

    from repro.core.serialization import save_representation
    from repro.core.verify import deep_audit
    from repro.graph.graph import Graph

    graph = _graph(seed)
    rep = (
        MagsDMSummarizer(iterations=6, seed=seed)
        .summarize(graph)
        .representation
    )
    script = _replication_script(graph, seed + 3, 120)
    kill_at, revive_at = 40, 80

    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = Path(tmp)
        artifact = tmpdir / "summary.bin"
        save_representation(artifact, rep)
        wal0, wal1 = tmpdir / "wal-r0", tmpdir / "wal-r1"

        follower, f_port = _spawn_replica(
            artifact, wal1, replica=1, port=0, role="follower",
        )
        primary, p_port = _spawn_replica(
            artifact, wal0, replica=0, port=0, role="primary",
            follower_ports=[f_port], acks="leader",
        )
        try:
            with SummaryServiceClient("127.0.0.1", p_port) as client:
                for i, mutation in enumerate(script):
                    if i == kill_at:
                        follower.kill()
                    elif i == revive_at:
                        follower, __ = _spawn_replica(
                            artifact, wal1, replica=1, port=f_port,
                            role="follower",
                        )
                    result = client.ingest(
                        [list(mutation)], stream="rejoin-chaos", seq=i
                    )
                    # Leader acks: the dead follower never blocks the
                    # write path.
                    assert result["applied"] == 1, result
            status = _wait_replication_drained(p_port)
            assert status["role"] == "primary" and status["term"] == 1
        finally:
            primary.kill()
            follower.kill()

        # Same term, so the rejoin must have been an incremental WAL
        # ship: the follower's log is *byte*-identical to the
        # primary's (its torn tail from the kill was repaired, then
        # overwritten by the re-shipped suffix).
        def log_bytes(wal_dir):
            return b"".join(
                path.read_bytes()
                for path in sorted(wal_dir.glob("wal-*.log"))
            )

        assert log_bytes(wal0) == log_bytes(wal1), (
            "follower WAL is not byte-identical to the primary's"
        )
        r0 = _recover_offline(artifact, wal0)
        r1 = _recover_offline(artifact, wal1)
        assert r0.epoch == r1.epoch == len(script)
        assert r0.representation == r1.representation
        assert json.dumps(
            r0.state.to_state(), sort_keys=True
        ) == json.dumps(r1.state.to_state(), sort_keys=True)
        oracle = set(graph.edges())
        for sign, u, v in script:
            (oracle.add if sign == "+" else oracle.discard)((u, v))
        findings = deep_audit(
            r0.representation, Graph(graph.n, sorted(oracle)),
            optimal=False,
        )
        assert not findings, findings
    return (
        f"follower kill -9 at batch {kill_at}, rejoin at {revive_at}: "
        f"incremental catch-up, WALs byte-identical, recovered states "
        f"bit-identical, deep audit clean"
    )


def _counter_value(name: str, **labels) -> int:
    return int(get_registry().counter(name, **labels).value)


SCENARIOS = [
    scenario_connection_drop,
    scenario_checkpoint_corrupt_resume,
    scenario_degraded_serving,
    scenario_slo_gate,
    scenario_ingest_kill9_recovery,
    scenario_maintenance_kill9_recovery,
    scenario_replicated_primary_kill9_failover,
    scenario_follower_kill_rejoin,
]


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
    faults = _counter_value_total("repro_resilience_faults_injected_total")
    print(f"total faults injected: {faults}")
    if failures:
        print(f"chaos suite FAILED ({failures} scenario(s))")
        return 1
    assert faults > 0, "no faults were injected; suite is vacuous"
    print("chaos suite PASSED")
    return 0


def _counter_value_total(name: str) -> int:
    return int(
        sum(
            metric.value
            for __, metric in get_registry().family(name)
        )
    )


if __name__ == "__main__":
    sys.exit(main())
