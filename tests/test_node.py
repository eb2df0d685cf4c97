"""NodeConfig and Node: the one way a summary server is put together."""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.cli import build_parser, main
from repro.cluster import ClusterManager
from repro.cluster.topology import default_spec, save_topology
from repro.core.serialization import load_representation, save_representation
from repro.durability import (
    TermRecord,
    WriteAheadLog,
    recover_engine,
    replay_tail,
)
from repro.durability.replication import ACKS_MODES
from repro.durability.wal import FSYNC_POLICIES
from repro.graph.generators import planted_partition
from repro.obs.tracer import get_instance_label, get_tracer
from repro.resilience.checkpoint import CheckpointStore
from repro.service import MutableQueryEngine, SummaryServiceClient
from repro.service.node import Node, NodeConfig


def _parse(argv):
    return build_parser().parse_args(["serve", *argv])


@pytest.fixture(scope="module")
def graph():
    return planted_partition(60, 4, 0.6, 0.05, seed=4)


@pytest.fixture
def artifact(graph, tmp_path):
    path = tmp_path / "summary.txt"
    save_representation(
        path, MagsDMSummarizer(iterations=4, seed=0).summarize(graph)
        .representation,
    )
    return path


def _wait(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _node_threads():
    names = (
        "repro-budget-watchdog", "repro-wal-replay", "wal-compactor",
        "repro-maintenance", "repro-acceptor", "repro-worker-",
        "repro-repl",
    )
    return {
        thread for thread in threading.enumerate()
        if thread.name.startswith(names)
    }


def _open_paths_under(root) -> list[str]:
    root = str(root)
    paths = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith(root):
            paths.append(target)
    return paths


# -- NodeConfig ------------------------------------------------------------

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_./", min_size=1,
    max_size=12,
)
_seconds = st.floats(
    min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def _configs(draw):
    role = draw(st.sampled_from([None, "primary", "follower"]))
    followers = ()
    if role == "primary":
        followers = tuple(draw(st.lists(
            st.builds(
                "{}:{}".format,
                st.sampled_from(["127.0.0.1", "localhost", "db-2"]),
                st.integers(0, 65535),
            ),
            max_size=3,
        )))
    wal_dir = draw(_names if role else st.none() | _names)
    return NodeConfig(
        input=draw(_names),
        host=draw(st.sampled_from(["127.0.0.1", "localhost", "0.0.0.0"])),
        port=draw(st.integers(0, 65535)),
        workers=draw(st.integers(1, 64)),
        cache_size=draw(st.integers(0, 10**6)),
        request_timeout=draw(_seconds),
        log_interval=draw(_seconds),
        max_pending=draw(st.none() | st.integers(1, 1000)),
        degraded=draw(st.booleans()),
        breaker_threshold=draw(st.integers(0, 100)),
        trace_dir=draw(st.none() | _names),
        instance_label=draw(st.none() | _names),
        wal_dir=wal_dir,
        fsync=draw(st.sampled_from(FSYNC_POLICIES)),
        fsync_interval=draw(st.integers(1, 100)),
        wal_segment_bytes=draw(st.integers(1, 2**30)),
        compact_interval=draw(_seconds),
        max_inflight_mutations=draw(st.integers(0, 1000)),
        ingest_memory_budget=draw(st.none() | _seconds),
        dedup_capacity=draw(st.integers(0, 10**6)),
        # Maintenance commits are WAL records.
        maintenance_interval=draw(_seconds if wal_dir else st.just(0.0)),
        maintenance_budget_seconds=draw(_seconds),
        maintenance_budget_merges=draw(st.none() | st.integers(0, 10**4)),
        maintenance_max_supernodes=draw(st.integers(1, 1000)),
        repl_role=role,
        repl_follower=followers,
        repl_acks=draw(st.sampled_from(ACKS_MODES)),
    )


class TestNodeConfig:
    def test_defaults_are_the_flag_defaults(self):
        assert NodeConfig.from_args(_parse(["s.txt"])) == NodeConfig("s.txt")
        assert NodeConfig("s.txt").to_argv() == ["s.txt"]

    def test_one_field_per_serve_flag(self):
        parsed = vars(_parse(["s.txt"]))
        parsed.pop("command")
        assert [f.name for f in fields(NodeConfig)] == list(parsed)

    @settings(max_examples=200, deadline=None)
    @given(_configs())
    def test_argv_round_trip(self, config):
        assert NodeConfig.from_args(_parse(config.to_argv())) == config

    @pytest.mark.parametrize("changes, message", [
        ({"repl_role": "primary"}, "--repl-role requires --wal-dir"),
        (
            {"wal_dir": "w", "repl_follower": ("bad",)},
            "--repl-follower only applies to --repl-role primary",
        ),
        (
            {"wal_dir": "w", "repl_role": "follower",
             "repl_follower": ("h:1",)},
            "--repl-follower only applies to --repl-role primary",
        ),
        (
            {"wal_dir": "w", "repl_role": "primary",
             "repl_follower": ("h:x",)},
            "--repl-follower 'h:x' is not HOST:PORT",
        ),
        (
            {"maintenance_interval": 0.5},
            "--maintenance-interval requires --wal-dir",
        ),
    ])
    def test_validate_rejects(self, changes, message):
        with pytest.raises(ValueError, match=message):
            NodeConfig("s.txt", **changes)


class TestClusterArgv:
    def test_cluster_start_argv_is_pinned(self, tmp_path, monkeypatch):
        """``cluster start --wal-dir W --maintenance-interval 0.5`` on a
        2x2 topology hands replica 0 and replica 1 of shard 0 exactly
        the settings it handed them when the argv was written by hand.
        """
        spec = default_spec(2, 2, seed=0, base_port=7400)
        spec.artifacts = {
            shard: str(tmp_path / f"shard-{shard}.summary.txt.gz")
            for shard in (0, 1)
        }
        topology = tmp_path / "topology.json"
        save_topology(topology, spec)
        wal = tmp_path / "wal"
        artifact = spec.artifacts[0]
        pinned = {
            "shard0/r0": [
                artifact, "--host", "127.0.0.1", "--port", "7401",
                "--workers", "4", "--cache-size", "4096",
                "--log-interval", "0", "--maintenance-interval", "0.5",
                "--maintenance-budget-seconds", "1.0",
                "--maintenance-max-supernodes", "64",
                "--wal-dir", f"{wal}/shard0-r0", "--repl-role", "primary",
                "--repl-follower", "127.0.0.1:7402", "--repl-acks", "quorum",
            ],
            "shard0/r1": [
                artifact, "--host", "127.0.0.1", "--port", "7402",
                "--workers", "4", "--cache-size", "4096",
                "--log-interval", "0", "--maintenance-interval", "0.5",
                "--maintenance-budget-seconds", "1.0",
                "--maintenance-max-supernodes", "64",
                "--wal-dir", f"{wal}/shard0-r1", "--repl-role", "follower",
            ],
        }
        built = {}

        def capture(manager, startup_timeout=60.0):
            built.update(manager.processes)
            raise RuntimeError("captured")

        monkeypatch.setattr(ClusterManager, "start_instances", capture)
        with pytest.raises(RuntimeError, match="captured"):
            main([
                "cluster", "start", str(topology), "--wal-dir", str(wal),
                "--maintenance-interval", "0.5",
            ])
        for label, argv in pinned.items():
            command = built[label].command
            assert command[1:4] == ["-m", "repro", "serve"]
            assert _parse(command[4:]) == _parse(argv)


# -- Node ------------------------------------------------------------------


class TestNodeLifecycle:
    def test_stop_releases_every_thread(self, artifact, tmp_path):
        before = _node_threads()
        wal_dir = tmp_path / "wal"
        seed = Node(NodeConfig(
            str(artifact), wal_dir=str(wal_dir), compact_interval=0,
            log_interval=0,
        )).start()
        seed.engine.ingest("s", 0, [["+", 0, 59]])
        seed.stop()
        node = Node(NodeConfig(
            str(artifact), wal_dir=str(wal_dir), log_interval=0,
            ingest_memory_budget=1e6, compact_interval=0.05,
            maintenance_interval=0.05, repl_role="primary",
        )).start()
        names = {thread.name for thread in _node_threads() - before}
        assert {"repro-budget-watchdog", "wal-compactor",
                "repro-maintenance"} <= names
        node.stop()
        node.stop()  # idempotent
        assert not _node_threads() - before

    def test_failed_start_releases_everything(self, artifact, tmp_path):
        before = _node_threads()
        tracer, label = get_tracer(), get_instance_label()
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            node = Node(NodeConfig(
                str(artifact), port=taken.getsockname()[1],
                wal_dir=str(tmp_path / "wal"),
                trace_dir=str(tmp_path / "spans"),
                ingest_memory_budget=1e6,
            ))
            with pytest.raises(OSError):
                node.start()
        assert (tmp_path / "wal").is_dir()  # it got as far as the WAL
        if os.path.isdir("/proc/self/fd"):
            assert _open_paths_under(tmp_path) == []
        assert not _node_threads() - before
        assert (get_tracer(), get_instance_label()) == (tracer, label)


class TestProductionOrder:
    def test_replay_then_replication_matches_offline_recovery(
        self, artifact, tmp_path, monkeypatch
    ):
        """A primary over a WAL tail: reads during the replay are
        degraded, the term record lands after every recovered record,
        and the served state equals an offline recovery's."""
        wal_dir = tmp_path / "wal"
        writer = Node(NodeConfig(
            str(artifact), wal_dir=str(wal_dir), compact_interval=0,
            log_interval=0,
        )).start()
        for seq, edge in enumerate([(0, 59), (1, 58), (2, 57)]):
            writer.engine.ingest("s", seq, [["+", *edge]])
        writer.stop()

        release = threading.Event()
        replay_record = MutableQueryEngine.replay_record

        def gated(engine, record):
            assert release.wait(10.0)
            return replay_record(engine, record)

        monkeypatch.setattr(MutableQueryEngine, "replay_record", gated)
        node = Node(NodeConfig(
            str(artifact), wal_dir=str(wal_dir), compact_interval=0,
            log_interval=0, repl_role="primary",
        )).start()
        try:
            with SummaryServiceClient(*node.address) as client:
                response = client.request_raw(
                    {"id": 1, "op": "neighbors", "node": 0}
                )
                assert response["degraded"] is True
                assert node.engine.role == "primary"
                assert node.engine.term == 0  # not configured yet
                release.set()
                _wait(lambda: node.engine.term == 1)
                assert not node.engine.replaying
                response = client.request_raw(
                    {"id": 2, "op": "neighbors", "node": 0}
                )
                assert "degraded" not in response
                assert 59 in response["result"]
            served = node.engine.state.to_state()
        finally:
            node.stop()

        wal = WriteAheadLog(wal_dir, fsync="never")
        try:
            records = list(wal.iter_records())
            engine, pending, report = recover_engine(
                load_representation(artifact), wal,
                CheckpointStore(wal_dir / "checkpoints"),
                engine_factory=lambda d: MutableQueryEngine(d, wal=wal),
            )
            replay_tail(engine, pending, report)
        finally:
            wal.close()
        terms = [r for r in records if isinstance(r, TermRecord)]
        assert len(terms) == 1
        assert all(
            terms[0].lsn > r.lsn for r in records if r is not terms[0]
        )
        assert len(records) == 4
        assert engine.state.to_state() == served
