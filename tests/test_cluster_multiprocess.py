"""Multi-instance serving on one box: subprocess lifecycle, metrics
isolation, and clean SIGINT shutdown (the wire-level cluster)."""

import socket
import threading

import pytest

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.cluster.manager import (
    ClusterManager,
    InstanceProcess,
    instance_config,
)
from repro.cluster.sharder import plan_cluster
from repro.cluster.topology import (
    InstanceSpec,
    TopologyError,
    default_spec,
    load_topology,
)
from repro.graph.generators import planted_partition
from repro.obs.collect import pull_cluster_telemetry
from repro.obs.metrics import counter_total
from repro.service import SummaryServiceClient


def free_ports(count: int) -> list[int]:
    """Distinct currently-free TCP ports (best effort)."""
    sockets, ports = [], []
    for _ in range(count):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
        ports.append(sock.getsockname()[1])
    for sock in sockets:
        sock.close()
    return ports


@pytest.fixture(scope="module")
def graph():
    return planted_partition(120, 8, 0.6, 0.03, seed=5)


@pytest.fixture(scope="module")
def cluster_dir(graph, tmp_path_factory):
    """A planned 2-shard cluster directory (ports filled at start)."""
    out = tmp_path_factory.mktemp("cluster")
    spec = default_spec(2, 1, seed=0, base_port=free_ports(1)[0])
    plan_cluster(
        graph,
        spec,
        out,
        lambda: MagsDMSummarizer(iterations=4, seed=0),
    )
    return out


def fresh_spec(cluster_dir):
    """Reload the planned topology with unused ports patched in, so
    parallel test runs never collide on an address."""
    spec = load_topology(cluster_dir / "topology.json")
    ports = free_ports(len(spec.instances) + 1)
    spec.router_port = ports[0]
    spec.instances = [
        InstanceSpec(i.shard, i.replica, i.host, port)
        for i, port in zip(spec.instances, ports[1:])
    ]
    return spec


class TestInstanceProcess:
    def test_two_instances_metrics_stay_isolated(self, cluster_dir):
        """Two servers with disjoint shard artifacts under concurrent
        clients: each instance counts exactly its own traffic."""
        spec = fresh_spec(cluster_dir)
        a_spec, b_spec = spec.instances
        a = InstanceProcess(
            a_spec, instance_config(a_spec, spec.artifact_path(0), workers=2)
        )
        b = InstanceProcess(
            b_spec, instance_config(b_spec, spec.artifact_path(1), workers=2)
        )
        try:
            a.start()
            b.start()

            def hammer(instance, pings):
                with SummaryServiceClient(*instance.address) as client:
                    for _ in range(pings):
                        client.ping()

            threads = [
                threading.Thread(target=hammer, args=(a_spec, 30)),
                threading.Thread(target=hammer, args=(b_spec, 50)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            with SummaryServiceClient(*a_spec.address) as client:
                a_total = counter_total(
                    client.telemetry()["registry"], "service_requests_total"
                )
            with SummaryServiceClient(*b_spec.address) as client:
                b_total = counter_total(
                    client.telemetry()["registry"], "service_requests_total"
                )
            # Each server saw its own pings (the probing telemetry request
            # may or may not be in its own snapshot) — nothing more.
            assert a_total in (30, 31)
            assert b_total in (50, 51)
        finally:
            a_code = a.stop()
            b_code = b.stop()
        assert a_code == 0
        assert b_code == 0

    def test_sigint_is_a_clean_shutdown(self, cluster_dir):
        """The existing SIGINT path shuts a subprocess instance down
        with exit code 0 and the final log line."""
        spec = fresh_spec(cluster_dir)
        instance = spec.instances[0]
        proc = InstanceProcess(
            instance,
            instance_config(instance, spec.artifact_path(0), workers=2),
        )
        proc.start()
        assert proc.running
        code = proc.stop()
        assert code == 0
        assert not proc.running
        assert "shutdown complete" in proc.output_tail()

    def test_missing_artifact_fails_fast(self, tmp_path):
        inst = InstanceSpec(0, 0, "127.0.0.1", free_ports(1)[0])
        proc = InstanceProcess(
            inst, instance_config(inst, tmp_path / "nope.txt.gz")
        )
        with pytest.raises(TopologyError, match="does not exist"):
            proc.start()


class TestClusterManager:
    def test_full_cluster_round_trip(self, cluster_dir, graph):
        """Subprocess instances + in-process router, end to end."""
        spec = fresh_spec(cluster_dir)
        manager = ClusterManager(spec, workers=2)
        with manager:
            host, port = manager.router_server.address
            assert (host, port) == spec.router_address
            with SummaryServiceClient(host, port) as client:
                assert client.ping() == "pong"
                for node in (0, 13, graph.n - 1):
                    assert client.degree(node) == graph.degree(node)
                    assert client.neighbors(node) == sorted(
                        graph.neighbors(node)
                    )
            telemetry = pull_cluster_telemetry(spec)
            assert all("registry" in entry for entry in telemetry.values())
            assert len(telemetry) == 3  # router + 2 instances
        # Context exit stops everything; codes are recorded by stop()
        # (idempotent second call returns the same codes).
        codes = manager.stop()
        assert set(codes.values()) == {0}
