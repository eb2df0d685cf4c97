"""Cluster lifecycle: launch, supervise, and stop shard instances.

Two deployment shapes share the topology spec:

* :class:`ClusterManager` — the real thing: one ``python -m repro
  serve`` **subprocess per instance** (its own interpreter, its own
  GIL), the router served in-process.  Used by ``repro cluster
  start`` and the cluster smoke/chaos tooling, which kills and
  restarts instance processes mid-run.
* :func:`start_local_cluster` — everything **in-process on ephemeral
  ports** for tests: real sockets and the real router, no subprocess
  startup cost; the returned handle exposes each instance's server so
  a test can drop a replica with ``server.close()``.

Both build each instance's :class:`~repro.service.node.NodeConfig`
with :func:`instance_config`: a subprocess receives it as ``repro
serve`` arguments, an in-process instance is a
:class:`~repro.service.node.Node` built from it.
"""

from __future__ import annotations

import logging
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
from collections import deque
from collections.abc import Sequence
from contextlib import ExitStack
from pathlib import Path

from repro.cluster.router import RouterEngine
from repro.cluster.topology import ClusterSpec, InstanceSpec, TopologyError
from repro.core.serialization import save_representation
from repro.obs.metrics import counter_total, series_value, worst_p99
from repro.service.node import Node, NodeConfig, trace_to
from repro.service.server import SummaryQueryServer

__all__ = [
    "InstanceProcess",
    "ClusterManager",
    "LocalCluster",
    "instance_config",
    "start_local_cluster",
]

logger = logging.getLogger("repro.cluster")

_SERVING_RE = re.compile(r"serving on (\S+):(\d+)")


def _subprocess_env() -> dict[str, str]:
    """Child env with this package's ``src`` tree on ``PYTHONPATH``."""
    src_dir = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    return env


class InstanceProcess:
    """One shard-serving subprocess (``python -m repro serve``)."""

    def __init__(self, instance: InstanceSpec, config: NodeConfig):
        self.instance = instance
        self.artifact = Path(config.input)
        #: The subprocess command line.
        self.command = [
            sys.executable, "-m", "repro", "serve", *config.to_argv()
        ]
        self._proc: subprocess.Popen | None = None
        self._output: deque[str] = deque(maxlen=200)
        self._drain: threading.Thread | None = None

    @property
    def running(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    @property
    def pid(self) -> int | None:
        return self._proc.pid if self._proc is not None else None

    def output_tail(self) -> str:
        return "".join(self._output)

    def start(self, startup_timeout: float = 60.0) -> "InstanceProcess":
        """Spawn the server and block until it reports its port."""
        if self.running:
            return self
        if not self.artifact.exists():
            raise TopologyError(
                f"{self.instance.label}: artifact {self.artifact} does "
                "not exist; run 'repro cluster plan' first"
            )
        self._proc = subprocess.Popen(
            self.command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_subprocess_env(),
        )
        ready = threading.Event()

        def drain(proc: subprocess.Popen) -> None:
            for line in proc.stdout:
                self._output.append(line)
                if _SERVING_RE.search(line):
                    ready.set()
            ready.set()  # EOF: unblock the waiter either way

        self._drain = threading.Thread(
            target=drain, args=(self._proc,), daemon=True
        )
        self._drain.start()
        if not ready.wait(startup_timeout) or not self.running:
            tail = self.output_tail()
            self.kill()
            raise TopologyError(
                f"{self.instance.label} did not come up on "
                f"{self.instance.host}:{self.instance.port}:\n{tail}"
            )
        logger.info(
            "started %s (pid %d) on %s:%d",
            self.instance.label, self._proc.pid,
            self.instance.host, self.instance.port,
        )
        return self

    def stop(self, timeout: float = 15.0) -> int | None:
        """Graceful SIGINT stop; returns the exit code (or ``None`` if
        it never ran)."""
        if self._proc is None:
            return None
        if self._proc.poll() is None:
            try:
                self._proc.send_signal(signal.SIGINT)
                self._proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                logger.warning(
                    "%s ignored SIGINT; killing", self.instance.label
                )
                self._proc.kill()
                self._proc.wait()
        return self._proc.returncode

    def kill(self) -> None:
        """Immediate SIGKILL (the chaos path; no graceful drain)."""
        if self._proc is not None and self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()


def instance_config(
    instance: InstanceSpec,
    artifact: str | Path,
    *,
    replicas: int = 1,
    followers: Sequence[InstanceSpec] = (),
    acks: str = "quorum",
    wal_dir: str | Path | None = None,
    trace_dir: str | Path | None = None,
    **options,
) -> NodeConfig:
    """The :class:`~repro.service.node.NodeConfig` that serves
    ``instance`` of a topology.

    ``options`` are config fields every instance shares.  Each
    instance exports its spans into the shared ``trace_dir`` under its
    own label, so a collector reassembles cross-process traces from
    one place, and owns a private WAL + checkpoint directory under
    ``wal_dir``, where a restart of the same (shard, replica) finds
    its durable state.  With a WAL and ``replicas > 1``, replica 0
    starts as the shard's primary and ships to ``followers`` (its
    siblings), acknowledging per ``acks``; the others start as
    followers.  The router re-elects on failure; a restarted stale
    primary is fenced by its higher-term sibling and steps down.
    """
    values = dict(
        input=str(artifact),
        host=instance.host,
        port=instance.port,
        log_interval=0.0,
        **options,
    )
    if trace_dir is not None:
        values.update(trace_dir=str(trace_dir), instance_label=instance.label)
    if wal_dir is not None:
        values["wal_dir"] = str(
            Path(wal_dir) / f"shard{instance.shard}-r{instance.replica}"
        )
        if replicas > 1 and instance.replica == 0:
            values.update(
                repl_role="primary",
                repl_follower=tuple(f"{f.host}:{f.port}" for f in followers),
                repl_acks=acks,
            )
        elif replicas > 1:
            values["repl_role"] = "follower"
    return NodeConfig(**values)


class ClusterManager:
    """Run a planned topology: subprocess instances + in-process router.

    Usable as a context manager; :meth:`stop` is idempotent and stops
    the router before the instances so in-flight fan-outs drain
    against live backends.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        *,
        workers: int = 4,
        router_cache_size: int = 4096,
        trace_dir: str | Path | None = None,
        wal_dir: str | Path | None = None,
        **options,
    ):
        """``options`` are :class:`~repro.service.node.NodeConfig`
        fields every instance shares (``cache_size``, the maintenance
        settings); see :func:`instance_config` for the rest."""
        self.spec = spec
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.processes: dict[str, InstanceProcess] = {
            instance.label: InstanceProcess(
                instance,
                instance_config(
                    instance,
                    spec.artifact_path(instance.shard),
                    replicas=spec.replicas,
                    followers=spec.instances_for(instance.shard)[1:],
                    acks=spec.acks,
                    wal_dir=wal_dir,
                    trace_dir=trace_dir,
                    workers=workers,
                    **options,
                ),
            )
            for instance in spec.instances
        }
        self._workers = workers
        self._router_cache_size = router_cache_size
        self.router_engine: RouterEngine | None = None
        self.router_server: SummaryQueryServer | None = None
        self._router = ExitStack()

    def start_instances(self, startup_timeout: float = 60.0) -> None:
        started: list[InstanceProcess] = []
        try:
            for process in self.processes.values():
                process.start(startup_timeout)
                started.append(process)
        except BaseException:
            for process in started:
                process.kill()
            raise

    def start_router(self, *, workers: int = 8) -> SummaryQueryServer:
        """Serve the router on the spec's router address, in-process."""
        if self.trace_dir is not None:
            # The router runs in-process: give it its own tracer +
            # span file alongside the instances' so a collector sees
            # the whole request tree in one directory.
            trace_to(self._router, "router", self.trace_dir)
        # The pool cap must stay below each instance's worker count:
        # pooled connections are persistent, and the server parks a
        # worker on every connection — capping at workers-1 keeps one
        # worker free for direct clients (status probes, debugging).
        self.router_engine = RouterEngine(
            self.spec,
            cache_size=self._router_cache_size,
            max_connections_per_replica=max(1, self._workers - 1),
        )
        self._router.callback(self.router_engine.close)
        self.router_server = SummaryQueryServer(
            self.router_engine,
            host=self.spec.router_host,
            port=self.spec.router_port,
            workers=workers,
        )
        self._router.callback(self.router_server.close)
        return self.router_server.start()

    def start(self, startup_timeout: float = 60.0) -> "ClusterManager":
        self.start_instances(startup_timeout)
        self.start_router()
        return self

    def stop(self) -> dict[str, int | None]:
        """Stop router then instances; returns exit codes by label."""
        self._router.close()
        return {
            label: process.stop()
            for label, process in self.processes.items()
        }

    def __enter__(self) -> "ClusterManager":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class LocalCluster:
    """An in-process cluster (tests): one :class:`Node` per instance,
    real router.

    ``spec`` carries the *actual* ephemeral ports the instance servers
    bound, so the router and any client address them normally.  The
    cluster owns ``workdir`` (shard artifacts, WAL directories) and
    removes it on :meth:`close`.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        nodes: dict[str, Node],
        router_server: SummaryQueryServer,
        router_engine: RouterEngine,
        workdir: tempfile.TemporaryDirectory,
    ):
        self.spec = spec
        self.nodes = nodes
        #: Per-instance servers and engines by label: a test drops a
        #: replica with ``servers[label].close()`` and reaches into its
        #: state (summary bytes, a forced step-down) without a wire
        #: round trip.
        self.servers = {label: node.server for label, node in nodes.items()}
        self.engines = {label: node.engine for label, node in nodes.items()}
        self.router_server = router_server
        self.router_engine = router_engine
        self._workdir = workdir

    @property
    def router_address(self) -> tuple[str, int]:
        return self.router_server.address

    def kill_instance(self, label: str) -> None:
        """Kill one replica's whole node as a SIGKILL would: server,
        replication shipper and background threads stop (clients see
        resets/refusals), and its WAL directory keeps exactly what its
        acknowledged writes left there (:meth:`Node.kill`)."""
        self.nodes[label].kill()

    def close(self) -> None:
        self.router_server.close()
        self.router_engine.close()
        for node in self.nodes.values():
            node.stop()
        for server in self.servers.values():  # any a test swapped in
            server.close()
        self._workdir.cleanup()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_local_cluster(
    representations: list,
    *,
    replicas: int = 1,
    seed: int = 0,
    n: int | None = None,
    cache_size: int = 4096,
    router_cache_size: int = 4096,
    breaker_threshold: int = 2,
    breaker_reset_s: float = 5.0,
    workers: int = 4,
    retry_policy=None,
    mutable: bool = False,
    acks: str = "quorum",
) -> LocalCluster:
    """Serve per-shard ``representations`` in-process on ephemeral
    ports and front them with a router.

    ``representations[s]`` is shard ``s``'s summary (as produced by
    summarizing :func:`repro.cluster.sharder.shard_graph` output with
    the same ``seed``).  Every replica is a :class:`Node` built by
    :func:`instance_config`, as :class:`ClusterManager` builds each
    subprocess, over the shard's artifact written to a temporary
    directory the returned cluster owns.  ``mutable=True`` gives each
    replica a WAL directory there (durable ingest); with
    ``replicas > 1`` replica 0 of each shard is primary and ships to
    its siblings, acknowledging writes per ``acks``.
    """
    if not representations:
        raise TopologyError("need at least one shard representation")
    workdir = tempfile.TemporaryDirectory(prefix="repro-local-cluster-")
    root = Path(workdir.name)
    nodes: dict[str, Node] = {}
    instances: list[InstanceSpec] = []
    try:
        for shard, rep in enumerate(representations):
            artifact = root / f"shard-{shard}.summary.txt"
            save_representation(artifact, rep)
            started: list[InstanceSpec] = []
            # Followers first: the primary's config names their ports.
            for replica in reversed(range(replicas)):
                node = Node(instance_config(
                    InstanceSpec(shard, replica, "127.0.0.1", 0),
                    artifact,
                    replicas=replicas,
                    followers=started[::-1],
                    acks=acks,
                    wal_dir=root / "wal" if mutable else None,
                    workers=workers,
                    cache_size=cache_size,
                ))
                instance = InstanceSpec(shard, replica, *node.start().address)
                nodes[instance.label] = node
                started.append(instance)
            instances += started[::-1]
        spec = ClusterSpec(
            shards=len(representations),
            replicas=replicas,
            seed=seed,
            router_host="127.0.0.1",
            router_port=0,
            instances=instances,
            n=n if n is not None else representations[0].n,
            breaker_threshold=breaker_threshold,
            breaker_reset_s=breaker_reset_s,
            acks=acks,
        )
        router_engine = RouterEngine(
            spec,
            cache_size=router_cache_size,
            retry_policy=retry_policy,
            max_connections_per_replica=max(1, workers - 1),
        )
        router_server = SummaryQueryServer(
            router_engine, port=0, workers=workers
        ).start()
        # The spec names real addresses only, so collectors can read it.
        spec.router_port = router_server.address[1]
    except BaseException:
        for node in nodes.values():
            node.stop()
        workdir.cleanup()
        raise
    return LocalCluster(
        spec, nodes, router_server, router_engine, workdir
    )


def probe_topology(spec: ClusterSpec, telemetry: dict) -> list[dict]:
    """One ``repro cluster status`` row per target — the router, then
    every instance — from a
    :func:`repro.obs.collect.pull_cluster_telemetry` result, so status
    costs one ``telemetry`` call per target and this function none.

    A row is ``{"target", "address", "up"}`` plus ``error`` when the
    target is down, or ``requests_total``, ``errors_total`` and
    ``p99_ms`` when it is up.  On a replicated topology an instance
    that reports the replication gauges adds ``role`` and ``term``,
    and a primary with followers ``max_follower_lag``.
    """
    targets = [("router", spec.router_host, spec.router_port)]
    targets += [(i.label, i.host, i.port) for i in spec.instances]
    rows: list[dict] = []
    for label, host, port in targets:
        row = {"target": label, "address": f"{host}:{port}"}
        rows.append(row)
        entry = telemetry.get(label) or {}
        registry = entry.get("registry")
        if not isinstance(registry, dict):
            row["up"] = False
            row["error"] = entry.get("error", "no telemetry")
            continue
        p99 = worst_p99(registry)
        row.update(
            up=True,
            requests_total=int(
                counter_total(registry, "service_requests_total")
            ),
            errors_total=int(counter_total(registry, "service_errors_total")),
            p99_ms=None if p99 is None else 1000.0 * p99,
        )
        role = series_value(registry, "repro_replication_role")
        if label == "router" or spec.replicas == 1 or role is None:
            continue
        row["role"] = "primary" if role else "follower"
        term = series_value(registry, "repro_replication_term")
        row["term"] = int(term or 0)
        lags = [
            series["value"]
            for series in registry.get("repro_replication_lag_lsns") or []
        ]
        if role and lags:
            row["max_follower_lag"] = int(max(lags))
    return rows
