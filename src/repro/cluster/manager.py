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
"""

from __future__ import annotations

import logging
import os
import re
import signal
import subprocess
import sys
import threading
from collections import deque
from pathlib import Path

from repro.cluster.router import RouterEngine
from repro.cluster.topology import ClusterSpec, InstanceSpec, TopologyError
from repro.obs.metrics import counter_total, series_value, worst_p99
from repro.service.engine import QueryEngine
from repro.service.server import SummaryQueryServer

__all__ = [
    "InstanceProcess",
    "ClusterManager",
    "LocalCluster",
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

    def __init__(
        self,
        instance: InstanceSpec,
        artifact: Path,
        *,
        workers: int = 4,
        cache_size: int = 4096,
        extra_args: list[str] | None = None,
    ):
        self.instance = instance
        self.artifact = Path(artifact)
        self._workers = workers
        self._cache_size = cache_size
        self._extra_args = list(extra_args or [])
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
        command = [
            sys.executable, "-m", "repro", "serve", str(self.artifact),
            "--host", self.instance.host,
            "--port", str(self.instance.port),
            "--workers", str(self._workers),
            "--cache-size", str(self._cache_size),
            "--log-interval", "0",
            *self._extra_args,
        ]
        self._proc = subprocess.Popen(
            command,
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
        cache_size: int = 4096,
        router_cache_size: int = 4096,
        instance_args: list[str] | None = None,
        trace_dir: str | Path | None = None,
        wal_dir: str | Path | None = None,
    ):
        self.spec = spec
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.wal_dir = Path(wal_dir) if wal_dir is not None else None

        def extra_args(instance: InstanceSpec) -> list[str]:
            args = list(instance_args or [])
            if self.trace_dir is not None:
                # Every instance exports its spans into the shared
                # directory under its own label, so the collector can
                # reassemble cross-process traces from one place.
                args += [
                    "--trace-dir", str(self.trace_dir),
                    "--instance-label", instance.label,
                ]
            if self.wal_dir is not None:
                # Each instance owns a private WAL + checkpoint dir;
                # a restart of the same (shard, replica) finds its own
                # durable state there.
                args += [
                    "--wal-dir",
                    str(
                        self.wal_dir
                        / f"shard{instance.shard}-r{instance.replica}"
                    ),
                ]
                if spec.replicas > 1:
                    # Static replication wiring: replica 0 starts as
                    # each shard's primary, its siblings as followers.
                    # The router re-elects on failure; a restarted
                    # stale primary is fenced by its higher-term
                    # sibling and steps down on its own.
                    if instance.replica == 0:
                        args += ["--repl-role", "primary"]
                        for sibling in spec.instances_for(instance.shard):
                            if sibling.replica != instance.replica:
                                args += [
                                    "--repl-follower",
                                    f"{sibling.host}:{sibling.port}",
                                ]
                        args += ["--repl-acks", spec.acks]
                    else:
                        args += ["--repl-role", "follower"]
            return args

        self.processes: dict[str, InstanceProcess] = {
            instance.label: InstanceProcess(
                instance,
                spec.artifact_path(instance.shard),
                workers=workers,
                cache_size=cache_size,
                extra_args=extra_args(instance),
            )
            for instance in spec.instances
        }
        self._workers = workers
        self._router_cache_size = router_cache_size
        self.router_engine: RouterEngine | None = None
        self.router_server: SummaryQueryServer | None = None
        self._router_sink = None
        self._previous_tracer = None

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
        if self.trace_dir is not None and self._router_sink is None:
            # The router runs in-process: give it its own tracer +
            # span file alongside the instances' so a collector sees
            # the whole request tree in one directory.
            from repro.obs import tracer as obs_tracer
            from repro.obs.exporters import SpanSink

            obs_tracer.set_instance_label("router")
            self._router_sink = SpanSink(self.trace_dir, "router")
            self._previous_tracer = obs_tracer.set_tracer(
                obs_tracer.Tracer(sink=self._router_sink.write)
            )
        # The pool cap must stay below each instance's worker count:
        # pooled connections are persistent, and the server parks a
        # worker on every connection — capping at workers-1 keeps one
        # worker free for direct clients (status probes, debugging).
        self.router_engine = RouterEngine(
            self.spec,
            cache_size=self._router_cache_size,
            max_connections_per_replica=max(1, self._workers - 1),
        )
        self.router_server = SummaryQueryServer(
            self.router_engine,
            host=self.spec.router_host,
            port=self.spec.router_port,
            workers=workers,
        )
        return self.router_server.start()

    def start(self, startup_timeout: float = 60.0) -> "ClusterManager":
        self.start_instances(startup_timeout)
        self.start_router()
        return self

    def stop(self) -> dict[str, int | None]:
        """Stop router then instances; returns exit codes by label."""
        if self.router_server is not None:
            self.router_server.close()
            self.router_server = None
        if self.router_engine is not None:
            self.router_engine.close()
            self.router_engine = None
        if self._previous_tracer is not None:
            from repro.obs.tracer import set_tracer

            set_tracer(self._previous_tracer)
            self._previous_tracer = None
        if self._router_sink is not None:
            self._router_sink.close()
            self._router_sink = None
        return {
            label: process.stop()
            for label, process in self.processes.items()
        }

    def __enter__(self) -> "ClusterManager":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class LocalCluster:
    """An in-process cluster (tests): servers in threads, real router.

    ``spec`` carries the *actual* ephemeral ports the instance servers
    bound, so the router and any client address them normally.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        servers: dict[str, SummaryQueryServer],
        router_server: SummaryQueryServer,
        router_engine: RouterEngine,
        engines: dict[str, object] | None = None,
    ):
        self.spec = spec
        self.servers = servers
        self.router_server = router_server
        self.router_engine = router_engine
        #: Per-instance engines by label — lets replication tests
        #: reach into a replica's state directly (compare summary
        #: bytes, force a step-down) without a wire round trip.
        self.engines: dict[str, object] = dict(engines or {})

    @property
    def router_address(self) -> tuple[str, int]:
        return self.router_server.address

    def kill_instance(self, label: str) -> None:
        """Hard-stop one replica (its clients see resets/refusals)."""
        self.servers[label].close(timeout=5.0)

    def close(self) -> None:
        self.router_server.close()
        self.router_engine.close()
        for engine in self.engines.values():
            stop_replication = getattr(engine, "stop_replication", None)
            if stop_replication is not None:
                stop_replication()
        for server in self.servers.values():
            server.close()

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
    the same ``seed``).  Each replica of a shard gets its own engine
    over the shared representation, so per-instance metrics stay
    isolated exactly as they would across processes.

    ``mutable=True`` serves each shard through a
    :class:`~repro.service.ingest.MutableQueryEngine` (no WAL — this
    is the in-process routing-semantics testbed, not the durable
    path).  With ``replicas > 1`` the replicas of each shard are
    wired into a replication group over their real sockets: replica 0
    primary, siblings followers, write acknowledgement per ``acks``.
    """
    from repro.cluster.topology import InstanceSpec as _Instance

    shards = len(representations)
    if shards < 1:
        raise TopologyError("need at least one shard representation")
    servers: dict[str, SummaryQueryServer] = {}
    engines: dict[str, object] = {}
    instances: list[InstanceSpec] = []
    try:
        for shard, rep in enumerate(representations):
            shard_group: list[tuple[InstanceSpec, object]] = []
            for replica in range(replicas):
                if mutable:
                    from repro.dynamic.summary import DynamicGraphSummary
                    from repro.service.ingest import MutableQueryEngine

                    engine = MutableQueryEngine(
                        DynamicGraphSummary.from_representation(rep),
                        cache_size=cache_size,
                    )
                else:
                    engine = QueryEngine(rep, cache_size=cache_size)
                server = SummaryQueryServer(
                    engine, port=0, workers=workers
                ).start()
                host, port = server.address
                instance = _Instance(
                    shard=shard, replica=replica, host=host, port=port
                )
                servers[instance.label] = server
                engines[instance.label] = engine
                instances.append(instance)
                shard_group.append((instance, engine))
            if mutable and replicas > 1:
                # Wire the shard's replication group now that every
                # sibling's ephemeral port is known: replica 0
                # primary, the rest followers (same convention as
                # ClusterManager's subprocess flags).
                for _, follower_engine in shard_group[1:]:
                    follower_engine.configure_replication(
                        role="follower"
                    )
                shard_group[0][1].configure_replication(
                    role="primary",
                    followers=[
                        inst.address for inst, _ in shard_group[1:]
                    ],
                    acks=acks,
                )
        spec = ClusterSpec(
            shards=shards,
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
        for engine in engines.values():
            stop_replication = getattr(engine, "stop_replication", None)
            if stop_replication is not None:
                stop_replication()
        for server in servers.values():
            server.close()
        raise
    return LocalCluster(
        spec, servers, router_server, router_engine, engines=engines
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
