"""One summary server, assembled from one config.

:class:`NodeConfig` holds one field per ``repro serve`` flag (the flags
themselves are defined here, by :func:`add_serve_arguments`) and
:class:`Node` puts a server together from it.  ``repro serve``,
:class:`~repro.cluster.manager.ClusterManager` (through
:meth:`NodeConfig.to_argv`) and
:func:`~repro.cluster.manager.start_local_cluster` all go through
these two, so an in-process node runs the production start order::

    load artifact -> WAL / checkpoint store / memory budget
      -> recover_engine -> compactor + maintenance (built, not started)
      -> tracer + span sink -> breaker -> server start
      -> WAL tail replay (background thread) -> configure_replication
      -> compactor + maintenance start

The ``replaying`` flag goes up before the server listens, so a read
that arrives during the replay answers ``degraded: true``; a primary
stamps its term only after the replay, so the term record follows
every recovered record in the log.
"""

from __future__ import annotations

import argparse
import os
import threading
from contextlib import ExitStack
from dataclasses import dataclass, fields
from pathlib import Path

from repro.core.serialization import load_representation
from repro.durability.compactor import WalCompactor
from repro.durability.recovery import recover_engine, replay_tail
from repro.durability.replication import ACKS_MODES, REPLICATION_ROLES
from repro.durability.wal import FSYNC_POLICIES, WriteAheadLog
from repro.dynamic.maintenance import MaintenanceTask
from repro.obs.exporters import SpanSink
from repro.obs.tracer import Tracer, set_instance_label, set_tracer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.guard import ResourceBudget
from repro.service.engine import QueryEngine
from repro.service.ingest import MutableQueryEngine
from repro.service.metrics import ServiceMetrics
from repro.service.server import SummaryQueryServer

__all__ = [
    "Node",
    "NodeConfig",
    "add_maintenance_arguments",
    "add_serve_arguments",
    "trace_to",
]


def add_maintenance_arguments(subparser: argparse.ArgumentParser) -> None:
    """Background compactness-maintenance flags shared by ``serve``
    and ``cluster start`` (which forwards them to every instance)."""
    group = subparser.add_argument_group("background maintenance")
    group.add_argument(
        "--maintenance-interval", type=float, default=0.0,
        help=(
            "seconds between background compactness-maintenance ticks "
            "re-summarizing the dirtiest regions (requires --wal-dir; "
            "0 disables; default 0)"
        ),
    )
    group.add_argument(
        "--maintenance-budget-seconds", type=float, default=1.0,
        help=(
            "wall-clock budget per maintenance tick, checked between "
            "passes (default 1.0; 0 = unlimited)"
        ),
    )
    group.add_argument(
        "--maintenance-budget-merges", type=int, default=None,
        help=(
            "deterministic merge cap per maintenance pass, recorded "
            "in the WAL for bit-identical replay (default: uncapped)"
        ),
    )
    group.add_argument(
        "--maintenance-max-supernodes", type=int, default=64,
        help=(
            "super-nodes dissolved per maintenance pass — the chunk "
            "size each epoch swap pays for (default 64)"
        ),
    )


def add_serve_arguments(serve: argparse.ArgumentParser) -> None:
    """Every ``repro serve`` flag; :class:`NodeConfig` has one field
    per flag, named by its ``dest``."""
    serve.add_argument("input", help="summary file (v1 text format)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument(
        "--workers", type=int, default=8,
        help="worker threads == max concurrent connections (default 8)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=4096,
        help="LRU neighborhood cache capacity in nodes (default 4096)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=10.0,
        help="per-request deadline in seconds (default 10)",
    )
    serve.add_argument(
        "--log-interval", type=float, default=30.0,
        help="seconds between periodic stats log lines (0 disables)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=None,
        help=(
            "bound on queued connections before new ones are shed "
            "with an 'overloaded' error (default: unbounded)"
        ),
    )
    serve.add_argument(
        "--degraded", action="store_true",
        help=(
            "answer khop/pagerank past their deadline with flagged "
            "partial/approximate results instead of timeout errors"
        ),
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=0,
        help=(
            "consecutive internal errors before the circuit breaker "
            "opens (0 disables the breaker)"
        ),
    )
    serve.add_argument(
        "--trace-dir", default=None,
        help=(
            "enable tracing and stream span records to a size-capped "
            "JSONL file in this directory (cluster collector input)"
        ),
    )
    serve.add_argument(
        "--instance-label", default=None,
        help=(
            "label stamped into span records and the telemetry op "
            "(e.g. shard0/r1); default: pid-<pid> when tracing"
        ),
    )
    serve.add_argument(
        "--wal-dir", default=None,
        help=(
            "enable the durable 'ingest' op: append mutations to a "
            "write-ahead log in this directory, recover checkpoint + "
            "WAL tail on startup (see docs/resilience.md)"
        ),
    )
    serve.add_argument(
        "--fsync", choices=FSYNC_POLICIES, default="always",
        help=(
            "WAL fsync policy: 'always' (fsync every append — the "
            "durability default), 'interval' (every --fsync-interval "
            "appends), 'never' (leave it to the OS)"
        ),
    )
    serve.add_argument(
        "--fsync-interval", type=int, default=8,
        help="appends between fsyncs under --fsync interval (default 8)",
    )
    serve.add_argument(
        "--wal-segment-bytes", type=int, default=4 << 20,
        help="rotate WAL segments at this size (default 4 MiB)",
    )
    serve.add_argument(
        "--compact-interval", type=float, default=30.0,
        help=(
            "seconds between background WAL-to-checkpoint compactions "
            "(0 disables the compactor; default 30)"
        ),
    )
    serve.add_argument(
        "--max-inflight-mutations", type=int, default=64,
        help=(
            "ingest admission cap: concurrent mutation batches beyond "
            "this are shed with an 'overloaded' error (default 64)"
        ),
    )
    serve.add_argument(
        "--ingest-memory-budget", type=float, default=None,
        help=(
            "park ingest (structured 'overloaded') once process RSS "
            "exceeds this many MiB; reads stay up (default: off)"
        ),
    )
    serve.add_argument(
        "--dedup-capacity", type=int, default=4096,
        help=(
            "ingest streams remembered for retry dedup, evicted in "
            "commit order past this (0 = unbounded; default 4096)"
        ),
    )
    add_maintenance_arguments(serve)
    serve.add_argument(
        "--repl-role", choices=REPLICATION_ROLES, default=None,
        help=(
            "join a per-shard replication group as this role "
            "(requires --wal-dir): a primary WAL-ships every commit "
            "to its --repl-follower peers; a follower applies the "
            "shipped stream and rejects direct ingest"
        ),
    )
    serve.add_argument(
        "--repl-follower", action="append", default=None,
        metavar="HOST:PORT",
        help=(
            "follower address to replicate to (repeatable; primary "
            "role only)"
        ),
    )
    serve.add_argument(
        "--repl-acks", choices=ACKS_MODES, default="quorum",
        help=(
            "when to acknowledge a write: 'quorum' — once a majority "
            "of the replica set holds it; 'leader' — once the local "
            "WAL holds it (default quorum)"
        ),
    )


@dataclass(frozen=True)
class NodeConfig:
    """One field per ``repro serve`` flag, with the flag's default.

    Construction runs :meth:`validate`, so a config that exists is one
    ``repro serve`` would accept, and it is checked before any file is
    opened.
    """

    input: str
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 8
    cache_size: int = 4096
    request_timeout: float = 10.0
    log_interval: float = 30.0
    max_pending: int | None = None
    degraded: bool = False
    breaker_threshold: int = 0
    trace_dir: str | None = None
    instance_label: str | None = None
    wal_dir: str | None = None
    fsync: str = "always"
    fsync_interval: int = 8
    wal_segment_bytes: int = 4 << 20
    compact_interval: float = 30.0
    max_inflight_mutations: int = 64
    ingest_memory_budget: float | None = None
    dedup_capacity: int = 4096
    maintenance_interval: float = 0.0
    maintenance_budget_seconds: float = 1.0
    maintenance_budget_merges: int | None = None
    maintenance_max_supernodes: int = 64
    repl_role: str | None = None
    repl_follower: tuple[str, ...] = ()
    repl_acks: str = "quorum"

    def __post_init__(self):
        self.validate()

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "NodeConfig":
        """The config of a parsed ``repro serve`` command line."""
        values = {f.name: getattr(args, f.name) for f in fields(cls)}
        values["repl_follower"] = tuple(values["repl_follower"] or ())
        return cls(**values)

    def to_argv(self) -> list[str]:
        """The ``repro serve`` arguments (after ``serve``) that parse
        back to this config; flags at their default are left out."""
        parser = argparse.ArgumentParser(add_help=False)
        add_serve_arguments(parser)
        argv: list[str] = []
        for action in parser._actions:
            value = getattr(self, action.dest)
            if not action.option_strings:  # the artifact
                argv.append(str(value))
                continue
            flag = action.option_strings[0]
            if isinstance(value, tuple):  # repeatable: --repl-follower
                for item in value:
                    argv += [flag, item]
            elif value != action.default:
                argv += [flag] if action.nargs == 0 else [flag, str(value)]
        return argv

    def validate(self) -> None:
        """Reject flag combinations ``repro serve`` cannot honour
        (:class:`ValueError` with the message the CLI prints)."""
        if self.maintenance_interval > 0 and self.wal_dir is None:
            raise ValueError(
                "--maintenance-interval requires --wal-dir (maintenance "
                "commits are WAL records)"
            )
        if self.repl_role is not None:
            if self.wal_dir is None:
                raise ValueError(
                    "--repl-role requires --wal-dir (replication ships "
                    "WAL records)"
                )
            for raw in self.repl_follower:
                _host_port(raw)
        if self.repl_follower and self.repl_role != "primary":
            raise ValueError(
                "--repl-follower only applies to --repl-role primary"
            )

    @property
    def followers(self) -> list[tuple[str, int]]:
        """``repl_follower`` as ``(host, port)`` pairs."""
        return [_host_port(raw) for raw in self.repl_follower]


def _host_port(raw: str) -> tuple[str, int]:
    host, sep, port = raw.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"--repl-follower {raw!r} is not HOST:PORT")
    return host, int(port)


def trace_to(
    stack: ExitStack, label: str, trace_dir: str | Path | None = None
) -> SpanSink | None:
    """Stamp ``label`` into span records and, with a ``trace_dir``,
    stream spans to a :class:`SpanSink` there.  ``stack`` closes the
    sink and puts the previous tracer and label back."""
    stack.callback(set_instance_label, set_instance_label(label))
    if trace_dir is None:
        return None
    sink = SpanSink(trace_dir, label)
    stack.callback(sink.close)
    stack.callback(set_tracer, set_tracer(Tracer(sink=sink.write)))
    return sink


class Node:
    """One summary server assembled from a :class:`NodeConfig`.

    :meth:`start` is all-or-nothing: when a step fails, what the
    earlier steps acquired is released before the error propagates.
    :meth:`stop` releases everything in the reverse order it was
    acquired; :meth:`kill` releases the same as a SIGKILL would,
    without the writes only a graceful shutdown makes.  The stdout
    lines are ``repro serve``'s.
    """

    def __init__(self, config: NodeConfig):
        self.config = config
        self.engine: QueryEngine | None = None
        self.server: SummaryQueryServer | None = None
        self._store = self._compactor = self._maintenance = None
        self._final_compact = True
        self._stack = ExitStack()

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def start(self) -> "Node":
        with ExitStack() as stack:
            self._start(stack)
            self._stack = stack.pop_all()
        return self

    def serve_forever(self) -> None:
        """Block until the server shuts down (SIGINT/SIGTERM or the
        ``shutdown`` op)."""
        self.server.serve_forever()

    def stop(self) -> None:
        """Release everything :meth:`start` acquired (idempotent)."""
        self._stack.close()

    def kill(self) -> None:
        """Stop like a SIGKILL: release what :meth:`start` acquired,
        but leave the WAL directory as the last acknowledged write
        left it — the compactor stops without its final fold into a
        checkpoint.  Idempotent, like :meth:`stop`."""
        self._final_compact = False
        self._stack.close()

    def _start(self, stack: ExitStack) -> None:
        config = self.config
        # An unreadable artifact fails here, before anything is created.
        representation = load_representation(config.input)
        pending, report, tail_lsns = (), None, 0
        if config.wal_dir is None:
            self.engine = QueryEngine(
                representation,
                cache_size=config.cache_size,
                degraded=config.degraded,
            )
        else:
            wal, pending, report = self._recover(representation, stack)
            # ``pending`` streams lazily (a multi-GB tail must not
            # materialize), so report the LSN span instead of a count.
            tail_lsns = max(0, wal.last_lsn - report.checkpoint_lsn)
        rep = self.engine.representation
        print(
            f"loaded summary: n={rep.n}, supernodes={rep.num_supernodes}, "
            f"superedges={len(rep.summary_edges)}, "
            f"corrections={rep.num_corrections}"
        )
        if report is not None:
            print(
                f"durable ingest on: wal-dir={config.wal_dir} "
                f"fsync={config.fsync} "
                f"checkpoint_lsn={report.checkpoint_lsn} "
                f"wal_tail={tail_lsns} lsn(s)"
            )
        if config.trace_dir or config.instance_label:
            label = config.instance_label or f"pid-{os.getpid()}"
            sink = trace_to(stack, label, config.trace_dir)
            if sink is not None:
                print(f"tracing to {sink.path} as {label!r}")
        breaker = None
        if config.breaker_threshold > 0:
            breaker = CircuitBreaker(
                failure_threshold=config.breaker_threshold
            )
        if tail_lsns > 0:
            # Up before the server listens, so the very first query
            # already answers ``degraded: true``.
            self.engine.replaying = True
        self.server = SummaryQueryServer(
            self.engine,
            host=config.host,
            port=config.port,
            workers=config.workers,
            request_timeout=config.request_timeout,
            log_interval=config.log_interval or None,
            max_pending=config.max_pending,
            breaker=breaker,
        )
        stack.callback(self.server.close)
        self.server.start()
        if tail_lsns > 0:
            def drain() -> None:
                replay_tail(self.engine, pending, report)
                self._recovered(report)

            replay = threading.Thread(
                target=drain, name="repro-wal-replay", daemon=True
            )
            replay.start()
            stack.callback(replay.join, timeout=30.0)
        else:
            self._recovered(report)
        if self._compactor is not None:
            self._compactor.start()
        if self._maintenance is not None:
            self._maintenance.start()
            print(
                f"background maintenance on: "
                f"interval={config.maintenance_interval}s "
                f"max_supernodes={config.maintenance_max_supernodes}",
                flush=True,
            )

    def _recover(self, representation, stack: ExitStack):
        """WAL, checkpoint store and memory budget, then the recovered
        engine with its compactor and maintenance task (built, not
        started); returns ``(wal, pending_records, report)``."""
        config = self.config
        metrics = ServiceMetrics()
        wal_dir = Path(config.wal_dir)
        wal = WriteAheadLog(
            wal_dir,
            fsync=config.fsync,
            fsync_interval=config.fsync_interval,
            segment_bytes=config.wal_segment_bytes,
            registry=metrics.registry,
        )
        stack.callback(wal.close)
        self._store = CheckpointStore(wal_dir / "checkpoints")
        budget = None
        if config.ingest_memory_budget is not None:
            budget = ResourceBudget(
                memory_budget_mb=config.ingest_memory_budget
            ).start()
            stack.callback(budget.stop)
        self.engine, pending, report = recover_engine(
            representation,
            wal,
            self._store,
            engine_factory=lambda dynamic: MutableQueryEngine(
                dynamic,
                wal=wal,
                budget=budget,
                max_inflight=config.max_inflight_mutations,
                dedup_capacity=config.dedup_capacity,
                cache_size=config.cache_size,
                metrics=metrics,
                degraded=config.degraded,
            ),
        )
        stack.callback(self.engine.stop_replication)
        if config.compact_interval > 0:
            # Seed with the recovered checkpoint's LSN so the first
            # pass doesn't re-cut a checkpoint the load already covers.
            self._compactor = WalCompactor(
                self.engine, wal, self._store,
                interval=config.compact_interval,
                last_lsn=report.checkpoint_lsn,
            )
            stack.callback(
                lambda: self._compactor.stop(
                    final_compact=self._final_compact
                )
            )
        if config.maintenance_interval > 0:
            maintenance_budget = None
            if (
                config.maintenance_budget_seconds > 0
                or config.maintenance_budget_merges is not None
            ):
                maintenance_budget = ResourceBudget(
                    time_budget=config.maintenance_budget_seconds or None,
                    max_merges=config.maintenance_budget_merges,
                )
            self._maintenance = MaintenanceTask(
                self.engine,
                interval=config.maintenance_interval,
                budget=maintenance_budget,
                max_supernodes=config.maintenance_max_supernodes,
            )
            stack.callback(self._maintenance.stop)
        return wal, pending, report

    def _recovered(self, report) -> None:
        """After the WAL tail (if any) has replayed: report it, then
        join replication.  A primary's configure stamps its term at
        the log head, which must come after every recovered record."""
        if report is not None:
            print(report.describe(), flush=True)
        config = self.config
        if config.repl_role is None:
            return
        self.engine.configure_replication(
            role=config.repl_role,
            followers=config.followers,
            acks=config.repl_acks,
            store=self._store,
        )
        print(
            f"replication on: role={config.repl_role} "
            f"acks={config.repl_acks} "
            f"followers={len(config.followers)} term={self.engine.term}",
            flush=True,
        )
