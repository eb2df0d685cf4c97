"""Consistent-hash query router with replica failover.

The cluster front-end: a :class:`RouterEngine` speaks the *same*
request-dict contract as :class:`repro.service.engine.QueryEngine`
(``query`` / ``query_many`` / ``metrics``), so the existing
:class:`~repro.service.server.SummaryQueryServer` serves it unchanged
— clients connect to the router with the unmodified wire protocol and,
for every op but ``pagerank`` (a shard-local approximation, below),
cannot tell it from a single server.

Routing semantics
-----------------
* ``neighbors`` / ``degree`` / ``pagerank`` — forwarded to the shard
  that owns the node under the seeded keyed hash
  (:meth:`ClusterSpec.owner`).  Shard artifacts carry every edge
  incident to their owned nodes (:mod:`repro.cluster.sharder`), so
  ``neighbors``/``degree`` answers are bit-identical to a
  single-server run.  ``pagerank`` is the shard-local Algorithm 7
  score over the shard's 1-hop-closed subgraph — an approximation of
  the global score (exact distributed PageRank needs cross-shard
  iteration; see docs/serving.md).
* ``khop`` — a router-driven level-synchronous BFS: each level's
  frontier is grouped by owning shard and fetched with batched
  ``neighbors`` fan-out, merged through a router-side LRU so hot
  neighborhoods cross the wire once.  Distances are level-exact, so
  the merged answer is bit-identical to a single server's.
* ``batch`` — split by owning shard, sub-batches fan out in parallel
  and may return in any order; responses are re-assembled by original
  position so the client's per-request ordering and ids are
  preserved exactly.
* ``ingest`` — each mutation goes to the owner of *each* endpoint
  (shards keep the 1-hop closure of their owned nodes), in a
  two-phase prepare/commit fan-out whose sub-batches reuse the
  client's ``stream``/``seq``, so a retry dedups per shard (see
  :meth:`RouterEngine._ingest`).  With ``replicas > 1`` each
  sub-batch goes to the shard's current **primary**, which ships its
  WAL to its followers; on a dead or demoted primary the router
  elects a new one and resends (:class:`ShardPool`, and
  docs/resilience.md "Replication & failover").
* ``telemetry`` — the router's identity and registry snapshot, with
  one ``router_breaker_state{instance}`` gauge per instance; it makes
  no outbound call.  The cluster collector (:mod:`repro.obs.collect`)
  pairs it with each instance's own ``telemetry`` answer to build the
  cluster-wide view.

Plan and executor
-----------------
The routing decisions are pure module functions over plain values —
:func:`plan_batch` (which requests go to which shard, which are
answered locally), :func:`plan_ingest` (each mutation to the owner of
each endpoint), :func:`first_refusal` (which shard's refusal of an
ingest the client sees), :func:`chunks` (wire-sized sub-batches) and
:func:`khop_step` (one BFS level).  :class:`RouterEngine` only carries
out what they return: locks, threads, retries, spans and metrics.
Every outbound connection is made by one ``connect(host, port,
timeout)`` callable (default :func:`repro.service.client.connect`, a
socket client); a test passes another to run whole clusters in
process.

When tracing is on, every outbound shard call runs under a
``router:fanout`` span whose context rides the wire (the ``trace``
request field), so shard-side ``service:request`` spans parent under
it and ``repro cluster trace <id>`` can reassemble the full tree.

Failover states
---------------
Every instance gets a lazily-grown connection pool guarded by one
:class:`~repro.resilience.breaker.CircuitBreaker` — **healthy**
(closed: in rotation), **ejected** (open after ``breaker_threshold``
consecutive transport failures: skipped until ``breaker_reset_s``
elapses) or **probing** (half-open: one request decides).  A request
sweeps the owning shard's replicas round-robin, failing over on
transport errors, and sweeps retry under the configured
:class:`~repro.resilience.retry.RetryPolicy`.  Only when *every*
replica of a shard is down does the client see an effect: a
structured ``unavailable`` error for single-shard ops, or a partial
answer flagged ``"degraded": true`` for a ``khop`` whose BFS crossed
the dead shard.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import random
import re
import threading
import time
from typing import Callable

from repro.cluster.topology import ClusterSpec, InstanceSpec, TopologyError
from repro.durability import replication
from repro.obs.context import TraceContext
from repro.obs.tracer import get_tracer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.retry import (
    DeadlineExceeded,
    RetriesExhausted,
    RetryPolicy,
    call_with_retry,
)
from repro.service.client import ServiceError, connect as socket_connect
from repro.service.engine import LRUCache, OPS, QueryError, QueryTimeout
from repro.service.ingest import parse_mutations
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    MAX_BATCH_REQUESTS,
    ProtocolError,
    error_response,
)

__all__ = [
    "BREAKER_STATES",
    "RouterEngine",
    "ShardDownError",
    "ReplicaPool",
    "ShardPool",
    "check_node",
    "chunks",
    "first_refusal",
    "khop_step",
    "plan_batch",
    "plan_ingest",
]

logger = logging.getLogger("repro.cluster")

#: Ops the router forwards whole to the owning shard.
_SINGLE_SHARD_OPS = ("neighbors", "degree", "pagerank")

#: Everything the router answers: the read ops plus ``ingest``
#: (accepted only when the backing shards run mutable engines).
ROUTER_OPS = OPS + ("ingest",)

#: ``router_breaker_state{instance}`` gauge values: the index of the
#: instance breaker's state in this tuple.
BREAKER_STATES = (
    CircuitBreaker.CLOSED, CircuitBreaker.HALF_OPEN, CircuitBreaker.OPEN,
)

#: Transport-level failures that trigger failover to a sibling
#: replica (``OSError`` covers ``ConnectionError`` and timeouts).
_FAILOVER_ERRORS = (OSError, ProtocolError)


# -- the plan: pure routing decisions ------------------------------------
def _in_range(node: int, n: int) -> bool:
    return 0 <= node < n


def check_node(node: int, n: int) -> None:
    """Refuse a node outside ``[0, n)`` with the engine's error."""
    if not _in_range(node, n):
        raise QueryError("bad_request", f"node {node} out of range [0, {n})")


def plan_batch(
    requests: list[dict], n: int, owner: Callable[[int], int]
) -> tuple[dict[int, list[int]], list[int]]:
    """Split validated batch items into ``(by_shard, local)`` index
    lists.

    ``neighbors``/``degree``/``pagerank`` items on an in-range node go
    to ``owner(node)``; everything else (``khop``, ``ping``,
    ``telemetry``, out-of-range nodes) stays local, where the router
    answers or rejects it exactly as a single engine would.
    """
    by_shard: dict[int, list[int]] = {}
    local: list[int] = []
    for index, request in enumerate(requests):
        if request["op"] in _SINGLE_SHARD_OPS and _in_range(
            request["node"], n
        ):
            by_shard.setdefault(owner(request["node"]), []).append(index)
        else:
            local.append(index)
    return by_shard, local


def plan_ingest(
    mutations: list, n: int, owner: Callable[[int], int]
) -> dict[int, list[int]]:
    """The batch indices of the ``[sign, u, v]`` mutations each shard
    applies, in batch order: every mutation goes to the owner of
    ``u`` and the owner of ``v`` (once when they are the same shard),
    so every shard keeps the 1-hop closure of its owned nodes.
    Refuses the whole batch as one engine would
    (:func:`~repro.service.ingest.parse_mutations`)."""
    per_shard: dict[int, list[int]] = {}
    for index, (__, u, v) in enumerate(parse_mutations(mutations, n)):
        for shard in sorted({owner(u), owner(v)}):
            per_shard.setdefault(shard, []).append(index)
    return per_shard


#: How an engine names the first mutation of a batch it refuses.
_REFUSAL = re.compile(r"mutation #(\d+): ")


def first_refusal(
    errors: dict[int, Exception], plan: dict[int, list[int]]
) -> Exception:
    """The one error an ingest fan-out that failed with ``errors``
    (shard -> what its sub-batch raised) answers with, given the
    :func:`plan_ingest` ``plan`` that split the batch.

    A shard refusing its sub-batch names the mutation by its index
    there; mapped back through ``plan``, the lowest batch index wins,
    and the refusal is relayed under it.  That is one engine's answer:
    both owners of an edge see the same earlier toggles of it, so the
    batch's first inapplicable mutation is some shard's first.  With
    no refusal, the error of the lowest shard is relayed.
    """
    refusals = []
    for shard, exc in errors.items():
        match = (
            _REFUSAL.match(exc.message)
            if isinstance(exc, ServiceError) and exc.type == "bad_request"
            else None
        )
        if match:
            index = plan[shard][int(match.group(1))]
            refusals.append((index, exc.message[match.end():]))
    if refusals:
        index, reason = min(refusals)
        return QueryError("bad_request", f"mutation #{index}: {reason}")
    return errors[min(errors)]


def chunks(items: list) -> list[list]:
    """``items`` cut into sub-batches the protocol accepts."""
    return [
        items[start:start + MAX_BATCH_REQUESTS]
        for start in range(0, len(items), MAX_BATCH_REQUESTS)
    ]


def khop_step(
    frontier: list[int],
    distances: dict[int, int],
    expansions: dict[int, tuple[int, ...]],
    depth: int,
) -> dict[int, int]:
    """One BFS level: the nodes first reached at ``depth`` (absent
    from ``distances``), in discovery order — the keys are the next
    frontier, every value is ``depth``."""
    reached: dict[int, int] = {}
    for u in frontier:
        for v in expansions[u]:
            if v not in distances:
                reached[v] = depth
    return reached


# -- the executor: pools, failover, fan-out ------------------------------
class ShardDownError(QueryError):
    """Every replica of a shard is unreachable; becomes a structured
    ``unavailable`` error on the wire."""

    def __init__(self, shard: int, replicas: int):
        super().__init__(
            "unavailable",
            f"shard {shard} is unavailable "
            f"(all {replicas} replica(s) down)",
        )
        self.shard = shard


class _SweepFailed(ConnectionError):
    """One full pass over a shard's replicas found no healthy one."""


class ReplicaPool:
    """Connection pool + circuit breaker for one instance.

    Clients come from ``connect(host, port, timeout)``, are created on
    demand, reused via a free-list, and discarded when their stream
    can no longer be trusted.  All methods are thread-safe; the
    breaker is the instance's health state.

    The pool holds at most ``max_connections`` open connections and
    makes callers *wait* for a free one rather than opening more.
    The cap matters: :class:`~repro.service.server.SummaryQueryServer`
    dedicates a worker thread to each connection for that connection's
    lifetime, and pooled connections live forever — so a pool wider
    than the instance's worker count would park its excess connections
    in the accept queue unserved, and every request sent on one would
    stall until the socket timeout ejected a perfectly healthy
    replica.
    """

    def __init__(
        self,
        instance: InstanceSpec,
        *,
        breaker_threshold: int,
        breaker_reset_s: float,
        max_connections: int = 4,
        connect=socket_connect,
    ):
        self.instance = instance
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            reset_timeout=breaker_reset_s,
        )
        # Outlasts a primary's whole quorum wait plus one ship round:
        # a socket timeout that fired first would turn its structured
        # ``unavailable`` into a transport failure — a charged
        # breaker, a re-election, and a resend into a second wait.
        self._timeout = (
            replication.QUORUM_TIMEOUT_S + replication.FOLLOWER_TIMEOUT_S
        )
        self._connect = connect
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._max = max(1, max_connections)
        self._open = 0  # connections in existence (free + leased)
        self._free: list = []
        self._closed = False

    def _acquire(self):
        deadline = time.monotonic() + self._timeout
        with self._cond:
            while True:
                if self._closed:
                    raise ConnectionError("replica pool is closed")
                if self._free:
                    return self._free.pop()
                if self._open < self._max:
                    self._open += 1
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"no free connection to {self.instance.label} "
                        f"within {self._timeout:.1f}s "
                        f"(cap {self._max})"
                    )
                self._cond.wait(remaining)
        host, port = self.instance.address
        try:
            return self._connect(host, port, self._timeout)
        except BaseException:
            self._forget()
            raise

    def _forget(self) -> None:
        """Account for a connection leaving existence."""
        with self._cond:
            self._open -= 1
            self._cond.notify()

    def _discard(self, client) -> None:
        self._forget()
        client.close()

    def _release(self, client) -> None:
        with self._cond:
            if not self._closed and client.usable:
                self._free.append(client)
                self._cond.notify()
                return
        self._discard(client)

    def request(self, op: str, **params):
        """One request on a pooled connection.

        Raises :class:`ServiceError` for a structured ``ok: false``
        answer (the replica is alive — not a failover signal) and
        transport errors (:data:`_FAILOVER_ERRORS`) when the replica
        is unreachable or desynchronized.
        """
        client = self._acquire()
        try:
            result = client.request(op, **params)
        except ServiceError:
            self._release(client)  # the connection itself is fine
            raise
        except BaseException:
            self._discard(client)
            raise
        self._release(client)
        return result

    def try_repl_status(self) -> dict | None:
        """Best-effort ``repl_status`` probe (``None`` for dead or
        read-only instances); breaker-neutral, and deliberately *not*
        gated on the breaker — promotion must be able to probe an
        ejected replica."""
        try:
            snap = self.request("repl_status")
            return snap if isinstance(snap, dict) else None
        except (ServiceError, *_FAILOVER_ERRORS):
            return None

    def close(self) -> None:
        with self._cond:
            self._closed = True
            free, self._free = self._free, []
            self._open -= len(free)
            self._cond.notify_all()
        for client in free:
            client.close()


class ShardPool:
    """The replicas of one shard, swept round-robin with failover.

    Reads sweep every replica (each serves the same artifact).
    Writes (``request("ingest", ...)``) are **primary-routed** on a
    replicated shard: the pool tracks which replica is the shard's
    primary and at what term, and on a dead or demoted primary runs
    the promotion protocol — probe live replicas' ``repl_status``,
    adopt an existing primary at a higher term, or promote the
    most-caught-up follower with a strictly higher term.  One router
    per shard is assumed: two routers probing the same replicas
    compute the same new term and may promote different replicas, and
    equal terms fence neither.
    """

    def __init__(
        self,
        shard: int,
        replicas: list[ReplicaPool],
        *,
        retry_policy: RetryPolicy,
        metrics: ServiceMetrics,
        seed: int = 0,
        acks: str = "quorum",
    ):
        if not replicas:
            raise TopologyError(f"shard {shard} has no replicas")
        self.shard = shard
        self.replicas = replicas
        self._retry_policy = retry_policy
        self._metrics = metrics
        self._rng = random.Random(seed * 1000003 + shard)
        self._lock = threading.Lock()
        self._next = 0
        #: Index of the replica currently believed to be the shard's
        #: primary, and the replication term it was last seen or
        #: promoted at.  Replica 0 starts as primary by convention
        #: (matching :func:`repro.cluster.manager.cluster_commands`).
        self.primary = 0
        self.term = 0
        self._acks = acks
        self._promote_lock = threading.Lock()

    def _rotation(self) -> list[ReplicaPool]:
        with self._lock:
            start = self._next
            self._next = (self._next + 1) % len(self.replicas)
        return [
            self.replicas[(start + k) % len(self.replicas)]
            for k in range(len(self.replicas))
        ]

    def _record_failure(self, pool: ReplicaPool, exc: Exception) -> None:
        opened_before = pool.breaker.times_opened
        pool.breaker.record_failure()
        registry = self._metrics.registry
        registry.counter(
            "router_failover_total", shard=str(self.shard)
        ).inc()
        if pool.breaker.times_opened > opened_before:
            registry.counter(
                "router_ejections_total", instance=pool.instance.label
            ).inc()
            logger.warning(
                "ejected replica %s after repeated failures (%s: %s)",
                pool.instance.label, type(exc).__name__, exc,
            )

    def request(self, op: str, **params):
        """Forward one request, retrying attempts under the retry
        policy; raises :class:`ShardDownError` once it is exhausted.

        An ``ingest`` on a replicated shard goes to the primary
        (:meth:`_ingest_attempt`); everything else — including the
        lone replica's ``ingest``, which *is* the primary — sweeps
        the replicas (:meth:`_sweep`).
        """
        if op == "ingest" and len(self.replicas) > 1:
            attempt, label = self._ingest_attempt, "router_ingest"
        else:
            attempt, label = self._sweep, "router_shard"
        try:
            return call_with_retry(
                lambda: attempt(op, params),
                policy=self._retry_policy,
                retry_on=(_SweepFailed,),
                rng=self._rng,
                label=f"{label}_{self.shard}",
            )
        except (RetriesExhausted, DeadlineExceeded) as exc:
            self._metrics.registry.counter(
                "router_shard_down_total", shard=str(self.shard)
            ).inc()
            raise ShardDownError(self.shard, len(self.replicas)) from exc

    def _sweep(self, op: str, params: dict):
        """One pass over the rotation; transport failures fail over to
        the next sibling."""
        last: Exception | None = None
        for pool in self._rotation():
            if not pool.breaker.allow():
                continue
            try:
                result = pool.request(op, **params)
            except ServiceError:
                # The replica answered; its verdict stands for the
                # whole shard (every replica serves the same artifact).
                pool.breaker.record_success()
                raise
            except _FAILOVER_ERRORS as exc:
                self._record_failure(pool, exc)
                last = exc
                continue
            pool.breaker.record_success()
            return result
        raise _SweepFailed(
            f"shard {self.shard}: no healthy replica"
            + (f" (last error: {last})" if last else "")
        )

    def _ingest_attempt(self, op: str, params: dict):
        """One pass: try the tracked primary; on a transport failure
        or a ``not_primary``/``fenced`` verdict, re-elect and retry
        against the new primary.  Bounded so a shard with no
        promotable replica degrades to :class:`_SweepFailed` (and,
        once the retry policy is exhausted, ``unavailable``)."""
        for _ in range(len(self.replicas) + 1):
            pool = self.replicas[self.primary]
            if not pool.breaker.allow():
                if not self.ensure_primary():
                    break
                continue
            try:
                result = pool.request(op, **params)
            except ServiceError as exc:
                # The replica answered — the connection is healthy.
                pool.breaker.record_success()
                if exc.type in ("not_primary", "fenced"):
                    # Our notion of the primary is stale (it stepped
                    # down, or a sibling holds a higher term).
                    if not self.ensure_primary():
                        break
                    continue
                raise
            except _FAILOVER_ERRORS as exc:
                self._record_failure(pool, exc)
                if not self.ensure_primary():
                    break
                continue
            pool.breaker.record_success()
            return result
        raise _SweepFailed(
            f"shard {self.shard}: no reachable primary and no "
            "promotable replica"
        )

    def ensure_primary(self) -> bool:
        """Re-elect the shard's primary; returns whether one is known.

        Probes every replica's ``repl_status`` (breaker-neutral — a
        just-ejected survivor must still be electable) and lets
        :func:`~repro.durability.replication.elect` adopt a live
        primary or pick a replica to promote; a promotion is one
        ``replicate {promote: true}`` frame to that replica.
        """
        with self._promote_lock:
            statuses = [
                (index, status)
                for index, pool in enumerate(self.replicas)
                if (status := pool.try_repl_status()) is not None
            ]
            verdict = replication.elect(
                statuses,
                known_term=self.term,
                replicas=len(self.replicas),
                acks=self._acks,
            )
            if verdict is None:
                return False
            if verdict.action == "adopt":
                self.primary, self.term = verdict.index, verdict.term
                self._gauge_term()
                return True
            candidate, new_term = verdict.index, verdict.term
            followers = [
                [pool.instance.host, pool.instance.port]
                for index, pool in enumerate(self.replicas)
                if index != candidate
            ]
            try:
                self.replicas[candidate].request(
                    "replicate",
                    term=new_term,
                    promote=True,
                    followers=followers,
                    acks=self._acks,
                )
            except (ServiceError, *_FAILOVER_ERRORS) as exc:
                logger.warning(
                    "shard %d: promotion of %s to term %d failed "
                    "(%s: %s)",
                    self.shard,
                    self.replicas[candidate].instance.label,
                    new_term, type(exc).__name__, exc,
                )
                return False
            self.primary, self.term = candidate, new_term
            self._gauge_term()
            self._metrics.registry.counter(
                "repro_replication_promotions_total",
                shard=str(self.shard),
            ).inc()
            logger.warning(
                "shard %d: promoted %s to primary at term %d",
                self.shard,
                self.replicas[candidate].instance.label,
                new_term,
            )
            return True

    def _gauge_term(self) -> None:
        self._metrics.registry.gauge(
            "repro_replication_term", shard=str(self.shard)
        ).set(self.term)

    def close(self) -> None:
        for pool in self.replicas:
            pool.close()


class RouterEngine:
    """Route protocol requests across a sharded cluster.

    Duck-types :class:`~repro.service.engine.QueryEngine` for
    :class:`~repro.service.server.SummaryQueryServer`: ``metrics``,
    ``query(request, deadline)``, ``query_many(requests, deadline)``.

    Parameters
    ----------
    spec:
        A *planned* topology (``n`` recorded); the router never loads
        a summary itself — it only needs addresses and the hash map.
    cache_size:
        Router-side LRU over fetched neighbor lists (0 disables); the
        cross-shard analogue of the engine's expansion cache, it
        serves repeated ``neighbors``/``degree``/``khop`` traffic
        without a backend round trip.
    retry_policy:
        Governs failover sweeps per shard (default: 2 attempts with a
        short backoff between full-rotation sweeps).
    max_connections_per_replica:
        Cap on pooled connections per instance.  Must not exceed the
        instance server's ``workers`` count (see
        :class:`ReplicaPool`); requests beyond the cap wait for a
        free connection instead of opening one that would never be
        served.
    connect:
        ``connect(host, port, timeout)`` opens every outbound
        connection (default: :func:`repro.service.client.connect`);
        a test seam for in-process transports.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        *,
        cache_size: int = 4096,
        retry_policy: RetryPolicy | None = None,
        max_connections_per_replica: int = 4,
        connect=socket_connect,
    ):
        if spec.n is None:
            raise TopologyError(
                "topology lacks 'n' (template spec?); plan the cluster "
                "before routing"
            )
        self.spec = spec
        self.n = spec.n
        self.metrics = ServiceMetrics()
        self._cache = LRUCache(cache_size)
        #: Serializes two-phase ingest fan-outs *per shard*: no
        #: sibling batch may commit between another batch's prepare
        #: and commit rounds on a shard they both touch, or the
        #: prepare's validation verdict could go stale — but batches
        #: over disjoint shard sets proceed concurrently.  A batch
        #: takes the locks of every shard it touches in ascending
        #: shard order, so two batches sharing shards always contend
        #: in the same order and cannot deadlock.
        self._ingest_locks = tuple(
            threading.Lock() for _ in range(spec.shards)
        )
        policy = retry_policy if retry_policy is not None else RetryPolicy(
            max_attempts=2, base_delay=0.05, max_delay=0.5
        )
        self._shards = [
            ShardPool(
                shard,
                [
                    ReplicaPool(
                        instance,
                        breaker_threshold=spec.breaker_threshold,
                        breaker_reset_s=spec.breaker_reset_s,
                        max_connections=max_connections_per_replica,
                        connect=connect,
                    )
                    for instance in spec.instances_for(shard)
                ],
                retry_policy=policy,
                metrics=self.metrics,
                seed=spec.seed,
                acks=spec.acks,
            )
            for shard in range(spec.shards)
        ]

    # -- lifecycle -------------------------------------------------------
    def describe(self) -> str:
        """What the server logs on start (no representation to show)."""
        return (
            f"cluster router (n={self.n}, {self.spec.shards} shard(s) x "
            f"{self.spec.replicas} replica(s))"
        )

    @property
    def cache_len(self) -> int:
        return len(self._cache)

    def close(self) -> None:
        for shard in self._shards:
            shard.close()

    # -- request-dict interface (what the server speaks) -----------------
    def query(self, request: dict, deadline: float | None = None) -> dict:
        """Answer one validated request dict; mirror of
        :meth:`QueryEngine.query` including its error messages, so
        router answers are indistinguishable from a single server's."""
        op = request["op"]
        if op not in ROUTER_OPS:
            # The listing deliberately prints OPS, not ROUTER_OPS:
            # ingest support is engine-conditional (the shards must
            # run mutable engines) and the message must stay
            # byte-identical to a single read-only server's, per the
            # mirror contract above.
            raise QueryError(
                "bad_request",
                f"unknown op {op!r}; supported: {', '.join(OPS)}",
            )
        degraded_sink: list = []
        _check_deadline(deadline)
        started = time.perf_counter()
        try:
            result = self._dispatch(op, request, deadline, degraded_sink)
        except ServiceError as exc:
            # A shard's structured rejection (its timeout, its
            # overloaded breaker, ...) passes through verbatim.
            self.metrics.observe(op, time.perf_counter() - started, ok=False)
            raise QueryError(exc.type, exc.message) from exc
        except QueryError:
            self.metrics.observe(op, time.perf_counter() - started, ok=False)
            raise
        self.metrics.observe(op, time.perf_counter() - started)
        response = {
            "id": request.get("id"),
            "ok": True,
            "op": op,
            "result": result,
        }
        if degraded_sink:
            response["degraded"] = True
            self.metrics.degraded(op)
        return response

    def query_many(
        self, requests: list[dict], deadline: float | None = None
    ) -> list[dict]:
        """Answer a batch by splitting it across owning shards.

        Sub-batches fan out concurrently and may complete in any
        order; every response lands back at its request's original
        index with the client's ``id`` untouched, so the returned
        list is ordered exactly like the input — the same contract as
        :meth:`QueryEngine.query_many`.
        """
        by_shard, local = plan_batch(requests, self.n, self.spec.owner)
        forwarded = {
            shard: [requests[i] for i in indices]
            for shard, indices in by_shard.items()
        }
        self.metrics.batch(len(requests), len({
            request["node"] for sub in forwarded.values() for request in sub
        }))
        responses: list[dict | None] = [None] * len(requests)
        answers = self._fan_out(forwarded, deadline)
        for shard, indices in by_shard.items():
            for i, answer in zip(indices, answers[shard]):
                if isinstance(answer, QueryError):
                    answer = error_response(
                        requests[i], answer.kind, str(answer)
                    )
                responses[i] = answer
        for index in local:
            request = requests[index]
            try:
                responses[index] = self.query(request, deadline)
            except QueryError as exc:
                responses[index] = error_response(request, exc.kind, str(exc))
        return responses  # type: ignore[return-value]

    # -- dispatch --------------------------------------------------------
    def _dispatch(
        self,
        op: str,
        request: dict,
        deadline: float | None,
        degraded_sink: list,
    ):
        if op == "ping":
            return "pong"
        if op == "telemetry":
            registry = self.metrics.registry
            for shard_pool in self._shards:
                for pool in shard_pool.replicas:
                    registry.gauge(
                        "router_breaker_state", instance=pool.instance.label
                    ).set(BREAKER_STATES.index(pool.breaker.state))
            return self.metrics.telemetry(self._cache, "router")
        if op == "ingest":
            return self._ingest(request)
        node = request["node"]
        check_node(node, self.n)
        if op == "neighbors":
            return list(self._neighbors(node))
        if op == "degree":
            return len(self._neighbors(node))
        if op == "khop":
            distances = self._khop(
                node, request.get("k", 1), deadline, degraded_sink
            )
            return {str(v): d for v, d in sorted(distances.items())}
        if op == "pagerank":
            result = self._call(self.spec.owner(node), "pagerank", node=node)
            return _expect(result, float, "pagerank")
        raise QueryError("bad_request", f"unhandled op {op!r}")

    def _call(self, shard: int, op: str, parent=None, **params):
        """One outbound shard call, wrapped in a ``router:fanout``
        span carrying this router's trace context to the shard.

        ``parent`` must be captured *in the dispatching thread* (the
        tracer's span stack is thread-local) when the call runs on a
        fan-out worker thread; single-shard paths leave it ``None``
        and pick up the calling thread's current span.  When tracing
        is off this is a plain forward — no span, no ``trace`` field.
        """
        pool = self._shards[shard]
        tracer = get_tracer()
        if not tracer.enabled:
            return pool.request(op, **params)
        with tracer.span(
            "router:fanout", parent=parent, op=op, shard=shard
        ) as span:
            return pool.request(
                op, trace=TraceContext.from_span(span).to_wire(), **params
            )

    def _fan_out(
        self, work: dict[int, list[dict]], deadline: float | None
    ) -> dict[int, list]:
        """Send each shard its requests as ``batch`` calls of at most
        :data:`MAX_BATCH_REQUESTS` items, shards in parallel.

        Returns, per shard, one entry per request in order: the
        shard's response dict, or — for every item of a sub-batch
        that failed as a whole — the :class:`QueryError` it failed
        with (a shard's structured rejection converted, a down shard
        as :class:`ShardDownError`).
        """
        parent = get_tracer().current()
        answers: dict[int, list] = {shard: [] for shard in work}

        def forward(shard: int) -> None:
            for chunk in chunks(work[shard]):
                try:
                    _check_deadline(deadline)
                    result = self._call(
                        shard, "batch", parent, requests=chunk
                    )
                    if not isinstance(result, list) or len(result) != len(
                        chunk
                    ):
                        raise QueryError(
                            "internal",
                            f"shard {shard} answered a {len(chunk)}-request "
                            "sub-batch with a mismatched response list",
                        )
                except ServiceError as exc:
                    result = [QueryError(exc.type, exc.message)] * len(chunk)
                except QueryError as exc:
                    result = [exc] * len(chunk)
                answers[shard].extend(result)

        _parallel([functools.partial(forward, shard) for shard in work])
        return answers

    # -- ingest ----------------------------------------------------------
    def _ingest(self, request: dict) -> dict:
        """Route one mutation batch to the shards owning its edges.

        Every mutation goes to the owner of *each* endpoint
        (:func:`plan_ingest`) so shard artifacts keep their
        1-hop-closure invariant and ``neighbors`` answers stay exact.
        The fan-out is **two-phase**: a prepare round sends every
        sub-batch with ``dry_run`` so each involved shard validates it
        against its own state, and only when all shards accept does
        the commit round apply — a batch that any shard would reject
        (say, an insert of an edge that already exists) is refused
        *before* anything is applied anywhere, so a semantically
        invalid batch can never leave a shared edge present on one
        endpoint-owner but absent on the other.  All sub-calls carry
        the client's ``stream``/``seq``, making the commit round
        idempotent per shard: a retry after a partial transport
        failure re-sends everywhere, already-applied shards dedup, and
        the batch converges to applied-exactly-once.  On a replicated
        shard :meth:`ShardPool.request` sends each
        sub-call to the primary.
        """
        mutations = request["mutations"]
        plan = plan_ingest(mutations, self.n, self.spec.owner)
        identity = {"stream": request["stream"], "seq": request["seq"]}
        parent = get_tracer().current()

        def fan_out(**dry_run) -> dict[int, object]:
            results: dict[int, object] = {}
            errors: dict[int, Exception] = {}

            def forward(shard: int) -> None:
                try:
                    results[shard] = self._call(
                        shard, "ingest", parent, **identity,
                        mutations=[mutations[i] for i in plan[shard]],
                        **dry_run,
                    )
                except (ServiceError, QueryError) as exc:
                    errors[shard] = exc

            _parallel([functools.partial(forward, s) for s in plan])
            if errors:
                raise first_refusal(errors, plan)
            return results

        with contextlib.ExitStack() as stack:
            # Ordered per-shard locking: batches over disjoint shard
            # sets overlap freely; batches sharing a shard serialize.
            for shard in sorted(plan):
                stack.enter_context(self._ingest_locks[shard])
            # Prepare: every involved shard validates its sub-batch
            # (already-applied shards answer from their dedup cache).
            # A rejection here aborts the whole batch with nothing
            # applied on any shard.
            fan_out(dry_run=True)
            if request.get("dry_run", False):
                # The client asked for validation only — the prepare
                # round *is* the answer; nothing commits anywhere.
                return {"validated": len(mutations)}
            # Commit: a failure is raised only after every shard was
            # attempted, so by the time an error surfaces any shard
            # may have applied — the dirty-node cache entries are
            # dropped even on that path, and a retry (same
            # stream/seq) converges via per-shard dedup.
            try:
                results = fan_out()
            finally:
                self._cache.invalidate_many(
                    node for __, u, v in mutations for node in (u, v)
                )
        shard_results = {
            str(shard): _expect(results[shard], dict, "ingest")
            for shard in plan
        }
        self.metrics.ingest_applied(len(mutations))
        return {"applied": len(mutations), "shards": shard_results}

    # -- neighbors + khop ------------------------------------------------
    def _neighbors(self, node: int) -> tuple[int, ...]:
        """Sorted neighbor tuple of ``node`` via the owning shard,
        cached router-side."""
        cached = self._cache.get(node)
        if cached is not None:
            self.metrics.cache_hit()
            return cached
        self.metrics.cache_miss()
        raw = self._call(self.spec.owner(node), "neighbors", node=node)
        result = tuple(_expect(raw, list, "neighbors"))
        self._cache.put(node, result)
        return result

    def _fetch_level(
        self, frontier: list[int], degraded_sink: list
    ) -> dict[int, tuple[int, ...]]:
        """Neighbor lists for one BFS level, batched per owning shard.

        A shard that is fully down contributes empty expansions and
        marks the answer degraded instead of failing the whole BFS.
        """
        fetched: dict[int, tuple[int, ...]] = {}
        need: dict[int, list[int]] = {}
        for u in frontier:
            cached = self._cache.get(u)
            if cached is not None:
                self.metrics.cache_hit()
                fetched[u] = cached
            else:
                self.metrics.cache_miss()
                need.setdefault(self.spec.owner(u), []).append(u)
        answers = self._fan_out(
            {
                shard: [
                    {"id": i, "op": "neighbors", "node": u}
                    for i, u in enumerate(nodes)
                ]
                for shard, nodes in need.items()
            },
            None,
        )
        for shard, nodes in need.items():
            for u, answer in zip(nodes, answers[shard]):
                if isinstance(answer, ShardDownError):
                    if "khop" not in degraded_sink:
                        degraded_sink.append("khop")
                    fetched[u] = ()
                    continue
                if isinstance(answer, QueryError):
                    raise answer
                if not answer.get("ok"):
                    raise QueryError(
                        "internal",
                        f"shard {shard} rejected an in-range "
                        f"neighbors sub-request for node {u}",
                    )
                fetched[u] = tuple(answer["result"])
                self._cache.put(u, fetched[u])
        return fetched

    def _khop(
        self,
        node: int,
        k: int,
        deadline: float | None,
        degraded_sink: list,
    ) -> dict[int, int]:
        """Level-synchronous BFS with per-level shard fan-out.

        Distances depend only on the set of edges seen per level, so
        the result is bit-identical to the single-server BFS.
        """
        if k < 0:
            raise QueryError("bad_request", f"k must be >= 0, got {k}")
        distances = {node: 0}
        frontier = [node]
        for depth in range(1, k + 1):
            _check_deadline(deadline)
            expansions = self._fetch_level(frontier, degraded_sink)
            reached = khop_step(frontier, distances, expansions, depth)
            if not reached:
                break
            distances.update(reached)
            frontier = list(reached)
        return distances


# -- plumbing ------------------------------------------------------------
def _parallel(tasks: list) -> None:
    """Run thunks concurrently (inline when there is just one); the
    first raised exception propagates once every thunk finished."""
    if len(tasks) <= 1:
        for task in tasks:
            task()
        return
    errors: list[BaseException] = []

    def run(task) -> None:
        try:
            task()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(task,), daemon=True)
        for task in tasks
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _expect(value, kind, op: str):
    """A shard's ``op`` result, refused as ``internal`` unless it is a
    ``kind``."""
    if not isinstance(value, kind):
        raise QueryError(
            "internal",
            f"shard answered {op!r} with {type(value).__name__}, "
            f"expected {kind.__name__}",
        )
    return value


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() >= deadline:
        raise QueryTimeout()
