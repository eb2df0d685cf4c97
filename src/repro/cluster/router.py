"""Consistent-hash query router with replica failover.

The cluster front-end: a :class:`RouterEngine` speaks the *same*
request-dict contract as :class:`repro.service.engine.QueryEngine`
(``query`` / ``query_many`` / ``metrics``), so the existing
:class:`~repro.service.server.SummaryQueryServer` serves it unchanged
— clients connect to the router with the unmodified wire protocol and
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
* ``ingest`` — each mutation is forwarded to every shard owning one
  of its endpoints (shard artifacts carry all edges incident to their
  owned nodes — the 1-hop closure — so an edge toggle must land on
  the owner of *each* endpoint to keep that invariant).  Sub-batches
  reuse the client's ``stream``/``seq`` identity per shard, so a
  retry after a partial failure converges: shards that already
  applied answer ``duplicate: true``, the rest apply.  The router's
  neighbor cache is invalidated per dirty node on success.  With
  ``replicas > 1`` each sub-batch goes to the shard's current
  **primary**, which ships its WAL to the sibling followers
  (:mod:`repro.durability.replication`); when the primary dies or
  answers ``not_primary``/``fenced``, the router probes the live
  replicas' ``repl_status``, adopts an already-promoted primary or
  promotes the most-caught-up follower under a strictly higher term,
  and retries the sub-batch — the replayed ``(stream, seq)`` dedups
  on the new primary, so a batch acked just before the failover is
  answered ``duplicate: true`` instead of double-applied.  See
  docs/resilience.md ("Replication & failover").
* ``telemetry`` — the router's identity and registry snapshot, with
  one ``router_breaker_state{instance}`` gauge per instance; it makes
  no outbound call.  The cluster collector (:mod:`repro.obs.collect`)
  pairs it with each instance's own ``telemetry`` answer to build the
  cluster-wide view.

When tracing is on, every outbound shard call runs under a
``router:fanout`` span whose context rides the wire (the ``trace``
request field), so shard-side ``service:request`` spans parent under
it and ``repro cluster trace <id>`` can reassemble the full tree.

Failover states
---------------
Every instance gets a lazily-grown pool of
:class:`~repro.service.client.SummaryServiceClient` connections
guarded by one :class:`~repro.resilience.breaker.CircuitBreaker`:

* **healthy** (breaker closed) — in rotation;
* **ejected** (breaker open, after ``breaker_threshold`` consecutive
  transport failures) — skipped without a connect attempt until
  ``breaker_reset_s`` elapses;
* **probing** (half-open) — one request is allowed through; success
  readmits the replica, failure re-arms the ejection window.

A request sweeps the owning shard's replicas round-robin, failing
over on transport errors; sweeps retry under the configured
:class:`~repro.resilience.retry.RetryPolicy`.  Only when *every*
replica of a shard is down does the client see an effect: a
structured ``unavailable`` error for single-shard ops, or a partial
answer flagged ``"degraded": true`` for a ``khop`` whose BFS crossed
the dead shard.
"""

from __future__ import annotations

import contextlib
import logging
import random
import threading
import time

from repro.cluster.topology import ClusterSpec, InstanceSpec, TopologyError
from repro.durability import replication
from repro.obs.tracer import get_tracer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.retry import (
    Deadline,
    DeadlineExceeded,
    RetriesExhausted,
    RetryPolicy,
    call_with_retry,
)
from repro.service.client import ServiceError, SummaryServiceClient
from repro.service.engine import LRUCache, OPS, QueryError, QueryTimeout
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

    Clients are created on demand, reused via a free-list, and
    discarded when their stream can no longer be trusted.  All methods
    are thread-safe; the breaker is the instance's health state.

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
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._max = max(1, max_connections)
        self._open = 0  # connections in existence (free + leased)
        self._free: list[SummaryServiceClient] = []
        self._closed = False

    def _acquire(self) -> SummaryServiceClient:
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
            return SummaryServiceClient(host, port, timeout=self._timeout)
        except BaseException:
            self._forget()
            raise

    def _forget(self) -> None:
        """Account for a connection leaving existence."""
        with self._cond:
            self._open -= 1
            self._cond.notify()

    def _discard(self, client: SummaryServiceClient) -> None:
        self._forget()
        client.close()

    def _release(self, client: SummaryServiceClient) -> None:
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
    Writes (:meth:`ingest_request`) are **primary-routed**: the pool
    tracks which replica is the shard's primary and at what term, and
    on a dead or demoted primary runs the promotion protocol —
    probe live replicas' ``repl_status``, adopt an existing primary at
    a higher term, or promote the most-caught-up follower with a
    strictly higher term.  One router per shard is assumed: two
    routers probing the same replicas compute the same new term and
    may promote different replicas, and equal terms fence neither.
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

    def request(self, op: str, **params):
        """Forward one request to a healthy replica, retrying sweeps
        under the retry policy; raises :class:`ShardDownError` once
        the policy is exhausted."""
        try:
            return call_with_retry(
                lambda: self._sweep(op, params),
                policy=self._retry_policy,
                retry_on=(_SweepFailed,),
                rng=self._rng,
                label=f"router_shard_{self.shard}",
            )
        except (RetriesExhausted, DeadlineExceeded) as exc:
            self._metrics.registry.counter(
                "router_shard_down_total", shard=str(self.shard)
            ).inc()
            raise ShardDownError(self.shard, len(self.replicas)) from exc

    # -- primary-routed writes -------------------------------------------
    def ingest_request(self, **params):
        """Forward one ingest sub-batch to the shard's primary,
        promoting a new one when the current primary is dead or
        demoted.  Single-replica shards take the plain sweep path —
        the lone replica *is* the primary."""
        if len(self.replicas) == 1:
            return self.request("ingest", **params)
        try:
            return call_with_retry(
                lambda: self._ingest_attempt(params),
                policy=self._retry_policy,
                retry_on=(_SweepFailed,),
                rng=self._rng,
                label=f"router_ingest_{self.shard}",
            )
        except (RetriesExhausted, DeadlineExceeded) as exc:
            self._metrics.registry.counter(
                "router_shard_down_total", shard=str(self.shard)
            ).inc()
            raise ShardDownError(self.shard, len(self.replicas)) from exc

    def _ingest_attempt(self, params: dict):
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
                result = pool.request("ingest", **params)
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
    """

    def __init__(
        self,
        spec: ClusterSpec,
        *,
        metrics: ServiceMetrics | None = None,
        cache_size: int = 4096,
        retry_policy: RetryPolicy | None = None,
        max_connections_per_replica: int = 4,
    ):
        if spec.n is None:
            raise TopologyError(
                "topology lacks 'n' (template spec?); plan the cluster "
                "before routing"
            )
        self.spec = spec
        self.n = spec.n
        self.metrics = metrics if metrics is not None else ServiceMetrics()
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
                    )
                    for instance in spec.instances_for(shard)
                ],
                retry_policy=policy,
                metrics=self.metrics,
                seed=spec.seed,
                acks=getattr(spec, "acks", "quorum"),
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
        responses: list[dict | None] = [None] * len(requests)
        by_shard: dict[int, list[int]] = {}
        local: list[int] = []
        unique_nodes: set[int] = set()
        for index, request in enumerate(requests):
            shard = self._classify(request)
            if shard is None:
                local.append(index)
            else:
                by_shard.setdefault(shard, []).append(index)
                unique_nodes.add(request["node"])
        self.metrics.batch(len(requests), len(unique_nodes))

        # Fan-out spans run on worker threads; the parent must be the
        # *dispatching* thread's open span (thread-local stacks).
        parent_span = get_tracer().current()

        def forward(shard: int, indices: list[int]) -> None:
            for start in range(0, len(indices), MAX_BATCH_REQUESTS):
                chunk = indices[start:start + MAX_BATCH_REQUESTS]
                try:
                    _check_deadline(deadline)
                    answers = self._shard_request(
                        self._shards[shard],
                        "batch",
                        parent=parent_span,
                        requests=[requests[i] for i in chunk],
                    )
                    if not isinstance(answers, list) or len(answers) != len(
                        chunk
                    ):
                        raise QueryError(
                            "internal",
                            f"shard {shard} answered a {len(chunk)}-request "
                            "sub-batch with a mismatched response list",
                        )
                except QueryError as exc:
                    for i in chunk:
                        responses[i] = error_response(
                            requests[i], exc.kind, str(exc)
                        )
                    continue
                except ServiceError as exc:
                    for i in chunk:
                        responses[i] = error_response(
                            requests[i], exc.type, exc.message
                        )
                    continue
                for i, answer in zip(chunk, answers):
                    responses[i] = answer

        self._parallel(
            [
                (lambda s=shard, ix=indices: forward(s, ix))
                for shard, indices in by_shard.items()
            ]
        )
        for index in local:
            request = requests[index]
            try:
                responses[index] = self.query(request, deadline)
            except QueryError as exc:
                responses[index] = error_response(request, exc.kind, str(exc))
        return responses  # type: ignore[return-value]

    # -- dispatch --------------------------------------------------------
    def _classify(self, request) -> int | None:
        """Owning shard for direct fan-out, ``None`` for local
        handling (khop/telemetry/ping, range errors — the local path
        reproduces the engine's inline errors)."""
        if request["op"] not in _SINGLE_SHARD_OPS:
            return None
        node = request["node"]
        if not 0 <= node < self.n:
            return None
        return self.spec.owner(node)

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
        self._check_node(node)
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
            result = self._shard_request(
                self.owner_pool(node), "pagerank", node=node
            )
            return self._coerce_service_error(result, float, "pagerank")
        raise QueryError("bad_request", f"unhandled op {op!r}")

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise QueryError(
                "bad_request",
                f"node {node} out of range [0, {self.n})",
            )

    def owner_pool(self, node: int) -> ShardPool:
        return self._shards[self.spec.owner(node)]

    def _shard_request(
        self, shard_pool: ShardPool, op: str, parent=None, **params
    ):
        """One outbound shard call, wrapped in a ``router:fanout``
        span carrying this router's trace context to the shard.

        ``parent`` must be captured *in the dispatching thread* (the
        tracer's span stack is thread-local) when the call runs on a
        fan-out worker thread; single-shard paths leave it ``None``
        and pick up the calling thread's current span.  When tracing
        is off this is a plain forward — no span, no ``trace`` field.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return shard_pool.request(op, **params)
        with tracer.span(
            "router:fanout", parent=parent, op=op, shard=shard_pool.shard
        ) as span:
            return shard_pool.request(
                op,
                trace={"id": span.trace_id, "span": span.span_id},
                **params,
            )

    def _shard_ingest(self, shard_pool: ShardPool, parent=None, **params):
        """Like :meth:`_shard_request`, but primary-routed through
        :meth:`ShardPool.ingest_request` (writes must land on the
        shard's replication primary, not whichever replica the read
        sweep would pick)."""
        tracer = get_tracer()
        if not tracer.enabled:
            return shard_pool.ingest_request(**params)
        with tracer.span(
            "router:fanout", parent=parent, op="ingest",
            shard=shard_pool.shard,
        ) as span:
            return shard_pool.ingest_request(
                trace={"id": span.trace_id, "span": span.span_id},
                **params,
            )

    @staticmethod
    def _coerce_service_error(value, kind, op: str):
        if not isinstance(value, kind):
            raise QueryError(
                "internal",
                f"shard answered {op!r} with {type(value).__name__}, "
                f"expected {kind.__name__}",
            )
        return value

    # -- ingest ----------------------------------------------------------
    def _ingest(self, request: dict) -> dict:
        """Route one mutation batch to the shards owning its edges.

        Every mutation goes to the owner of *each* endpoint (possibly
        two shards) so shard artifacts keep their 1-hop-closure
        invariant and ``neighbors`` answers stay exact.  The fan-out is
        **two-phase**: a prepare round sends every sub-batch with
        ``dry_run`` so each involved shard validates it against its own
        state, and only when all shards accept does the commit round
        apply — a batch that any shard would reject (say, an insert of
        an edge that already exists) is refused *before* anything is
        applied anywhere, so a semantically invalid batch can never
        leave a shared edge present on one endpoint-owner but absent on
        the other.  All sub-calls carry the client's ``stream``/``seq``,
        making the commit round idempotent per shard: a retry after a
        partial transport failure re-sends everywhere, already-applied
        shards dedup, and the batch converges to applied-exactly-once.

        Replicated shards take the same path, but every sub-call is
        **primary-routed** (:meth:`ShardPool.ingest_request`): the
        primary WAL-ships the sub-batch to its followers before — in
        ``acks=quorum`` mode — acknowledging, and a mid-batch primary
        death triggers promotion and a dedup-safe resend.
        """
        stream = request["stream"]
        seq = request["seq"]
        mutations = request["mutations"]
        per_shard: dict[int, list] = {}
        for sign, u, v in mutations:
            for node in (u, v):
                self._check_node(node)
            for shard in {self.spec.owner(u), self.spec.owner(v)}:
                per_shard.setdefault(shard, []).append([sign, u, v])

        parent_span = get_tracer().current()
        shard_results: dict[str, dict] = {}

        def forward(shard: int, subset: list, dry_run: bool) -> None:
            params = {"stream": stream, "seq": seq, "mutations": subset}
            if dry_run:
                params["dry_run"] = True
            result = self._shard_ingest(
                self._shards[shard],
                parent=parent_span,
                **params,
            )
            if not dry_run:
                shard_results[str(shard)] = self._coerce_service_error(
                    result, dict, "ingest"
                )

        def fan_out(dry_run: bool) -> None:
            self._parallel(
                [
                    (lambda s=shard, ms=subset: forward(s, ms, dry_run))
                    for shard, subset in per_shard.items()
                ]
            )

        with contextlib.ExitStack() as stack:
            # Ordered per-shard locking: batches over disjoint shard
            # sets overlap freely; batches sharing a shard serialize.
            for shard in sorted(per_shard):
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
            # Commit: _parallel re-raises the first failure only after
            # every shard was attempted, so by the time an error
            # surfaces any shard may have applied — the dirty-node
            # cache entries are dropped even on that path, and a retry
            # (same stream/seq) converges via per-shard dedup.
            try:
                fan_out(dry_run=False)
            finally:
                for __, u, v in mutations:
                    self._cache.invalidate(u)
                    self._cache.invalidate(v)
        self.metrics.registry.counter(
            "repro_ingest_applied_total"
        ).inc(len(mutations))
        return {
            "applied": len(mutations),
            "shards": shard_results,
        }

    # -- neighbors + khop ------------------------------------------------
    def _neighbors(self, node: int) -> tuple[int, ...]:
        """Sorted neighbor tuple of ``node`` via the owning shard,
        cached router-side."""
        cached = self._cache.get(node)
        if cached is not None:
            self.metrics.cache_hit()
            return cached
        self.metrics.cache_miss()
        raw = self._shard_request(
            self.owner_pool(node), "neighbors", node=node
        )
        result = tuple(self._coerce_service_error(raw, list, "neighbors"))
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

        parent_span = get_tracer().current()

        def fetch(shard: int, nodes: list[int]) -> None:
            for start in range(0, len(nodes), MAX_BATCH_REQUESTS):
                chunk = nodes[start:start + MAX_BATCH_REQUESTS]
                try:
                    answers = self._shard_request(
                        self._shards[shard],
                        "batch",
                        parent=parent_span,
                        requests=[
                            {"id": i, "op": "neighbors", "node": u}
                            for i, u in enumerate(chunk)
                        ],
                    )
                except ShardDownError:
                    if "khop" not in degraded_sink:
                        degraded_sink.append("khop")
                    for u in chunk:
                        fetched[u] = ()
                    continue
                if not isinstance(answers, list) or len(answers) != len(
                    chunk
                ):
                    raise QueryError(
                        "internal",
                        f"shard {shard} answered a neighbors sub-batch "
                        "with a mismatched response list",
                    )
                for u, answer in zip(chunk, answers):
                    if not (
                        isinstance(answer, dict) and answer.get("ok")
                    ):
                        raise QueryError(
                            "internal",
                            f"shard {shard} rejected an in-range "
                            f"neighbors sub-request for node {u}",
                        )
                    result = tuple(answer["result"])
                    fetched[u] = result
                    self._cache.put(u, result)

        self._parallel(
            [
                (lambda s=shard, ns=nodes: fetch(s, ns))
                for shard, nodes in need.items()
            ]
        )
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
            next_frontier: list[int] = []
            for u in frontier:
                for v in expansions[u]:
                    if v not in distances:
                        distances[v] = depth
                        next_frontier.append(v)
            if not next_frontier:
                break
            frontier = next_frontier
        return distances

    # -- plumbing --------------------------------------------------------
    @staticmethod
    def _parallel(tasks: list) -> None:
        """Run thunks concurrently (inline when there is just one);
        the first raised :class:`QueryError` propagates."""
        if not tasks:
            return
        if len(tasks) == 1:
            tasks[0]()
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


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() >= deadline:
        raise QueryTimeout()
