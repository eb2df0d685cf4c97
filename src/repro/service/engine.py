"""Thread-safe query engine over one loaded summary.

The serving substrate of Section 6.6 taken to its conclusion: load
``R = (S, C)`` once, pre-build the super-edge and correction indexes
(:class:`~repro.queries.neighbors.SummaryNeighborIndex`), and answer
many concurrent neighbor / degree / k-hop / PageRank-score requests
without ever touching the original graph.

Two serving-specific layers sit on top of the index:

* an LRU cache of expanded neighborhoods — summary expansion writes
  the same member lists over and over for hot nodes, so repeated
  queries are a dict hit;
* a batch API (:meth:`QueryEngine.query_many`) that deduplicates the
  nodes mentioned in a batch and expands each exactly once per batch,
  which is how a frontend fanning out one timeline request into many
  adjacency lookups would call it.

Graceful degradation (:mod:`repro.resilience`): constructed with
``degraded=True``, the engine answers ``khop`` and ``pagerank``
requests whose deadline budget is spent with a **cheaper approximate
answer flagged** ``"degraded": true`` instead of a ``timeout`` error —
a truncated BFS for ``khop``, a one-expansion degree-proportional
estimate for ``pagerank`` while the exact vector is still unbuilt.
SsAG-style approximate summaries (PAPERS.md) motivate exactly this
trade: a bounded-quality answer on time beats an exact answer late.
Degraded answers are counted under
``service_degraded_total{op=...}``.

All public methods are safe to call from any number of threads: the
cache has its own lock, a cache miss expands and fills the cache under
the engine's reentrant read lock (so a writer holding it — the mutable
engine's commit — never interleaves with a fill), and the PageRank
vector is built at most once per epoch behind a dedicated lock.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from pathlib import Path

from repro.core.encoding import Representation
from repro.core.serialization import load_representation
from repro.queries.neighbors import SummaryNeighborIndex, neighbor_query
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import error_response

__all__ = [
    "QueryEngine",
    "QueryError",
    "QueryTimeout",
    "LRUCache",
    "OPS",
]

#: Request types the engine understands (the protocol's ``op`` field).
OPS = ("neighbors", "degree", "khop", "pagerank", "telemetry", "ping")


class QueryError(ValueError):
    """A request the engine rejects; ``kind`` becomes the structured
    error type on the wire."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class QueryTimeout(QueryError):
    """Raised at an engine checkpoint once a request's deadline has
    passed."""

    def __init__(self, message: str = "request deadline exceeded"):
        super().__init__("timeout", message)


class _LRUCache:
    """Minimal thread-safe LRU keyed by node id.

    ``functools.lru_cache`` is not used because the hit/miss stream
    must feed :class:`ServiceMetrics` and the capacity must be a
    runtime knob.
    """

    def __init__(self, capacity: int):
        self._capacity = capacity
        self._lock = threading.Lock()
        self._data: OrderedDict[int, frozenset[int]] = OrderedDict()

    def get(self, key: int) -> frozenset[int] | None:
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key: int, value: frozenset[int]) -> None:
        if self._capacity <= 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self._capacity:
                self._data.popitem(last=False)

    def invalidate_many(self, keys) -> None:
        """Drop every entry in ``keys`` under one lock acquisition
        (mutation path: only the dirty nodes lose their cached
        expansion, the rest of the cache stays hot)."""
        with self._lock:
            pop = self._data.pop
            for key in keys:
                pop(key, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    @property
    def capacity(self) -> int:
        return self._capacity


#: Public name for the serving LRU; the cluster router reuses it for
#: its cross-shard neighborhood cache.
LRUCache = _LRUCache


class QueryEngine:
    """Serve adjacency and analytics queries from one representation.

    Every read goes through :attr:`summary` — anything with ``n``,
    ``m`` and ``neighbors(node)``: here a
    :class:`~repro.queries.neighbors.SummaryNeighborIndex`, in
    :class:`~repro.service.ingest.MutableQueryEngine` the live
    :class:`~repro.dynamic.summary.DynamicGraphSummary`.

    Parameters
    ----------
    representation:
        The loaded summary.  Its indexes are built eagerly here so the
        first request does not pay the construction cost.
    cache_size:
        LRU capacity in nodes (0 disables caching).
    metrics:
        Shared :class:`ServiceMetrics`; a private one is created when
        not given.
    damping / pagerank_iterations:
        Parameters for the lazily-built PageRank vector (Algorithm 7).
    degraded:
        Enable degraded-mode answers: ``khop``/``pagerank`` requests
        whose deadline has expired return a flagged approximation
        instead of raising :class:`QueryTimeout`.
    """

    def __init__(self, representation: Representation, **options):
        self.summary = SummaryNeighborIndex(representation)
        self._init_serving(**options)

    def _init_serving(
        self,
        *,
        cache_size: int = 4096,
        metrics: ServiceMetrics | None = None,
        damping: float = 0.85,
        pagerank_iterations: int = 20,
        degraded: bool = False,
    ) -> None:
        """Everything but the summary, shared with the mutable engine."""
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        #: Ops this engine instance answers; a mutable engine
        #: (:class:`repro.service.ingest.MutableQueryEngine`) extends
        #: this with ``ingest``.
        self.ops: tuple[str, ...] = OPS
        #: Guards the summary; reads take it only on a cache miss, a
        #: mutable engine's writes for the whole commit.
        self._state_lock = threading.RLock()
        self._cache = _LRUCache(cache_size)
        self._damping = damping
        self._pagerank_iterations = pagerank_iterations
        self._pagerank_lock = threading.Lock()
        self._pagerank_scores = None
        self.degraded_enabled = degraded

    @classmethod
    def from_file(cls, path: str | Path, **kwargs) -> "QueryEngine":
        """Load a summary file (via :mod:`repro.core.serialization`)
        and build an engine over it."""
        return cls(load_representation(path), **kwargs)

    @property
    def representation(self) -> Representation:
        return self.summary.representation

    @property
    def epoch(self) -> int | None:
        """Read-consistency epoch; ``None`` on a read-only engine,
        whose responses carry none."""
        return None

    @property
    def cache_len(self) -> int:
        return len(self._cache)

    # -- primitive queries ----------------------------------------------
    def neighbors(self, node: int) -> frozenset[int]:
        """Exact neighbor set of ``node``, cached.

        The result is a ``frozenset`` so concurrent consumers (and the
        cache) can share one object safely.
        """
        self._check_node(node)
        cached = self._cache.get(node)
        if cached is not None:
            self.metrics.cache_hit()
            return cached
        self.metrics.cache_miss()
        # Expansion and cache fill happen under the lock so a
        # concurrent commit can never interleave between computing a
        # neighbor set and caching it (which would cache a stale set
        # right past its invalidation).
        with self._state_lock:
            result = frozenset(self.summary.neighbors(node))
            self._cache.put(node, result)
        return result

    def degree(self, node: int) -> int:
        """Degree of ``node`` (cardinality of the cached expansion)."""
        return len(self.neighbors(node))

    def khop(
        self,
        node: int,
        k: int,
        deadline: float | None = None,
        degraded_sink: list | None = None,
    ) -> dict[int, int]:
        """Hop distance for every node within ``k`` hops of ``node``.

        BFS over the cached neighbor expansions (so a k-hop query
        warms the cache for the adjacency queries that typically
        follow it).  The deadline is checked once per BFS level; with
        a ``degraded_sink`` the BFS is *truncated* at the expired
        level (the sink records the degradation) instead of raising
        :class:`QueryTimeout`, so the caller gets every hop computed
        inside the budget.
        """
        self._check_node(node)
        if k < 0:
            raise QueryError("bad_request", f"k must be >= 0, got {k}")
        distances = {node: 0}
        frontier = [node]
        for depth in range(1, k + 1):
            if deadline is not None and time.monotonic() >= deadline:
                if degraded_sink is None:
                    raise QueryTimeout()
                degraded_sink.append("khop")
                break
            next_frontier: list[int] = []
            for u in frontier:
                for v in self.neighbors(u):
                    if v not in distances:
                        distances[v] = depth
                        next_frontier.append(v)
            if not next_frontier:
                break
            frontier = next_frontier
        return distances

    def pagerank_score(
        self,
        node: int,
        deadline: float | None = None,
        degraded_sink: list | None = None,
    ) -> float:
        """PageRank score of ``node`` from the Algorithm 7 vector.

        The full vector is computed on an epoch-consistent snapshot of
        the summary (first request) and then served as array lookups.
        A commit drops the vector; if the epoch moves *while* a build
        is running, the just-built (self-consistent but already stale)
        vector answers this request without being installed, so no
        request sees a torn state and a sustained write load cannot
        livelock the build.  With a ``degraded_sink``, a request whose
        deadline is already spent while the vector is *still unbuilt*
        gets the cheap degree-proportional estimate
        ``(1 - d)/n + d * deg(node) / 2m`` (one cached neighborhood
        expansion) instead of blocking on the full build — the sink
        records the degradation.  Once the vector exists every answer
        is exact.
        """
        self._check_node(node)
        scores = self._pagerank_scores
        if scores is None:
            if (
                degraded_sink is not None
                and deadline is not None
                and time.monotonic() >= deadline
            ):
                degraded_sink.append("pagerank")
                # n, m and the degree come from one lock acquisition,
                # so a concurrent commit cannot mix two epochs into
                # one estimate.
                with self._state_lock:
                    n, m = self.summary.n, self.summary.m
                    degree = len(self.neighbors(node))
                return (1.0 - self._damping) / max(1, n) + (
                    self._damping * degree / max(1, 2 * m)
                )
            with self._pagerank_lock:
                scores = self._pagerank_scores
                if scores is None:
                    with self._state_lock:
                        built_at = self.epoch
                        rep = self.representation
                    # NumPy loads with the first build, not with the
                    # server; every later request reads ``scores``.
                    from repro.queries.pagerank import SummaryPageRank

                    scores = SummaryPageRank(rep).run(
                        self._damping, self._pagerank_iterations
                    )
                    with self._state_lock:
                        if self.epoch == built_at:
                            self._pagerank_scores = scores
        return float(scores[node])

    # -- request-dict interface (what the server speaks) -----------------
    def query(self, request: dict, deadline: float | None = None) -> dict:
        """Answer one request dict that passed
        :func:`~repro.service.protocol.validate_request`.

        Returns a response dict ``{"id", "ok", "op", "result"}``; engine
        rejections raise :class:`QueryError` (the server turns them into
        structured error responses).  Latency and outcome are recorded
        per op.
        """
        op = request["op"]
        if op not in self.ops:
            if op == "ingest":
                raise QueryError(
                    "bad_request",
                    "ingest is not enabled on this server "
                    "(read-only engine; start with a mutable engine / "
                    "--wal-dir)",
                )
            raise QueryError(
                "bad_request",
                f"unknown op {op!r}; supported: {', '.join(self.ops)}",
            )
        degraded_sink: list | None = (
            [] if self.degraded_enabled and op in ("khop", "pagerank")
            else None
        )
        if degraded_sink is None:
            _check_deadline(deadline)
        started = time.perf_counter()
        try:
            result = self._dispatch(op, request, deadline, degraded_sink)
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
        return self._finalize(response)

    def query_many(
        self, requests: list[dict], deadline: float | None = None
    ) -> list[dict]:
        """Answer a batch of validated requests, deduplicating shared
        work.

        The nodes mentioned by the batch's ``neighbors``/``degree``
        requests are collected first and each distinct node is
        expanded exactly once (one index pass over the unique nodes);
        every response is then assembled from that shared expansion.
        Responses come back in request order, errors inline as
        structured error dicts — one bad request does not fail its
        batch.
        """
        unique_nodes: dict[int, None] = {}
        for request in requests:
            if request["op"] in ("neighbors", "degree"):
                unique_nodes.setdefault(request["node"])
        expanded: dict[int, frozenset[int]] = {}
        for node in unique_nodes:
            _check_deadline(deadline)
            try:
                expanded[node] = self.neighbors(node)
            except QueryError:
                pass  # reported per-request below
        self.metrics.batch(len(requests), len(unique_nodes))

        responses = []
        for request in requests:
            try:
                node = request.get("node")
                if node in expanded and request["op"] == "neighbors":
                    self.metrics.observe("neighbors", 0.0)
                    responses.append(self._finalize({
                        "id": request.get("id"),
                        "ok": True,
                        "op": "neighbors",
                        "result": sorted(expanded[node]),
                    }))
                elif node in expanded and request["op"] == "degree":
                    self.metrics.observe("degree", 0.0)
                    responses.append(self._finalize({
                        "id": request.get("id"),
                        "ok": True,
                        "op": "degree",
                        "result": len(expanded[node]),
                    }))
                else:
                    responses.append(self.query(request, deadline))
            except QueryError as exc:
                responses.append(error_response(request, exc.kind, str(exc)))
        return responses

    # -- internals -------------------------------------------------------
    def _finalize(self, response: dict) -> dict:
        """Last touch on every successful response.  The base engine
        is a no-op; a mutable engine stamps the read-consistency
        ``epoch`` and the mid-replay ``degraded`` flag here."""
        return response

    def _dispatch(
        self,
        op: str,
        request: dict,
        deadline: float | None,
        degraded_sink: list | None = None,
    ):
        if op == "ping":
            return "pong"
        if op == "telemetry":
            return self.metrics.telemetry(self._cache)
        node = request["node"]
        if op == "neighbors":
            return sorted(self.neighbors(node))
        if op == "degree":
            return self.degree(node)
        if op == "khop":
            distances = self.khop(
                node, request.get("k", 1), deadline, degraded_sink
            )
            return {str(v): d for v, d in sorted(distances.items())}
        if op == "pagerank":
            return self.pagerank_score(node, deadline, degraded_sink)
        raise QueryError("bad_request", f"unhandled op {op!r}")

    def _check_node(self, node: int) -> None:
        n = self.summary.n
        if not 0 <= node < n:
            raise QueryError(
                "bad_request", f"node {node} out of range [0, {n})"
            )

    def verify_against(self, node: int) -> bool:
        """Cross-check the engine answer against the one-shot
        Algorithm 6 (:func:`repro.queries.neighbors.neighbor_query`);
        used by tests and the smoke harness."""
        return set(self.neighbors(node)) == neighbor_query(
            self.representation, node
        )


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() >= deadline:
        raise QueryTimeout()
