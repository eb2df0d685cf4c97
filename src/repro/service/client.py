"""Blocking client for the summary query service.

Small by design: one socket, sequential request/response, used by the
test-suite, the smoke harness and the load generator.  Each client
instance is *not* thread-safe — give every load-generator thread its
own client, which also matches the server's connection-per-worker
model.

Fault tolerance (:mod:`repro.resilience`): constructed with a
:class:`~repro.resilience.retry.RetryPolicy`, the client transparently
**reconnects and retries** idempotent requests on connection failures,
with exponential backoff + seeded jitter under an optional per-request
deadline budget.  Which requests are idempotent: every read, and
``ingest`` *because* it carries a per-stream sequence number — the
request dict is built once, so every retry resends the **original**
``seq`` and the server dedupes a batch that was applied but whose
acknowledgement was lost in transit (at-most-once application over
at-least-once delivery).  ``shutdown``, and an ``ingest`` missing its
``stream``/``seq`` identity, are never blindly retried.  ``ingest``
additionally retries the structured errors ``not_primary`` and
``unavailable`` — the transient faces of a replica-set failover —
so a write that straddles a primary promotion lands exactly once
(the new primary answers the replayed ``seq`` with
``duplicate: true`` if it already replicated the batch).
A **desynchronized** stream — a response whose ``id`` does not match
the request, or an undecodable line — can never be reused: the socket
is closed immediately, and without a retry policy the client is marked
unusable so subsequent calls fail fast instead of mis-pairing
responses.

Fault-injection sites (when a
:class:`~repro.resilience.faults.FaultInjector` is active):
``client:send`` and ``client:recv`` around the two transport halves.
"""

from __future__ import annotations

import random
import socket

from repro.resilience.faults import active_injector
from repro.resilience.retry import Deadline, RetriesExhausted, RetryPolicy, call_with_retry
from repro.service.protocol import (
    MAX_LINE_BYTES,
    LineReader,
    ProtocolError,
    decode_line,
    encode_message,
    validate_response,
)

__all__ = ["SummaryServiceClient", "ServiceError", "connect"]


class ServiceError(RuntimeError):
    """An ``ok: false`` response; carries the structured error."""

    def __init__(self, error: dict):
        super().__init__(
            f"{error.get('type', 'unknown')}: {error.get('message', '')}"
        )
        self.type = error.get("type", "unknown")
        self.message = error.get("message", "")
        self.error = dict(error)


#: ``ingest`` error types that a retry may outlive: ``not_primary``
#: (the replica stepped down / we hit a follower — the router or a
#: restarted server may route to the new primary on the next attempt)
#: and ``unavailable`` (a replication quorum or a whole shard was
#: momentarily unreachable).  Retrying reuses the *same* request dict,
#: so the batch keeps its ``(stream, seq)`` identity and a new primary
#: that already replicated the batch answers ``duplicate: true``
#: instead of double-applying.
_TRANSIENT_ERROR_TYPES = frozenset({"unavailable", "not_primary"})


class _TransientServiceError(ServiceError):
    """Internal marker so ``call_with_retry`` can distinguish a
    retryable structured error from a terminal one."""


def _retry_safe(op: str, params: dict) -> bool:
    """Whether a transport-failed request may be replayed verbatim.

    Reads are always safe.  ``shutdown`` never is (a second delivery
    stops a freshly restarted server).  ``ingest`` is safe only when
    it carries its dedup identity — without ``stream`` + ``seq`` the
    server cannot tell a retry from a new batch, and a blind replay
    could double-apply.
    """
    if op == "shutdown":
        return False
    if op == "ingest":
        return (
            isinstance(params.get("stream"), str)
            and isinstance(params.get("seq"), int)
        )
    return True


class SummaryServiceClient:
    """Connect to a :class:`~repro.service.server.SummaryQueryServer`.

    Usable as a context manager::

        with SummaryServiceClient(host, port) as client:
            client.neighbors(42)

    Parameters
    ----------
    host / port / timeout:
        Connection target and per-socket-operation timeout.
    retry_policy:
        When given, idempotent requests that hit a transport failure
        reconnect and retry under this policy; ``None`` (the default)
        keeps the historical fail-fast behaviour.
    retry_budget:
        Optional wall-clock budget in seconds for one logical request
        *including* all retries and backoff sleeps.
    seed:
        Seeds the backoff jitter so retry schedules replay exactly.
    max_line_bytes:
        Frame cap applied to *inbound* responses, mirroring the
        server's limit: a hostile or broken server streaming an
        unterminated line gets its connection dropped with a
        structured :class:`~repro.service.protocol.ProtocolError`
        after this many buffered bytes instead of growing the
        client's memory without bound.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        *,
        retry_policy: RetryPolicy | None = None,
        retry_budget: float | None = None,
        seed: int = 0,
        max_line_bytes: int = MAX_LINE_BYTES,
    ):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._max_line_bytes = max_line_bytes
        self._retry_policy = retry_policy
        self._retry_budget = retry_budget
        self._rng = random.Random(seed)
        self._sock: socket.socket | None = None
        self._reader: LineReader | None = None
        self._next_id = 0
        self._ingest_stream: str | None = None
        self._ingest_seq = 0
        self._broken = False
        self._closed = False
        self._connect()

    # -- connection lifecycle --------------------------------------------
    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        # Pipelined requests must not wait on Nagle for the peer's
        # delayed ACK.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = LineReader(
            self._sock, max_line_bytes=self._max_line_bytes
        )

    def _teardown(self) -> None:
        """Drop the current socket (a later attempt reconnects)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._reader = None

    def _mark_unusable(self) -> None:
        """The stream can no longer be trusted: close it and make
        every subsequent call fail immediately."""
        self._teardown()
        self._broken = True

    @property
    def usable(self) -> bool:
        """False once the client is closed or desynchronized."""
        return not (self._closed or self._broken)

    # -- transport -------------------------------------------------------
    def request_raw(self, request: dict) -> dict:
        """Send one request dict, return the raw response dict.

        No id verification and no retries — the low-level escape
        hatch.  Transport failures drop the connection so the next
        high-level request can reconnect.
        """
        if self._sock is None:
            self._connect()
        injector = active_injector()
        try:
            if injector is not None:
                injector.before("client:send")
            self._sock.sendall(encode_message(request))
            if injector is not None:
                injector.before("client:recv")
            line = self._reader.readline()
        except ProtocolError:
            # Oversized/unframeable response: beyond resynchronization.
            self._mark_unusable()
            raise
        except OSError:
            self._teardown()
            raise
        if line is None:
            self._teardown()
            raise ConnectionError("server closed the connection")
        try:
            return validate_response(decode_line(line))
        except ProtocolError:
            # Undecodable or schema-invalid response: the server (or
            # whatever is impersonating it) cannot be trusted further.
            self._mark_unusable()
            raise

    def request(self, op: str, **params):
        """Send one ``op`` request; return its ``result`` or raise
        :class:`ServiceError`.

        Verifies the response id matches the request id.  On a
        mismatch the socket is closed immediately — with a retry
        policy the request is replayed on a fresh connection,
        otherwise the client is marked unusable and every subsequent
        call raises :class:`ConnectionError` without touching the
        network.
        """
        if self._closed:
            raise ConnectionError("client is closed")
        if self._broken:
            raise ConnectionError(
                "client is unusable after a desynchronized or "
                "undecodable response; create a new client"
            )
        self._next_id += 1
        request_id = self._next_id
        # Built exactly once: every retry below resends this same dict,
        # so a mutating request keeps its original sequence number and
        # the server's dedup map can absorb the replay.
        request = {"id": request_id, "op": op, **params}

        if self._retry_policy is None or not _retry_safe(op, params):
            response = self._attempt(request)
        else:
            deadline = (
                Deadline.after(self._retry_budget)
                if self._retry_budget is not None
                else Deadline.never()
            )
            # Ingest also retries across a primary failover: the same
            # request dict is resent, so the batch's (stream, seq)
            # dedups on whichever replica ends up primary.
            retry_transient = op == "ingest"

            def attempt() -> dict:
                response = self._attempt(request)
                if retry_transient and not response.get("ok"):
                    error = response.get("error", {})
                    if error.get("type") in _TRANSIENT_ERROR_TYPES:
                        raise _TransientServiceError(error)
                return response

            try:
                response = call_with_retry(
                    attempt,
                    policy=self._retry_policy,
                    retry_on=(OSError, _TransientServiceError),
                    deadline=deadline,
                    rng=self._rng,
                    label="service_client",
                )
            except RetriesExhausted as exc:
                if isinstance(exc.last, _TransientServiceError):
                    # Out of retries with the shard still unavailable
                    # or still pointing us elsewhere: surface the
                    # structured error, not a transport failure.
                    raise ServiceError(exc.last.error) from exc.last
                raise ConnectionError(str(exc)) from exc.last
        if not response.get("ok"):
            raise ServiceError(response.get("error", {}))
        return response.get("result")

    def _attempt(self, request: dict) -> dict:
        response = self.request_raw(request)
        if response.get("id") != request["id"]:
            self._teardown()
            if self._retry_policy is None:
                self._broken = True
            raise ConnectionError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request['id']!r}; connection closed"
            )
        return response

    # -- ops -------------------------------------------------------------
    def ping(self) -> str:
        return self.request("ping")

    def neighbors(self, node: int) -> list[int]:
        return self.request("neighbors", node=node)

    def degree(self, node: int) -> int:
        return self.request("degree", node=node)

    def khop(self, node: int, k: int) -> dict[int, int]:
        raw = self.request("khop", node=node, k=k)
        return {int(v): d for v, d in raw.items()}

    def pagerank_score(self, node: int) -> float:
        return self.request("pagerank", node=node)

    def telemetry(self) -> dict:
        """The server's identity + full registry snapshot
        (``{"instance", "pid", "registry"}``) — what the cluster
        collector merges across instances."""
        return self.request("telemetry")

    def repl_status(self) -> dict:
        """This instance's replication state: role, term, applied/last
        LSN, and (on a primary) per-follower ack cursors and lag."""
        return self.request("repl_status")

    def batch(self, requests: list[dict]) -> list[dict]:
        """Send a batch; returns the per-request response dicts in
        request order (errors inline, not raised)."""
        return self.request("batch", requests=requests)

    def ingest(
        self,
        mutations: list,
        *,
        stream: str | None = None,
        seq: int | None = None,
    ) -> dict:
        """Stream one edge-mutation batch to a mutable server.

        ``mutations`` is a list of ``["+"|"-", u, v]`` items.  The
        client manages its own stream identity: a random stream id is
        minted on first use and each call consumes one ``seq`` —
        *including* calls that fail.  A failed request may still have
        been recorded under its sequence number somewhere (a cluster
        shard that applied its sub-batch before a sibling failed, an
        ack lost in transit), so reusing the number for a *different*
        batch would let that server dedup — i.e. silently drop — the
        new mutations; burning the number instead is always safe
        because servers accept sequence gaps.  Retries *within* one
        call (transport failures under a retry policy) resend the
        original ``seq`` and are deduplicated server-side.  Pass
        explicit ``stream``/``seq`` to drive the sequencing yourself
        (e.g. to resume a stream after a client restart).

        Returns the result dict ``{"applied", "lsn"[, "duplicate"]}``.
        """
        if stream is None:
            if self._ingest_stream is None:
                import uuid

                self._ingest_stream = f"c-{uuid.uuid4().hex[:16]}"
            stream = self._ingest_stream
        if seq is None:
            seq = self._ingest_seq
            self._ingest_seq += 1
        return self.request(
            "ingest", stream=stream, seq=seq, mutations=mutations
        )

    def shutdown_server(self) -> str:
        """Ask the server to stop gracefully."""
        return self.request("shutdown")

    def close(self) -> None:
        self._closed = True
        self._teardown()

    def __enter__(self) -> "SummaryServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(host: str, port: int, timeout: float) -> SummaryServiceClient:
    """The default outbound transport of the router's replica pools
    and the replication shipper: a socket client to ``host:port``.

    Anything with the same signature that returns an object with
    ``request(op, **params)``, ``usable`` and ``close()`` can stand in
    (``RouterEngine(connect=)``, ``configure_replication(connect=)``).
    """
    return SummaryServiceClient(host, port, timeout=timeout)
