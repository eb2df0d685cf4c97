"""TCP front-end for :class:`~repro.service.engine.QueryEngine`.

Plain stdlib networking: one listening socket, an acceptor thread,
and a fixed pool of worker threads each serving one connection at a
time from a shared queue (the pool size therefore bounds concurrent
connections — queued connections wait, they are not dropped).  The
protocol is newline-delimited JSON (:mod:`repro.service.protocol`).

Operational behaviour:

* **per-request deadline** — each request gets
  ``now + request_timeout``; the engine checks it at its iteration
  checkpoints and the request fails with a structured ``timeout``
  error instead of wedging a worker;
* **structured errors** — malformed JSON, unknown ops, bad arguments
  and internal faults all produce ``{"ok": false, "error": ...}``
  responses; a connection is only closed on EOF, idle timeout, or
  transport failure;
* **graceful shutdown** — SIGINT (or a ``shutdown`` request, or
  :meth:`SummaryQueryServer.shutdown`) stops accepting, lets every
  worker finish its in-flight request, flushes responses, closes
  connections, and logs a final stats line;
* **load shedding** — with ``max_pending`` set, a connection arriving
  while that many accepted connections already wait unserved gets one
  structured ``overloaded`` error and an immediate close instead of
  an unbounded queue (counted in ``service_shed_total``);
* **circuit breaker** — with a
  :class:`~repro.resilience.breaker.CircuitBreaker` attached,
  consecutive *internal* engine faults open the breaker and requests
  are rejected cheaply with ``overloaded`` errors until the reset
  window lets a probe through;
* **mutable engines** — serving a
  :class:`~repro.service.ingest.MutableQueryEngine` additionally
  enables the ``ingest`` op; the server itself needs no special
  handling (ingest rides the normal ``query`` path), but error
  responses, like successes, are stamped with the engine's
  read-consistency ``epoch`` so a client can always tell which state
  a verdict was issued against.

Fault-injection site: ``server:accept`` (a scheduled ``drop`` fault
closes the freshly-accepted connection, the client sees a peer
reset).
"""

from __future__ import annotations

import logging
import queue
import signal
import socket
import threading
import time

from repro.service.engine import QueryEngine, QueryError
from repro.obs.context import TraceContext
from repro.obs.tracer import get_tracer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import active_injector
from repro.service.metrics import MetricsLogger
from repro.service.protocol import (
    LineReader,
    ProtocolError,
    decode_line,
    encode_message,
    error_response,
    set_kernel_timeout,
    validate_batch_item,
    validate_request,
)

__all__ = ["SummaryQueryServer"]

logger = logging.getLogger("repro.service")

#: Seconds a reply may go without progress (``SO_SNDTIMEO``): a
#: client that stops reading loses its connection after this long
#: instead of holding a worker.  The bound is per stall, so a reply
#: the client takes slowly but steadily still leaves whole.
_SEND_TIMEOUT = 0.2


class SummaryQueryServer:
    """Serve one :class:`QueryEngine` over TCP.

    Parameters
    ----------
    engine:
        The engine to serve; its metrics object also receives the
        server-side counters.
    host / port:
        Bind address.  ``port=0`` picks an ephemeral port — read it
        back from :attr:`address` after :meth:`start`.
    workers:
        Worker-thread pool size == maximum concurrent connections.
    request_timeout:
        Per-request deadline in seconds.
    idle_timeout:
        Close a connection that sends no complete request line
        within this long of its last reply, however its bytes
        trickle in.
    log_interval:
        When set, a daemon thread logs a stats line this often.
    max_pending:
        Bound on accepted-but-unserved connections; arrivals beyond it
        are shed with an ``overloaded`` error.  ``None`` keeps the
        historical unbounded queue.
    breaker:
        Optional circuit breaker around the engine; ``None`` disables
        it.
    """

    def __init__(
        self,
        engine: QueryEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 8,
        request_timeout: float = 10.0,
        idle_timeout: float = 300.0,
        log_interval: float | None = None,
        max_pending: int | None = None,
        breaker: CircuitBreaker | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None)")
        self.engine = engine
        self.metrics = engine.metrics
        self._host = host
        self._port = port
        self._workers = workers
        self._request_timeout = request_timeout
        self._idle_timeout = idle_timeout
        self._log_interval = log_interval
        self._max_pending = max_pending
        self._breaker = breaker
        self._socket: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._connections: queue.Queue = queue.Queue()
        self._stop_event = threading.Event()
        #: Connections a worker is serving.  Guarded by
        #: ``_live_lock``, which also orders a worker adopting a
        #: connection against :meth:`shutdown` waking them all.  It is
        #: reentrant because a signal handler may call shutdown()
        #: while the main thread is inside it.
        self._live: set[socket.socket] = set()
        self._live_lock = threading.RLock()
        self._started = False
        self._metrics_logger: MetricsLogger | None = None

    # -- lifecycle -------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._socket is None:
            raise RuntimeError("server is not started")
        return self._socket.getsockname()[:2]

    def start(self) -> "SummaryQueryServer":
        """Bind, listen, and spin up the acceptor + worker pool."""
        if self._started:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            listener.listen(128)
        except OSError:
            listener.close()
            raise
        self._socket = listener
        self._started = True
        acceptor = threading.Thread(
            target=self._accept_loop, name="repro-acceptor", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)
        for i in range(self._workers):
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"repro-worker-{i}",
                daemon=True,
            )
            worker.start()
            self._threads.append(worker)
        if self._stop_event.is_set():
            self.shutdown()  # stopped before starting: wake the threads
        if self._log_interval:
            self._metrics_logger = MetricsLogger(
                self.metrics, self._log_interval
            )
            self._metrics_logger.start()
        host, port = self.address
        describe = getattr(self.engine, "describe", None)
        if callable(describe):
            # Router-style engines serve no representation of their own.
            what = describe()
        else:
            rep = self.engine.representation
            what = f"summary (n={rep.n}, |P|={rep.num_supernodes})"
        logger.info(
            "serving %s on %s:%d with %d workers",
            what, host, port, self._workers,
        )
        return self

    def serve_forever(self, install_signal_handlers: bool = True) -> None:
        """Block until shutdown; optionally wire SIGINT/SIGTERM to a
        graceful stop (only possible from the main thread).

        Handler installation happens *inside* the ``try`` whose
        ``finally`` restores the previous handlers, so no exception —
        during installation, serving, or shutdown — can leave the
        process with the server's handlers still installed.
        """
        self.start()
        previous: dict[int, object] = {}
        in_main = threading.current_thread() is threading.main_thread()
        try:
            if install_signal_handlers and in_main:
                def _handle(signum, frame):
                    logger.info(
                        "signal %s received, shutting down gracefully",
                        signal.Signals(signum).name,
                    )
                    self.shutdown()

                for signum in (signal.SIGINT, signal.SIGTERM):
                    previous[signum] = signal.signal(signum, _handle)
            self._stop_event.wait()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.close()

    def shutdown(self) -> None:
        """Signal a graceful stop (idempotent, callable from any
        thread, including a worker serving the ``shutdown`` op).

        Nothing polls: the blocked acceptor, workers and connections
        are woken here.  The listener is shut down (its ``accept``
        fails), each worker gets one ``None`` sentinel, and each live
        connection's read side is shut down, so an idle connection
        reads EOF at once.  A request already in flight is still
        answered, because the write side stays open until its worker
        closes the connection."""
        with self._live_lock:
            self._stop_event.set()
            for conn in self._live:
                _shutdown_socket(conn, socket.SHUT_RD)
        # Repeated calls only add sentinels, which close() drains.
        if self._started:
            _shutdown_socket(self._socket, socket.SHUT_RDWR)
            for _ in range(self._workers):
                self._connections.put(None)

    def close(self, timeout: float = 10.0) -> None:
        """Wait for workers to drain in-flight requests and release
        everything; implies :meth:`shutdown`."""
        self.shutdown()
        if self._metrics_logger is not None:
            self._metrics_logger.stop()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()
        # Connections still queued (accepted, never served) are closed
        # now that no worker will pick them up.
        while True:
            try:
                pending = self._connections.get_nowait()
            except queue.Empty:
                break
            if pending is not None:
                self._close_connection(pending[0])
        if self._socket is not None:
            self._socket.close()
        if self._started:
            logger.info("final %s", self.metrics.log_line())
            self._started = False

    def __enter__(self) -> "SummaryQueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- acceptor ---------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop_event.is_set():
            try:
                conn, peer = self._socket.accept()
            except OSError:
                break  # listener shut down by shutdown()
            injector = active_injector()
            if injector is not None:
                try:
                    injector.before("server:accept")
                except ConnectionError:
                    conn.close()  # injected drop: vanish like a peer reset
                    continue
            if (
                self._max_pending is not None
                and self._connections.qsize() >= self._max_pending
            ):
                self._shed_connection(conn, peer)
                continue
            self.metrics.connection_opened()
            self._connections.put((conn, peer))

    def _shed_connection(self, conn: socket.socket, peer) -> None:
        """Load shedding: one structured error, then close."""
        self._arm_deadlines(conn)
        self.metrics.shed()
        logger.warning(
            "shedding connection from %s (%d pending >= max_pending=%d)",
            peer, self._connections.qsize(), self._max_pending,
        )
        self._send(conn, error_response(
            None, "overloaded", "server accept queue is full; retry later"
        ))
        try:
            conn.close()
        except OSError:
            pass

    # -- workers ----------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._connections.get()
            if item is None:
                return  # shutdown()'s sentinel
            conn, peer = item
            try:
                self._serve_connection(conn, peer)
            except Exception:
                logger.exception("connection handler crashed for %s", peer)
            finally:
                self._close_connection(conn)

    def _serve_connection(self, conn: socket.socket, peer) -> None:
        # Each response is its own send: without this, Nagle holds a
        # pipelined client's second answer until its delayed ACK.
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._arm_deadlines(conn)
        with self._live_lock:
            if self._stop_event.is_set():
                return
            self._live.add(conn)
        try:
            self._serve_lines(conn, peer)
        finally:
            with self._live_lock:
                self._live.discard(conn)

    def _serve_lines(self, conn: socket.socket, peer) -> None:
        reader = LineReader(conn)
        idle_since = time.monotonic()
        while not self._stop_event.is_set():
            try:
                line = reader.readline(idle_since + self._idle_timeout)
            except (socket.timeout, BlockingIOError):  # idle deadline
                logger.info("closing idle connection from %s", peer)
                return
            except ProtocolError as exc:
                # Unterminated oversized line: the stream is beyond
                # recovery; report once and drop the connection.
                self._send(conn, error_response(None, "bad_request", str(exc)))
                return
            except OSError:
                return
            if line is None or self._stop_event.is_set():
                return  # client closed, or shutdown() woke the read
            if not line.strip():
                continue
            response, stop_after = self._handle_line(line)
            if not self._send(conn, response):
                return
            idle_since = time.monotonic()
            if stop_after:
                self.shutdown()
                return

    def _handle_line(self, line: bytes) -> tuple[dict, bool]:
        """One request line -> (response dict, stop-server flag)."""
        try:
            request = decode_line(line)
        except ProtocolError as exc:
            self.metrics.protocol_rejected("frame")
            return error_response(None, "bad_request", str(exc)), False
        try:
            validate_request(request)
        except ProtocolError as exc:
            # Schema violations echo the id (when it is echoable) so
            # pipelining clients can pair the rejection to its request.
            return self._schema_error(request, exc), False
        tracer = get_tracer()
        if not tracer.enabled:
            return self._handle_request(request)
        # Adopt the caller's trace context (already validated above)
        # so this span — and every span nested under it, including
        # fan-outs to further shards — joins the caller's trace.  The
        # span closes (and hits the tracer's sink) before the response
        # is sent, so a collector reading after the client saw the
        # reply never races the span file.
        context = None
        wire_trace = request.get("trace")
        if wire_trace is not None:
            context = TraceContext.from_wire(wire_trace)
        with tracer.span(
            "service:request", context=context, op=request.get("op")
        ) as span:
            response, stop_after = self._handle_request(request)
            span.set(ok=bool(response.get("ok")))
            if wire_trace is not None and isinstance(response, dict):
                response["trace"] = TraceContext.from_span(span).to_wire()
            return response, stop_after

    def _handle_request(self, request: dict) -> tuple[dict, bool]:
        deadline = time.monotonic() + self._request_timeout
        op = request["op"]
        breaker = self._breaker
        if breaker is not None and op != "shutdown" and not breaker.allow():
            self.metrics.breaker_rejected()
            return error_response(
                request, "overloaded", "circuit breaker open; retry later"
            ), False
        try:
            if op == "shutdown":
                self.metrics.observe("shutdown", 0.0)
                return {
                    "id": request.get("id"),
                    "ok": True,
                    "op": "shutdown",
                    "result": "shutting down",
                }, True
            if op == "batch":
                response = self._handle_batch(request, deadline), False
            else:
                response = self.engine.query(request, deadline), False
            if breaker is not None:
                breaker.record_success()
            return response
        except QueryError as exc:
            # Client errors and per-request timeouts are not evidence
            # the engine is sick; they do not trip the breaker.
            if breaker is not None:
                breaker.record_success()
            response = error_response(request, exc.kind, str(exc))
            epoch = getattr(self.engine, "epoch", None)
            if isinstance(epoch, int):
                response["epoch"] = epoch
            return response, False
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            if breaker is not None:
                opened_before = breaker.times_opened
                breaker.record_failure()
                if breaker.times_opened > opened_before:
                    self.metrics.breaker_opened()
                    logger.error(
                        "circuit breaker opened after %d consecutive "
                        "internal failures", breaker.failure_threshold,
                    )
            logger.exception("internal error answering %r", op)
            return error_response(
                request, "internal", f"{type(exc).__name__}: {exc}"
            ), False

    def _handle_batch(self, request: dict, deadline: float) -> dict:
        """Every item passes :func:`validate_batch_item` first; an
        invalid one is answered inline like an invalid frame, and only
        the valid ones reach the engine.  Answers keep item order."""
        started = time.perf_counter()
        responses: list = []
        valid: list[dict] = []
        for item in request["requests"]:
            try:
                valid.append(validate_batch_item(item))
                responses.append(None)
            except ProtocolError as exc:
                responses.append(self._schema_error(item, exc))
        answers = iter(self.engine.query_many(valid, deadline))
        responses = [
            next(answers) if response is None else response
            for response in responses
        ]
        self.metrics.observe("batch", time.perf_counter() - started)
        return {
            "id": request.get("id"),
            "ok": True,
            "op": "batch",
            "result": responses,
        }

    # -- plumbing ----------------------------------------------------------
    def _schema_error(self, request: dict, exc: ProtocolError) -> dict:
        """A ``bad_request`` for a decoded frame or batch item that
        failed validation, counted as a schema rejection."""
        self.metrics.protocol_rejected("schema")
        return error_response(request, "bad_request", str(exc))

    def _arm_deadlines(self, conn: socket.socket) -> None:
        """Set ``conn``'s deadlines once: a read waits at most
        ``idle_timeout``, a send stalls at most ``_SEND_TIMEOUT``, and
        each is one syscall, not a ``settimeout`` and a poll."""
        conn.setblocking(True)
        set_kernel_timeout(conn, socket.SO_RCVTIMEO, self._idle_timeout)
        set_kernel_timeout(conn, socket.SO_SNDTIMEO, _SEND_TIMEOUT)

    def _send(self, conn: socket.socket, message: dict) -> bool:
        try:
            conn.sendall(encode_message(message))
            return True
        except OSError:
            return False

    def _close_connection(self, conn: socket.socket) -> None:
        try:
            conn.close()
        finally:
            self.metrics.connection_closed()


def _shutdown_socket(sock: socket.socket, how: int) -> None:
    """``sock.shutdown(how)``, ignoring a socket the peer or its owner
    already closed."""
    try:
        sock.shutdown(how)
    except OSError:
        pass
