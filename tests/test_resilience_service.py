"""Service-layer resilience: desync handling, oversized lines, load
shedding, the circuit breaker, degraded mode, and signal restoration.
"""

import json
import signal
import socket
import threading
import time

import pytest

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.graph import generators
from repro.obs.metrics import get_registry
from repro.queries.neighbors import neighbor_query
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultInjector, FaultPlan, use_injector
from repro.resilience.retry import RetryPolicy
from repro.service.client import SummaryServiceClient
from repro.service.engine import QueryEngine, QueryError, QueryTimeout
from repro.service.protocol import (
    MAX_LINE_BYTES,
    LineReader,
    ProtocolError,
    decode_line,
    encode_message,
)
from repro.service.server import SummaryQueryServer


@pytest.fixture(scope="module")
def rep():
    graph = generators.planted_partition(120, 8, 0.7, 0.02, seed=42)
    return MagsDMSummarizer(iterations=6, seed=1).summarize(
        graph
    ).representation


# ---------------------------------------------------------------------------
# Desynchronized responses (id mismatch)
# ---------------------------------------------------------------------------
class _StubServer:
    """Accepts connections sequentially and answers each first request
    with ``responder(request) -> response dict`` from a per-connection
    list; used to fake protocol violations a real server never
    commits."""

    def __init__(self, responders):
        self._responders = list(responders)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        for responder in self._responders:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                reader = LineReader(conn)
                line = reader.readline()
                if line:
                    request = decode_line(line)
                    conn.sendall(encode_message(responder(request)))
            except OSError:
                pass
            finally:
                conn.close()

    def close(self):
        self._listener.close()
        self._thread.join(timeout=5)


def _wrong_id(request):
    return {
        "id": (request.get("id") or 0) + 1000,
        "ok": True,
        "op": request.get("op"),
        "result": "pong",
    }


def _correct(request):
    return {
        "id": request.get("id"),
        "ok": True,
        "op": request.get("op"),
        "result": "pong",
    }


class TestDesynchronizedClient:
    def test_id_mismatch_closes_and_marks_unusable(self):
        stub = _StubServer([_wrong_id])
        try:
            client = SummaryServiceClient(*stub.address, timeout=5.0)
            with pytest.raises(ConnectionError, match="does not match"):
                client.ping()
            assert not client.usable
            assert client._sock is None  # socket torn down immediately
            # Subsequent calls fail fast without touching the network.
            with pytest.raises(ConnectionError, match="unusable"):
                client.ping()
        finally:
            stub.close()

    def test_id_mismatch_with_retry_policy_replays_on_fresh_connection(self):
        stub = _StubServer([_wrong_id, _correct])
        try:
            client = SummaryServiceClient(
                *stub.address, timeout=5.0,
                retry_policy=RetryPolicy(
                    max_attempts=3, base_delay=0.001, max_delay=0.01
                ),
            )
            assert client.ping() == "pong"
            assert client.usable
        finally:
            stub.close()


# ---------------------------------------------------------------------------
# Oversized unterminated lines
# ---------------------------------------------------------------------------
class _ScriptedSock:
    """Duck-typed socket feeding ``recv`` from a chunk list."""

    def __init__(self, chunks):
        self._chunks = list(chunks)

    def recv(self, size):
        return self._chunks.pop(0) if self._chunks else b""


class TestOversizedLine:
    def test_reader_poisoned_after_oversized_unterminated_line(self):
        chunk = b"x" * 65536
        reader = LineReader(_ScriptedSock([chunk] * 20))
        with pytest.raises(ProtocolError, match="unterminated line exceeds"):
            reader.readline()
        # The stream has no recoverable framing left: every subsequent
        # read must keep failing instead of emitting garbage lines.
        with pytest.raises(ProtocolError, match="beyond resynchronization"):
            reader.readline()

    def test_terminated_long_line_is_rejected_but_stream_recovers(self):
        # A line whose terminator does arrive is framable: the reader
        # hands it over, decode_line rejects it (bad_request), and the
        # stream keeps working — only *unterminated* overruns poison.
        oversized = b"y" * (MAX_LINE_BYTES + 10) + b"\n"
        ping = encode_message({"id": 1, "op": "ping"})
        reader = LineReader(
            _ScriptedSock(
                [oversized[i: i + 65536]
                 for i in range(0, len(oversized), 65536)]
                + [ping]
            )
        )
        line = reader.readline()
        assert len(line) > MAX_LINE_BYTES
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_line(line)
        assert decode_line(reader.readline()) == {"id": 1, "op": "ping"}

    def test_server_sends_one_bad_request_then_closes(self, rep):
        engine = QueryEngine(rep, cache_size=64)
        with SummaryQueryServer(engine, workers=2) as server:
            with socket.create_connection(server.address, timeout=10) as sock:
                # One recv chunk past the bound, no terminator anywhere.
                sock.sendall(b"z" * (MAX_LINE_BYTES + 65536 + 1))
                data = b""
                while not data.endswith(b"\n"):
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                response = json.loads(data.decode())
                assert response["ok"] is False
                assert response["error"]["type"] == "bad_request"
                assert "unterminated line" in response["error"]["message"]
                # Exactly one error response, then the connection is
                # dropped (a reset if our unread bytes were pending).
                try:
                    assert sock.recv(65536) == b""
                except ConnectionResetError:
                    pass


# ---------------------------------------------------------------------------
# Load shedding
# ---------------------------------------------------------------------------
class TestLoadShedding:
    def test_overloaded_error_when_accept_queue_full(self, rep):
        engine = QueryEngine(rep, cache_size=64)
        server = SummaryQueryServer(
            engine, workers=1, max_pending=1, request_timeout=5.0
        )
        with server:
            shed = engine.metrics.registry.counter("service_shed_total")
            shed_before = shed.value
            # Occupy the single worker: a served connection that then
            # sits idle mid-session.
            busy = SummaryServiceClient(*server.address, timeout=10.0)
            assert busy.ping() == "pong"
            # Fill the accept queue with one unserved connection.
            queued = socket.create_connection(server.address, timeout=10)
            deadline = time.monotonic() + 5.0
            while (
                server._connections.qsize() < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert server._connections.qsize() == 1
            # The next arrival must be shed with a structured error.
            with socket.create_connection(
                server.address, timeout=10
            ) as extra:
                reader = LineReader(extra)
                response = decode_line(reader.readline())
                assert response["ok"] is False
                assert response["error"]["type"] == "overloaded"
                assert reader.readline() is None  # then closed
            assert shed.value == shed_before + 1
            queued.close()
            busy.close()

    def test_max_pending_validation(self, rep):
        engine = QueryEngine(rep, cache_size=64)
        with pytest.raises(ValueError, match="max_pending"):
            SummaryQueryServer(engine, max_pending=0)


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=30.0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.times_opened == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_single_winner(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.now += 10.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        # Exactly one caller wins the probe slot.
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_failed_probe_rearms_the_window(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10.0, clock=clock
        )
        breaker.record_failure()
        clock.now += 10.0
        assert breaker.allow()  # probe
        breaker.record_failure()
        clock.now += 5.0  # only half the window since the failed probe
        assert not breaker.allow()
        clock.now += 5.0
        assert breaker.allow()

    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="reset_timeout"):
            CircuitBreaker(reset_timeout=-1.0)


class TestBreakerInServer:
    def _server(self, rep, breaker):
        # _handle_request needs no sockets; the server is never started.
        engine = QueryEngine(rep, cache_size=64)
        return SummaryQueryServer(engine, breaker=breaker)

    def test_internal_faults_open_breaker_and_reject(self, rep):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60.0)
        server = self._server(rep, breaker)
        server.engine.query = _raise_runtime_error
        registry = server.metrics.registry
        opened = registry.counter("service_breaker_open_total")
        opened_before = opened.value
        for i in range(2):
            response, _ = server._handle_request({"id": i, "op": "ping"})
            assert response["error"]["type"] == "internal"
        assert breaker.state == CircuitBreaker.OPEN
        response, _ = server._handle_request({"id": 3, "op": "ping"})
        assert response["error"]["type"] == "overloaded"
        assert "circuit breaker" in response["error"]["message"]
        assert opened.value == opened_before + 1
        rejected = registry.counter("service_breaker_rejected_total")
        assert rejected.value >= 1

    def test_query_errors_do_not_trip_the_breaker(self, rep):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=60.0)
        server = self._server(rep, breaker)
        for i in range(5):
            response, _ = server._handle_request(
                {"id": i, "op": "neighbors", "node": 10**9}
            )
            assert response["error"]["type"] == "bad_request"
        assert breaker.state == CircuitBreaker.CLOSED

    def test_shutdown_bypasses_an_open_breaker(self, rep):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=60.0)
        server = self._server(rep, breaker)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        response, stop = server._handle_request({"id": 1, "op": "shutdown"})
        assert response["ok"] is True
        assert stop is True


def _raise_runtime_error(request, deadline=None):
    raise RuntimeError("engine exploded")


# ---------------------------------------------------------------------------
# Degraded mode
# ---------------------------------------------------------------------------
class TestDegradedMode:
    def test_khop_truncated_and_flagged(self, rep):
        engine = QueryEngine(rep, cache_size=64, degraded=True)
        node = rep.reconstruct_edges().pop()[0]
        expired = time.monotonic()
        response = engine.query(
            {"id": 1, "op": "khop", "node": node, "k": 3}, deadline=expired
        )
        assert response["ok"] is True
        assert response["degraded"] is True
        assert response["result"][str(node)] == 0  # at least the origin
        degraded = engine.metrics.registry.counter(
            "service_degraded_total", op="khop"
        )
        assert degraded.value >= 1

    def test_pagerank_estimate_flagged(self, rep):
        engine = QueryEngine(rep, cache_size=64, degraded=True)
        node = rep.reconstruct_edges().pop()[0]
        expired = time.monotonic()
        response = engine.query(
            {"id": 1, "op": "pagerank", "node": node}, deadline=expired
        )
        assert response["ok"] is True
        assert response["degraded"] is True
        assert isinstance(response["result"], float)
        assert response["result"] > 0.0
        degraded = engine.metrics.registry.counter(
            "service_degraded_total", op="pagerank"
        )
        assert degraded.value >= 1

    def test_unexpired_deadline_is_not_flagged(self, rep):
        engine = QueryEngine(rep, cache_size=64, degraded=True)
        node = rep.reconstruct_edges().pop()[0]
        response = engine.query(
            {"id": 1, "op": "khop", "node": node, "k": 2},
            deadline=time.monotonic() + 60.0,
        )
        assert response["ok"] is True
        assert "degraded" not in response

    def test_without_degraded_mode_expired_deadline_times_out(self, rep):
        engine = QueryEngine(rep, cache_size=64)
        node = rep.reconstruct_edges().pop()[0]
        with pytest.raises(QueryTimeout):
            engine.query(
                {"id": 1, "op": "khop", "node": node, "k": 3},
                deadline=time.monotonic(),
            )

    def test_non_degradable_ops_still_time_out(self, rep):
        engine = QueryEngine(rep, cache_size=64, degraded=True)
        with pytest.raises(QueryError):
            engine.query({"id": 1, "op": "ping"}, deadline=time.monotonic())


# ---------------------------------------------------------------------------
# Connection-drop retry against a real server
# ---------------------------------------------------------------------------
class TestClientRetry:
    def test_client_reconnects_after_injected_drop(self, rep):
        engine = QueryEngine(rep, cache_size=64)
        retries = get_registry().counter(
            "repro_resilience_retries_total", component="service_client"
        )
        before = retries.value
        with SummaryQueryServer(engine, workers=2) as server:
            client = SummaryServiceClient(
                *server.address, timeout=10.0,
                retry_policy=RetryPolicy(
                    max_attempts=3, base_delay=0.001, max_delay=0.01
                ),
                retry_budget=10.0,
            )
            injector = FaultInjector(
                FaultPlan().drop("client:send", after=1, times=1)
            )
            node = 17
            with use_injector(injector):
                assert client.ping() == "pong"  # hit 1: untouched
                got = client.neighbors(node)  # hit 2: dropped + retried
            assert injector.fired_count("client:send") == 1
            assert set(got) == neighbor_query(rep, node)
            assert retries.value > before
            assert client.usable
            client.close()

    def test_client_without_policy_fails_fast_on_drop(self, rep):
        engine = QueryEngine(rep, cache_size=64)
        with SummaryQueryServer(engine, workers=2) as server:
            client = SummaryServiceClient(*server.address, timeout=10.0)
            injector = FaultInjector(FaultPlan().drop("client:send"))
            with use_injector(injector):
                with pytest.raises(ConnectionError):
                    client.ping()
            # A transport drop (unlike a desync) is retryable by hand:
            # the next request reconnects.
            assert client.usable
            assert client.ping() == "pong"
            client.close()


# ---------------------------------------------------------------------------
# Signal-handler restoration
# ---------------------------------------------------------------------------
class TestServeForeverSignals:
    def test_previous_handlers_restored_after_shutdown(self, rep):
        def sentinel(signum, frame):  # pragma: no cover - never fired
            pass

        originals = {
            signum: signal.signal(signum, sentinel)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
        try:
            engine = QueryEngine(rep, cache_size=64)
            server = SummaryQueryServer(engine, workers=1)
            threading.Timer(0.2, server.shutdown).start()
            server.serve_forever()
            for signum in (signal.SIGINT, signal.SIGTERM):
                assert signal.getsignal(signum) is sentinel
        finally:
            for signum, handler in originals.items():
                signal.signal(signum, handler)

    def test_handlers_untouched_when_not_requested(self, rep):
        before = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
        engine = QueryEngine(rep, cache_size=64)
        server = SummaryQueryServer(engine, workers=1)
        threading.Timer(0.2, server.shutdown).start()
        server.serve_forever(install_signal_handlers=False)
        for signum, handler in before.items():
            assert signal.getsignal(signum) is handler


# ---------------------------------------------------------------------------
# rss_peak_mb fallback when the resource module is unavailable
# ---------------------------------------------------------------------------
class TestRssPeakFallback:
    def test_returns_none_without_resource_module(self, monkeypatch):
        import repro.bench.runner as runner

        monkeypatch.setattr(runner, "resource", None)
        assert runner.rss_peak_mb() is None

    def test_reporting_renders_missing_rss_as_dash(self):
        from repro.bench.reporting import format_table

        table = format_table(
            [{"dataset": "CA", "rss_peak_mb": None}],
            columns=["dataset", "rss_peak_mb"],
        )
        row = table.splitlines()[-1]
        assert "-" in row
        assert "None" not in table
