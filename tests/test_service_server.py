"""Tests for the TCP server, client, protocol framing and metrics."""

import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.obs import merge_registry_snapshots, registry_to_prometheus
from repro.obs.metrics import counter_total, series_value, worst_p99
from repro.queries.neighbors import neighbor_query
from repro.service import (
    QueryEngine,
    ServiceError,
    ServiceMetrics,
    SummaryQueryServer,
    SummaryServiceClient,
)
from repro.service.engine import LRUCache
from repro.service.protocol import (
    MAX_LINE_BYTES,
    LineReader,
    ProtocolError,
    decode_line,
    encode_message,
)


@pytest.fixture(scope="module")
def rep():
    from repro.graph import generators

    graph = generators.planted_partition(150, 10, 0.7, 0.02, seed=42)
    return (
        MagsDMSummarizer(iterations=8, seed=1)
        .summarize(graph)
        .representation
    )


@pytest.fixture
def server(rep):
    engine = QueryEngine(rep, cache_size=256)
    with SummaryQueryServer(engine, workers=8, request_timeout=5.0) as srv:
        yield srv


@pytest.fixture
def client(server):
    host, port = server.address
    with SummaryServiceClient(host, port) as cli:
        yield cli


#: Messages whose wire bytes must equal ``json.dumps``'s.
WIRE_TABLE = [
    {"id": 1, "op": "neighbors", "node": 5},
    {"id": None, "ok": True, "op": "pagerank", "result": float("nan")},
    {"id": "x", "ok": True, "result": [float("inf"), -float("inf"), 0.1]},
    {"id": "caf\u00e9 \u4e2d\u6587 \U0001f600", "op": "ping"},
    {"id": 2, "ok": True, "result": {"3": 1, "7": {"a": [{"b": {}}]}}},
    {"ok": False, "degraded": True, "epoch": 0, "result": [True, None]},
    {"id": 10**30, "ok": True, "result": [-(2**63), 2**64 + 1]},
    {"id": 3, "op": "khop", "result": {}, "error": {"type": "", "m": []}},
    {"id": "quote\"back\\slash\nnewline\ttab\u0001", "result": -0.0},
]


class TestProtocol:
    def test_roundtrip(self):
        message = {"id": 1, "op": "neighbors", "node": 5}
        assert decode_line(encode_message(message).rstrip(b"\n")) == message

    @pytest.mark.parametrize("message", WIRE_TABLE)
    def test_wire_bytes_are_json_dumps(self, message):
        expected = (json.dumps(message, separators=(",", ":")) + "\n")
        assert encode_message(message) == expected.encode()

    def test_wire_bytes_identical_from_eight_threads(self):
        """The shared encoder holds no per-call state."""
        expected = [
            (json.dumps(m, separators=(",", ":")) + "\n").encode()
            for m in WIRE_TABLE
        ]

        def encode_all(_):
            return [
                [encode_message(m) for m in WIRE_TABLE]
                for _ in range(200)
            ]

        with ThreadPoolExecutor(max_workers=8) as pool:
            for rounds in pool.map(encode_all, range(8)):
                assert all(got == expected for got in rounds)

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_line(b"[1, 2]")

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            decode_line(b"{nope")

    def test_oversized_line_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_line(b" " * (MAX_LINE_BYTES + 1))


class TestBasicOps:
    def test_ping(self, client):
        assert client.ping() == "pong"

    def test_neighbors_and_degree(self, client, rep):
        for q in (0, 7, 149):
            want = neighbor_query(rep, q)
            assert set(client.neighbors(q)) == want
            assert client.degree(q) == len(want)

    def test_khop(self, client):
        distances = client.khop(0, 2)
        assert distances[0] == 0
        assert all(d <= 2 for d in distances.values())

    def test_pagerank(self, client):
        assert isinstance(client.pagerank_score(3), float)

    def test_batch(self, client, rep):
        requests = [
            {"id": i, "op": "neighbors", "node": i % 10} for i in range(40)
        ]
        responses = client.batch(requests)
        assert len(responses) == 40
        assert all(r["ok"] for r in responses)
        assert responses[11]["result"] == sorted(neighbor_query(rep, 1))

    def test_stats(self, client):
        client.neighbors(0)
        telemetry = client.telemetry()
        # Round trip: every number is a registry series.
        assert set(telemetry) == {"instance", "pid", "registry"}
        registry = telemetry["registry"]
        assert series_value(registry, "service_uptime_seconds") >= 0
        assert series_value(registry, "service_cache_entries") >= 1
        assert series_value(registry, "service_cache_capacity") > 0
        requests = {
            entry["labels"]["op"]: entry["value"]
            for entry in registry["service_requests_total"]
        }
        assert requests["neighbors"] >= 1
        assert counter_total(registry, "service_requests_total") == sum(
            requests.values()
        )
        assert worst_p99(registry) > 0
        assert counter_total(registry, "service_connections_active") >= 1


class TestErrors:
    def test_out_of_range_is_structured(self, client):
        with pytest.raises(ServiceError, match="out of range") as info:
            client.neighbors(10**6)
        assert info.value.type == "bad_request"

    def test_unknown_op(self, client):
        with pytest.raises(ServiceError) as info:
            client.request("frobnicate")
        assert info.value.type == "bad_request"

    def test_malformed_json_keeps_connection_alive(self, client):
        client._sock.sendall(b"this is not json\n")
        response = decode_line(client._reader.readline())
        assert response["ok"] is False
        assert response["error"]["type"] == "bad_request"
        # The same connection still answers real requests.
        assert client.ping() == "pong"

    def test_batch_without_list_rejected(self, client):
        with pytest.raises(ServiceError, match="requests"):
            client.request("batch", requests="nope")

    def test_timeout_is_structured(self, rep):
        engine = QueryEngine(rep, cache_size=0)
        with SummaryQueryServer(
            engine, workers=2, request_timeout=0.0
        ) as srv:
            host, port = srv.address
            with SummaryServiceClient(host, port) as cli:
                with pytest.raises(ServiceError) as info:
                    cli.khop(0, 4)
                assert info.value.type == "timeout"


class TestConcurrency:
    def test_eight_threads_zero_mismatches(self, server, rep):
        host, port = server.address
        mismatches = []
        crashes = []

        def worker(tid):
            try:
                with SummaryServiceClient(host, port) as cli:
                    for q in range(tid, rep.n, 8):
                        if set(cli.neighbors(q)) != neighbor_query(rep, q):
                            mismatches.append(q)
                        if not isinstance(cli.pagerank_score(q), float):
                            mismatches.append(("pr", q))
                    responses = cli.batch([
                        {"id": i, "op": "degree", "node": (tid + i) % rep.n}
                        for i in range(25)
                    ])
                    if not all(r["ok"] for r in responses):
                        mismatches.append(("batch", tid))
                    cli.telemetry()
            except Exception as exc:  # pragma: no cover
                crashes.append((tid, repr(exc)))

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert crashes == []
        assert mismatches == []

    def test_sequential_connections_reuse_workers(self, server, rep):
        host, port = server.address
        for _ in range(12):
            with SummaryServiceClient(host, port) as cli:
                assert cli.ping() == "pong"


class TestPipelining:
    def test_pipelined_requests_do_not_wait_for_delayed_acks(
        self, server, rep
    ):
        """64 ``neighbors`` requests in one send: every answer must be
        back well inside one delayed-ACK period (40 ms on Linux).
        Each response is its own send, so without ``TCP_NODELAY`` on
        the accepted socket Nagle holds the second answer of a round
        until the client's delayed ACK (~44 ms per round on
        loopback)."""
        payload = b"".join(
            encode_message({"id": i, "op": "neighbors", "node": i % rep.n})
            for i in range(64)
        )
        rounds = []
        with socket.create_connection(server.address, timeout=5.0) as sock:
            reader = LineReader(sock)
            for _ in range(5):
                started = time.perf_counter()
                sock.sendall(payload)
                for i in range(64):
                    assert decode_line(reader.readline())["id"] == i
                rounds.append(time.perf_counter() - started)
        assert sorted(rounds)[len(rounds) // 2] < 0.02, rounds


class TestShutdown:
    def test_shutdown_op_stops_server(self, rep):
        engine = QueryEngine(rep)
        server = SummaryQueryServer(engine, workers=2).start()
        host, port = server.address
        done = threading.Event()
        thread = threading.Thread(
            target=lambda: (
                server.serve_forever(install_signal_handlers=False),
                done.set(),
            )
        )
        thread.start()
        with SummaryServiceClient(host, port) as cli:
            assert cli.shutdown_server() == "shutting down"
        thread.join(timeout=10)
        assert done.is_set()
        # The listener is gone: new connections are refused.
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)

    def test_close_is_idempotent(self, rep):
        server = SummaryQueryServer(QueryEngine(rep), workers=2).start()
        server.close()
        server.close()

    def test_inflight_request_completes_during_shutdown(self, rep):
        engine = QueryEngine(rep)
        server = SummaryQueryServer(engine, workers=2).start()
        host, port = server.address
        with SummaryServiceClient(host, port) as cli:
            assert cli.ping() == "pong"
            server.shutdown()
            server.close()
        # Connection count balanced after close.
        active = engine.metrics.registry.gauge("service_connections_active")
        assert active.value == 0

    def test_close_with_idle_client_returns_promptly(self, rep):
        """Nothing polls: ``close()`` wakes the acceptor, the workers
        and an idle connection's blocked read itself."""
        server = SummaryQueryServer(QueryEngine(rep), workers=2).start()
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(encode_message({"id": 1, "op": "ping"}))
            assert b"pong" in sock.recv(4096)
            started = time.perf_counter()
            server.close()
            elapsed = time.perf_counter() - started
            # The idle client sees the server end the connection.
            assert sock.recv(4096) == b""
        assert elapsed < 0.05, f"close() took {elapsed:.3f}s"

    def test_request_in_flight_at_shutdown_is_answered(self, rep):
        entered, release = threading.Event(), threading.Event()

        class SlowEngine(QueryEngine):
            def query(self, request, deadline=None):
                entered.set()
                release.wait(timeout=5)
                return super().query(request, deadline)

        server = SummaryQueryServer(SlowEngine(rep), workers=2).start()
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(encode_message({"id": 7, "op": "ping"}))
            assert entered.wait(timeout=5)
            server.shutdown()
            release.set()
            reply = LineReader(sock).readline()
            server.close()
        assert decode_line(reply)["result"] == "pong"

    def test_idle_timeout_closes_connection(self, rep):
        server = SummaryQueryServer(
            QueryEngine(rep), workers=1, idle_timeout=0.1
        ).start()
        try:
            with socket.create_connection(server.address, timeout=5) as sock:
                started = time.perf_counter()
                assert sock.recv(4096) == b""
                assert 0.05 < time.perf_counter() - started < 4
        finally:
            server.close()

    def test_trickling_client_is_closed_at_idle_timeout(self, rep):
        """The idle deadline runs from the last complete request, so a
        client that sends a byte now and then but never ends its line
        is still closed."""
        server = SummaryQueryServer(
            QueryEngine(rep), workers=1, idle_timeout=0.3
        ).start()
        done = threading.Event()

        def trickle(sock):
            while not done.wait(0.05):
                try:
                    sock.sendall(b" ")
                except OSError:
                    return

        try:
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(b'{"id": 1, "op": "ping"')
                sender = threading.Thread(target=trickle, args=(sock,))
                started = time.perf_counter()
                sender.start()
                try:
                    assert sock.recv(4096) == b""
                except ConnectionResetError:
                    pass  # closed with trickled bytes still unread
                elapsed = time.perf_counter() - started
                done.set()
                sender.join()
            assert elapsed < 2.0, f"closed after {elapsed:.2f}s"
        finally:
            done.set()
            server.close()

    def test_request_split_across_reads_is_answered(self, rep):
        """A line that spans reads within the idle deadline is read
        whole, however many reads it takes."""
        server = SummaryQueryServer(
            QueryEngine(rep), workers=1, idle_timeout=2.0
        ).start()
        try:
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for part in (b'{"id": 4', b', "op": ', b'"ping"}\n'):
                    sock.sendall(part)
                    time.sleep(0.05)
                reply = LineReader(sock).readline()
            assert decode_line(reply) == {
                "id": 4, "ok": True, "op": "ping", "result": "pong",
            }
        finally:
            server.close()

    def test_idle_wait_after_split_line_is_full_timeout(self, rep):
        """Reading the rest of a split line shortens the read timeout
        to what is left of the deadline; once the line is complete
        the next idle wait is the whole ``idle_timeout`` again."""
        idle = 0.6
        server = SummaryQueryServer(
            QueryEngine(rep), workers=1, idle_timeout=idle
        ).start()
        try:
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(b'{"id": 5, ')
                time.sleep(0.4)
                sock.sendall(b'"op": ')
                time.sleep(0.05)  # the last read re-arms to ~0.2 s
                sock.sendall(b'"ping"}\n')
                reader = LineReader(sock)
                assert decode_line(reader.readline())["result"] == "pong"
                replied = time.perf_counter()
                assert reader.readline() is None  # the idle close
                waited = time.perf_counter() - replied
            assert 0.75 * idle < waited < 4, f"closed after {waited:.2f}s"
        finally:
            server.close()

    def test_blank_lines_do_not_extend_the_idle_deadline(self, rep):
        """A blank line answers nothing, so the idle deadline still
        runs from the last reply: a client that sends only blank lines
        is closed like one that trickles bytes."""
        server = SummaryQueryServer(
            QueryEngine(rep), workers=1, idle_timeout=0.3
        ).start()
        try:
            with socket.create_connection(server.address, timeout=5) as sock:
                started = time.perf_counter()
                try:
                    while time.perf_counter() - started < 4:
                        sock.sendall(b"\n")
                        time.sleep(0.05)
                except OSError:
                    pass  # closed: the peer reset the next send
                elapsed = time.perf_counter() - started
            assert elapsed < 2.0, f"closed after {elapsed:.2f}s"
        finally:
            server.close()

    def test_client_that_stops_reading_frees_its_worker(self, rep):
        """A reply the client does not take is dropped with its
        connection after a short send deadline: the only worker goes
        on to serve the next client, and close() does not wait on the
        stalled send."""
        server = SummaryQueryServer(QueryEngine(rep), workers=1).start()
        request = encode_message({"id": 1, "op": "khop", "node": 0, "k": 3})
        stalled = socket.socket()
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stalled.connect(server.address)

        def flood():
            # Far more reply bytes than the socket buffers hold; the
            # server stops reading once its send blocks, so this send
            # ends when the server drops the connection.
            try:
                stalled.sendall(request * 20000)
            except OSError:
                pass

        sender = threading.Thread(target=flood)
        sender.start()
        try:
            with SummaryServiceClient(*server.address, timeout=5) as cli:
                assert cli.ping() == "pong"
            started = time.perf_counter()
            server.close()
            elapsed = time.perf_counter() - started
            assert elapsed < 1.0, f"close() took {elapsed:.3f}s"
        finally:
            server.close()
            stalled.close()
            sender.join(timeout=5)


class TestTracing:
    def test_requests_wrapped_in_service_spans(self, client):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            client.neighbors(0)
            client.ping()
        spans = [
            r for r in tracer.records() if r["name"] == "service:request"
        ]
        ops = [r["attrs"]["op"] for r in spans]
        assert ops.count("neighbors") == 1
        assert ops.count("ping") == 1
        assert all(r["attrs"]["ok"] is True for r in spans)

    def test_untraced_requests_record_nothing(self, client):
        client.ping()
        assert not obs.get_tracer().enabled

    def test_prometheus_text_from_telemetry(self, client):
        client.neighbors(0)
        snapshot = client.telemetry()["registry"]
        text = registry_to_prometheus(
            merge_registry_snapshots({"server": snapshot})
        )
        assert "# TYPE service_requests_total counter" in text
        assert (
            'service_requests_total{instance="server",op="neighbors"}'
            in text
        )
        assert "# TYPE service_cache_entries gauge" in text


class TestMetrics:
    def test_snapshot_shape(self):
        metrics = ServiceMetrics()
        metrics.observe("neighbors", 0.002)
        metrics.observe("neighbors", 0.004, ok=False)
        metrics.cache_hit()
        metrics.cache_miss()
        registry = metrics.telemetry(LRUCache(4))["registry"]
        assert series_value(registry, "service_cache_entries") == 0
        assert series_value(registry, "service_cache_capacity") == 4
        assert counter_total(registry, "service_requests_total") == 2
        assert counter_total(registry, "service_errors_total") == 1
        assert counter_total(registry, "service_cache_hits_total") == 1
        (latency,) = registry["service_request_seconds"]
        assert latency["labels"] == {"op": "neighbors"}
        assert latency["count"] == 2

    def test_concurrent_first_observe_loses_no_counts(self):
        # Threads race to build the cached per-op handles; every one
        # must land on the same registry counters and histogram.
        import sys

        metrics = ServiceMetrics()
        threads, per_thread = 16, 500
        start = threading.Barrier(threads)

        def hammer():
            start.wait(timeout=10)
            for _ in range(per_thread):
                metrics.observe("neighbors", 0.001, ok=False)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=hammer) for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        registry = metrics.registry.snapshot()
        total = threads * per_thread
        assert counter_total(registry, "service_requests_total") == total
        assert counter_total(registry, "service_errors_total") == total
        (latency,) = registry["service_request_seconds"]
        assert latency["count"] == total

    def test_log_line_mentions_key_numbers(self):
        metrics = ServiceMetrics()
        metrics.observe("neighbors", 0.001)
        line = metrics.log_line()
        assert "requests=1" in line
        assert "cache_hit_rate=" in line

    def test_uptime_advances(self):
        metrics = ServiceMetrics()
        first = metrics.uptime_s
        time.sleep(0.01)
        assert metrics.uptime_s >= first
