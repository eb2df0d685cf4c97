"""Wire-protocol hardening tests: schema validation on both halves.

Covers the request validator (field whitelists, type checks, k and
batch caps), the response validator the client applies to everything
a server sends back, the client-side frame cap against hostile
servers, and socket-level adversarial frames against a live server
(structured error, echoed id, connection survival).
"""

import json
import socket
import threading

import pytest

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.service import (
    QueryEngine,
    SummaryQueryServer,
    SummaryServiceClient,
)
from repro.service.protocol import (
    MAX_BATCH_REQUESTS,
    MAX_KHOP_K,
    MAX_LINE_BYTES,
    LineReader,
    ProtocolError,
    validate_request,
    validate_response,
)


@pytest.fixture(scope="module")
def rep():
    from repro.graph import generators

    graph = generators.planted_partition(120, 8, 0.7, 0.02, seed=7)
    return (
        MagsDMSummarizer(iterations=6, seed=1)
        .summarize(graph)
        .representation
    )


@pytest.fixture
def server(rep):
    engine = QueryEngine(rep, cache_size=128)
    with SummaryQueryServer(engine, workers=4, request_timeout=5.0) as srv:
        yield srv


def _raw_exchange(server, payload: bytes) -> dict:
    """Send raw bytes on a fresh socket, return the first response."""
    host, port = server.address
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.settimeout(5.0)
        sock.sendall(payload)
        buffer = b""
        while b"\n" not in buffer:
            chunk = sock.recv(65536)
            assert chunk, "server closed without a structured response"
            buffer += chunk
        return json.loads(buffer.split(b"\n", 1)[0])


class TestValidateRequest:
    def test_accepts_every_documented_op(self):
        for request in (
            {"id": 1, "op": "ping"},
            {"id": 2, "op": "neighbors", "node": 5},
            {"id": 3, "op": "degree", "node": 0},
            {"id": 4, "op": "khop", "node": 1, "k": MAX_KHOP_K},
            {"id": 5, "op": "pagerank", "node": 2},
            {"id": 6, "op": "telemetry"},
            {"id": 7, "op": "telemetry", "trace": {"id": "ab" * 8}},
            {"id": 8, "op": "batch", "requests": [{"op": "ping"}]},
            {"op": "shutdown"},
        ):
            assert validate_request(request) is request

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request({"id": 1, "op": "eval"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="does not accept field"):
            validate_request({"id": 1, "op": "ping", "payload": "x"})

    def test_non_scalar_id_rejected(self):
        with pytest.raises(ProtocolError, match="scalar"):
            validate_request({"id": [1], "op": "ping"})

    def test_non_integer_node_rejected(self):
        for node in ("5", 1.5, None, True):
            with pytest.raises(ProtocolError):
                validate_request({"id": 1, "op": "degree", "node": node})

    def test_k_range_enforced(self):
        base = {"id": 1, "op": "khop", "node": 0}
        with pytest.raises(ProtocolError):
            validate_request({**base, "k": MAX_KHOP_K + 1})
        with pytest.raises(ProtocolError):
            validate_request({**base, "k": -1})
        validate_request({**base, "k": 0})

    def test_batch_cap_enforced(self):
        over = [{"op": "ping"}] * (MAX_BATCH_REQUESTS + 1)
        with pytest.raises(ProtocolError, match="exceeds the cap"):
            validate_request({"id": 1, "op": "batch", "requests": over})

    def test_batch_elements_must_be_objects(self):
        with pytest.raises(ProtocolError, match="not a JSON object"):
            validate_request(
                {"id": 1, "op": "batch", "requests": [{"op": "ping"}, 42]}
            )


class TestValidateResponse:
    def test_well_formed_responses_pass(self):
        ok = {"id": 1, "ok": True, "op": "ping", "result": "pong"}
        err = {
            "id": 2,
            "ok": False,
            "error": {"type": "bad_request", "message": "no"},
        }
        assert validate_response(ok) is ok
        assert validate_response(err) is err

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError):
            validate_response(
                {"id": 1, "ok": True, "result": 1, "sneaky": 2}
            )

    def test_ok_without_result_rejected(self):
        with pytest.raises(ProtocolError):
            validate_response({"id": 1, "ok": True})

    def test_error_must_be_structured(self):
        with pytest.raises(ProtocolError):
            validate_response({"id": 1, "ok": False, "error": "boom"})
        with pytest.raises(ProtocolError):
            validate_response({"id": 1, "ok": False, "error": {"type": 5}})


class TestServerSchemaErrors:
    def test_unknown_field_answered_with_echoed_id(self, server):
        response = _raw_exchange(
            server,
            json.dumps({"id": 99, "op": "ping", "bogus": 1}).encode()
            + b"\n",
        )
        assert response["ok"] is False
        assert response["id"] == 99
        assert response["error"]["type"] == "bad_request"

    def test_retired_stats_frames_are_bad_requests(self, server):
        # ``stats`` and its ``format`` field are gone: both must get a
        # structured bad_request, never an internal error.
        for request in (
            {"id": 5, "op": "stats"},
            {"id": 6, "op": "telemetry", "format": "prometheus"},
        ):
            response = _raw_exchange(
                server, json.dumps(request).encode() + b"\n"
            )
            assert response["ok"] is False
            assert response["id"] == request["id"]
            assert response["error"]["type"] == "bad_request"

    def test_unechoable_id_not_reflected(self, server):
        response = _raw_exchange(
            server,
            json.dumps({"id": {"x": 1}, "op": "ping"}).encode() + b"\n",
        )
        assert response["ok"] is False
        assert response["id"] is None

    def test_huge_k_rejected_before_traversal(self, server):
        response = _raw_exchange(
            server,
            json.dumps(
                {"id": 1, "op": "khop", "node": 0, "k": 10**9}
            ).encode()
            + b"\n",
        )
        assert response["ok"] is False
        assert response["error"]["type"] == "bad_request"

    def test_schema_rejections_counted(self, server):
        before = _count_rejected(server, "schema")
        _raw_exchange(
            server, json.dumps({"id": 1, "op": "nope"}).encode() + b"\n"
        )
        assert _count_rejected(server, "schema") == before + 1

    def test_frame_rejections_counted(self, server):
        before = _count_rejected(server, "frame")
        _raw_exchange(server, b"not json at all\n")
        assert _count_rejected(server, "frame") == before + 1

    def test_connection_survives_schema_error(self, server):
        host, port = server.address
        with SummaryServiceClient(host, port) as client:
            # A schema-invalid request raises but echoes our id, so
            # the stream stays pairable and usable.
            with pytest.raises(Exception):
                client.request("khop", node=0, k=10**9)
            assert client.ping() == "pong"


def _count_rejected(server, reason: str) -> int:
    for labels, metric in server.metrics.registry.family(
        "service_protocol_rejected_total"
    ):
        if labels.get("reason") == reason:
            return int(metric.value)
    return 0


class TestClientFrameCap:
    def test_hostile_server_cannot_balloon_client(self):
        """A server streaming an endless unterminated line must cost
        the client at most ``max_line_bytes`` of buffering."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        stop = threading.Event()

        def hostile():
            conn, _addr = listener.accept()
            conn.recv(65536)  # swallow the request
            junk = b"z" * 65536
            try:
                while not stop.is_set():
                    conn.send(junk)
            except OSError:
                pass  # client hung up, as it should
            finally:
                conn.close()

        thread = threading.Thread(target=hostile, daemon=True)
        thread.start()
        try:
            client = SummaryServiceClient(
                host, port, timeout=5.0, max_line_bytes=1 << 16
            )
            with pytest.raises(ProtocolError, match="exceeds"):
                client.ping()
            # The stream is untrustworthy now: fail fast, do not retry.
            assert not client.usable
            with pytest.raises(ConnectionError):
                client.ping()
            client.close()
        finally:
            stop.set()
            listener.close()
            thread.join(timeout=5.0)

    def test_reader_cap_is_parametrized(self):
        a, b = socket.socketpair()
        try:
            reader = LineReader(a, max_line_bytes=8)
            b.sendall(b"0123456789abcdef")  # 16 bytes, no newline
            with pytest.raises(ProtocolError, match="exceeds"):
                reader.readline()
        finally:
            a.close()
            b.close()

    def test_default_cap_matches_protocol_constant(self):
        a, b = socket.socketpair()
        try:
            assert LineReader(a)._max_line_bytes == MAX_LINE_BYTES
        finally:
            a.close()
            b.close()

    def test_schema_invalid_response_marks_client_unusable(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def liar():
            conn, _addr = listener.accept()
            conn.recv(65536)
            # Decodes fine but violates the response schema.
            conn.sendall(b'{"id": 1, "ok": true}\n')
            conn.close()

        thread = threading.Thread(target=liar, daemon=True)
        thread.start()
        try:
            client = SummaryServiceClient(host, port, timeout=5.0)
            with pytest.raises(ProtocolError):
                client.ping()
            assert not client.usable
            client.close()
        finally:
            listener.close()
            thread.join(timeout=5.0)
