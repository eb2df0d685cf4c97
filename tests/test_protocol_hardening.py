"""Wire-protocol hardening tests: schema validation on both halves.

Covers the request validator (field whitelists, type checks, k and
batch caps, ``replicate`` frames), the response validator the client
applies to everything a server sends back, the client-side frame cap
against hostile servers, and socket-level adversarial frames against a
live server (structured error, echoed id, connection survival), batch
items included: each is schema-checked like a frame and refused inline.
"""

import json
import socket
import threading

import pytest

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.dynamic.summary import DynamicGraphSummary
from repro.resilience.breaker import CircuitBreaker
from repro.service import (
    MutableQueryEngine,
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


#: A well-formed ``replicate`` promotion carrying every optional field.
_REPLICATE = {
    "id": 1, "op": "replicate", "term": 2, "after_lsn": 0,
    "frames": "", "promote": True,
    "followers": [["127.0.0.1", 7001]], "acks": "leader",
}


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
            _REPLICATE,
            {"op": "replicate", "term": 1, "snapshot": {}},
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

    @pytest.mark.parametrize(
        "overrides, match",
        [
            pytest.param({"term": 0}, "'term'", id="term-zero"),
            pytest.param({"term": True}, "'term'", id="term-bool"),
            pytest.param({"term": "2"}, "'term'", id="term-string"),
            pytest.param({"after_lsn": -1}, "'after_lsn'", id="after-lsn"),
            pytest.param({"promote": "yes"}, "'promote'", id="promote"),
            pytest.param({"acks": "bogus"}, "acks mode", id="acks"),
            pytest.param({"frames": [{"lsn": 1}]}, "'frames'",
                         id="frames-not-string"),
            pytest.param({"records": [{"lsn": 1}]},
                         "does not accept field.*'records'",
                         id="records-unknown"),
            pytest.param({"snapshot": []}, "'snapshot'",
                         id="snapshot-not-object"),
            pytest.param({"followers": [["h", 7001]] * 65}, "at most 64",
                         id="followers-over-cap"),
            pytest.param({"followers": [["h", "x"]]}, "#0 must be",
                         id="follower-port-string"),
            pytest.param({"followers": [["h", 1], ["h", 65536]]},
                         "#1 must be", id="follower-port-range"),
            pytest.param({"followers": ["h:7001"]}, "#0 must be",
                         id="follower-not-list"),
        ],
    )
    def test_malformed_replicate_rejected(self, overrides, match):
        with pytest.raises(ProtocolError, match=match):
            validate_request({**_REPLICATE, **overrides})


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


class TestBatchItemsValidated:
    """Every ``batch`` item passes the same schema check as a frame:
    an invalid item is answered inline with the frame's error body
    and never reaches the engine, and its neighbours are still
    served, in order."""

    @pytest.fixture
    def mutable_server(self, rep):
        engine = MutableQueryEngine(
            DynamicGraphSummary.from_representation(rep), cache_size=64
        )
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=60.0)
        with SummaryQueryServer(
            engine, workers=2, request_timeout=5.0, breaker=breaker
        ) as srv:
            yield srv

    @staticmethod
    def _batch(server, *items) -> list:
        response = _raw_exchange(
            server,
            json.dumps({"id": "b", "op": "batch", "requests": list(items)})
            .encode() + b"\n",
        )
        assert response["ok"] is True, response
        assert len(response["result"]) == len(items)
        return response["result"]

    @staticmethod
    def _refused(answer: dict) -> None:
        assert answer["ok"] is False
        assert answer["error"]["type"] == "bad_request"

    @pytest.mark.parametrize(
        "item",
        [
            pytest.param({"id": 1, "op": "replicate", "term": 20,
                          "promote": True, "followers": [["h", "x"]]},
                         id="follower-port"),
            pytest.param({"id": 1, "op": "replicate", "term": 20,
                          "promote": True, "acks": "bogus"}, id="acks"),
        ],
    )
    def test_malformed_replicate_item_changes_nothing(
        self, mutable_server, item
    ):
        engine = mutable_server.engine
        before = (engine.term, engine.role, engine.acks)
        for _ in range(3):
            answer, = self._batch(mutable_server, item)
            self._refused(answer)
            assert answer["id"] == 1
        assert (engine.term, engine.role, engine.acks) == before
        assert mutable_server._breaker.state == CircuitBreaker.CLOSED
        assert self._batch(
            mutable_server, {"op": "neighbors", "node": 0}
        )[0]["ok"] is True

    @pytest.mark.parametrize(
        "item",
        [
            pytest.param({"id": 1, "op": "khop", "node": 0, "k": 100000},
                         id="khop-k"),
            pytest.param({"id": 1, "op": "ping", "bogus": 1},
                         id="unknown-field"),
            pytest.param({"id": 1, "op": "batch", "requests": []},
                         id="nested-batch"),
            pytest.param({"id": 1, "op": "shutdown"}, id="shutdown"),
        ],
    )
    def test_invalid_item_refused_and_counted(self, server, item):
        before = _count_rejected(server, "schema")
        answer, = self._batch(server, item)
        self._refused(answer)
        assert (answer["id"], answer["op"]) == (1, item["op"])
        assert _count_rejected(server, "schema") == before + 1

    def test_non_scalar_item_id_not_reflected(self, server):
        answer, = self._batch(server, {"id": {"x": 1}, "op": "ping"})
        self._refused(answer)
        assert answer["id"] is None

    def test_valid_items_answered_in_position(self, server):
        answers = self._batch(
            server,
            {"id": 0, "op": "degree", "node": 0},
            {"id": 1, "op": "ping", "bogus": 1},
            {"id": 2, "op": "ping"},
            {"id": 3, "op": "khop", "node": 0, "k": 100000},
            {"id": 4, "op": "neighbors", "node": 0},
        )
        assert [a["id"] for a in answers] == [0, 1, 2, 3, 4]
        assert [a["ok"] for a in answers] == [True, False, True, False, True]
        assert answers[2]["result"] == "pong"
        assert answers[0]["result"] == len(answers[4]["result"])


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
