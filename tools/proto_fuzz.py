"""Seeded wire-protocol fuzzer for the summary query service.

Throws a battery of adversarial frames at a live
:class:`~repro.service.server.SummaryQueryServer` — random bytes,
invalid UTF-8, JSON non-objects, truncated JSON, oversized frames
(terminated and unterminated), unknown ops, wrong-typed and
out-of-range parameters, malformed batches, unechoable ids,
malformed/duplicate/rewound/oversized ``ingest`` mutations, malformed
``replicate`` requests (damaged WAL ``frames`` included, which must be
answered ``bad_request``), and each malformed request again as an item of
an otherwise valid ``batch`` — mixed with valid requests, and asserts
the hardening contract:

* **no crash, no hang** — every frame is answered with exactly one
  structured line (or a structured error followed by a close for
  frames that poison the stream);
* **no internal errors** — a malformed *input* must never surface as
  ``error.type == "internal"`` (nor a malformed ``batch`` item as an
  ``internal`` or successful item answer), and the server log must
  contain no
  unhandled exception (any record carrying ``exc_info`` fails the
  run);
* **no connection leak** — after the full battery the
  ``service_connections_active`` gauge returns to its baseline;
* **still serving** — a final valid request round-trips correctly.

Fully deterministic under ``--seed``.  By default an in-process
server on an ephemeral port is fuzzed; ``--host``/``--port`` aim the
battery at an external server instead (gauge and log assertions are
skipped — the process is not ours to inspect).

Run:  PYTHONPATH=src python tools/proto_fuzz.py --frames 500 --seed 0
"""

from __future__ import annotations

import argparse
import base64
import json
import logging
import random
import socket
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.encoding import encode  # noqa: E402
from repro.core.supernodes import SuperNodePartition  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.service import (  # noqa: E402
    SummaryQueryServer,
    SummaryServiceClient,
)
from repro.durability.wal import WalRecord, encode_record  # noqa: E402
from repro.service.protocol import (  # noqa: E402
    MAX_INGEST_MUTATIONS,
    MAX_LINE_BYTES,
    MAX_STREAM_LEN,
)

#: Read deadline per response; a frame that cannot be answered within
#: this window counts as a hang.
READ_TIMEOUT = 10.0


class _ExcInfoCollector(logging.Handler):
    """Collects log records that carry a traceback — each one is an
    exception the server failed to turn into a structured error."""

    def __init__(self):
        super().__init__(level=logging.DEBUG)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        if record.exc_info:
            self.records.append(record)


# ----------------------------------------------------------------------
# frame generators: (category, rng) -> bytes to send on a fresh socket
# ----------------------------------------------------------------------
def _rand_bytes(rng: random.Random) -> bytes:
    payload = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 128)))
    return payload.replace(b"\n", b"\x00") + b"\n"


def _invalid_utf8(rng: random.Random) -> bytes:
    return b'{"op": "ping", "id": "\xff\xfe\x80"}\n'


def _json_non_object(rng: random.Random) -> bytes:
    doc = rng.choice(["[1, 2, 3]", "42", '"ping"', "null", "true", "1.5"])
    return doc.encode() + b"\n"


def _truncated_json(rng: random.Random) -> bytes:
    full = json.dumps({"id": rng.randrange(100), "op": "neighbors", "node": 1})
    return full[: rng.randrange(1, len(full))].encode() + b"\n"


def _missing_op(rng: random.Random) -> bytes:
    return json.dumps({"id": rng.randrange(100)}).encode() + b"\n"


def _unknown_op(rng: random.Random) -> bytes:
    # "stats" is a retired op name: it must get a schema rejection.
    op = rng.choice(
        ["eval", "exec", "drop", "PING", "neighbours", "", "stats"]
    )
    return json.dumps({"id": 1, "op": op}).encode() + b"\n"


def _wrong_typed_node(rng: random.Random) -> bytes:
    node = rng.choice(["abc", 1.5, None, [1], {"n": 1}, True])
    op = rng.choice(["neighbors", "degree", "pagerank"])
    return json.dumps({"id": 2, "op": op, "node": node}).encode() + b"\n"


def _bad_k(rng: random.Random) -> bytes:
    k = rng.choice([-1, 10**9, "two", 2.5, None])
    return (
        json.dumps({"id": 3, "op": "khop", "node": 0, "k": k}).encode()
        + b"\n"
    )


def _unknown_field(rng: random.Random) -> bytes:
    return (
        json.dumps(
            {"id": 4, "op": "ping", rng.choice(["extra", "node", "cmd"]): 1}
        ).encode()
        + b"\n"
    )


def _unechoable_id(rng: random.Random) -> bytes:
    return json.dumps({"id": {"x": 1}, "op": "ping"}).encode() + b"\n"


def _bad_batch(rng: random.Random) -> bytes:
    requests = rng.choice(
        [
            "not-a-list",
            [1, 2, 3],
            [{"op": "ping"}, "junk"],
            [{"op": "ping"}] * 1500,  # over MAX_BATCH_REQUESTS
        ]
    )
    return (
        json.dumps({"id": 5, "op": "batch", "requests": requests}).encode()
        + b"\n"
    )


def _oversized_terminated(rng: random.Random) -> bytes:
    pad = "x" * (MAX_LINE_BYTES + 1024)
    return (
        json.dumps({"id": 6, "op": "ping", "pad": pad}).encode() + b"\n"
    )


def _oversized_unterminated(rng: random.Random) -> bytes:
    # No newline at all: the reader must trip its cap, not buffer
    # forever waiting for one.
    return b"y" * (MAX_LINE_BYTES + 4096)


def _trace_context_valid(rng: random.Random) -> bytes:
    trace = rng.choice(
        [
            {"id": "a" * rng.randrange(1, 65)},
            {"id": "deadbeef-01.Z_x"},
            {"id": "0123456789abcdef", "span": "f" * 16},
        ]
    )
    request = rng.choice(
        [
            {"id": 20, "op": "ping", "trace": trace},
            {"id": 21, "op": "neighbors", "node": rng.randrange(60),
             "trace": trace},
            {"id": 22, "op": "khop", "node": rng.randrange(60), "k": 2,
             "trace": trace},
        ]
    )
    return json.dumps(request).encode() + b"\n"


def _trace_context_malformed(rng: random.Random) -> bytes:
    trace = rng.choice(
        [
            "not-a-dict",
            42,
            [],
            {},  # missing id
            {"span": "f" * 16},  # span without id
            {"id": 123},  # wrong type
            {"id": ""},  # empty
            {"id": "x" * 65},  # over TRACE_ID_MAX_LEN
            {"id": "bad id!"},  # bad charset
            {"id": "ok", "span": 7},  # bad span type
            {"id": "ok", "extra": "field"},  # unknown key
        ]
    )
    return (
        json.dumps({"id": 23, "op": "ping", "trace": trace}).encode()
        + b"\n"
    )


def _telemetry_valid(rng: random.Random) -> bytes:
    return json.dumps({"id": 24, "op": "telemetry"}).encode() + b"\n"


def _telemetry_bad_field(rng: random.Random) -> bytes:
    # "format" is a retired field: no op accepts it.
    extra = rng.choice(["node", "k", "requests", "registry", "format"])
    return (
        json.dumps({"id": 25, "op": "telemetry", extra: 1}).encode()
        + b"\n"
    )


def _ingest_malformed(rng: random.Random) -> bytes:
    request = rng.choice(
        [
            # field-level type confusion
            {"id": 30, "op": "ingest", "seq": 0, "mutations": [["+", 0, 1]]},
            {"id": 30, "op": "ingest", "stream": 7, "seq": 0,
             "mutations": [["+", 0, 1]]},
            {"id": 30, "op": "ingest", "stream": "s", "seq": "zero",
             "mutations": [["+", 0, 1]]},
            {"id": 30, "op": "ingest", "stream": "s", "seq": True,
             "mutations": [["+", 0, 1]]},
            {"id": 30, "op": "ingest", "stream": "s", "seq": -1,
             "mutations": [["+", 0, 1]]},
            {"id": 30, "op": "ingest", "stream": "s", "seq": 0,
             "mutations": "not-a-list"},
            {"id": 30, "op": "ingest", "stream": "s", "seq": 0,
             "mutations": []},
            # mutation-level garbage
            {"id": 30, "op": "ingest", "stream": "s", "seq": 0,
             "mutations": [["+", 0]]},
            {"id": 30, "op": "ingest", "stream": "s", "seq": 0,
             "mutations": [["*", 0, 1]]},
            {"id": 30, "op": "ingest", "stream": "s", "seq": 0,
             "mutations": [["+", 0.5, 1]]},
            {"id": 30, "op": "ingest", "stream": "s", "seq": 0,
             "mutations": [["+", 0, None]]},
            {"id": 30, "op": "ingest", "stream": "s", "seq": 0,
             "mutations": [["+", 3, 3]]},  # self-loop
            {"id": 30, "op": "ingest", "stream": "s", "seq": 0,
             "mutations": [["+", 0, 10**9]]},  # out of range
            {"id": 30, "op": "ingest", "stream": "s", "seq": 0,
             "mutations": [{"op": "+", "u": 0, "v": 1}]},
        ]
    )
    return json.dumps(request).encode() + b"\n"


def _ingest_oversized(rng: random.Random) -> bytes:
    request = rng.choice(
        [
            {"id": 31, "op": "ingest", "stream": "s", "seq": 0,
             "mutations": [["+", 0, 1]] * (MAX_INGEST_MUTATIONS + 1)},
            {"id": 31, "op": "ingest", "stream": "s" * (MAX_STREAM_LEN + 1),
             "seq": 0, "mutations": [["+", 0, 1]]},
        ]
    )
    return json.dumps(request).encode() + b"\n"


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _replicate_frames(rng: random.Random) -> str:
    """A ``frames`` value that does not decode whole: a WAL frame run
    (one intact record, then a damaged one) torn mid-frame or with a
    broken checksum, a string that is not base64, or a long run of
    junk."""
    kind = rng.choice(["torn", "crc", "not-base64", "junk"])
    if kind == "not-base64":
        return rng.choice(["%%%", "not base64", "QUJD\u00e9"])
    if kind == "junk":
        # A quarter of the line cap, so that even three such items in
        # one batch stay under it.
        return "A" * (MAX_LINE_BYTES // 4)
    intact, frame = (
        encode_record(WalRecord(
            lsn=lsn, stream="fuzz", seq=lsn, mutations=(("+", 0, lsn),)
        ))
        for lsn in (1, 2)
    )
    if kind == "torn":
        frame = frame[:rng.randrange(1, len(frame))]
    else:
        frame = frame[:-1] + bytes([frame[-1] ^ rng.randrange(1, 128)])
    return base64.b64encode(intact + frame).decode("ascii")


def _replicate_malformed(rng: random.Random) -> bytes:
    """A ``replicate`` frame with one bad field; as a frame or a batch
    item it must be refused before any term, role or acks changes.
    Damaged ``frames`` come without ``promote``, so that they reach the
    follower-side decoder, and must be answered ``bad_request``."""
    request = {"id": 34, "op": "replicate", "term": 20, "promote": True}
    if rng.random() < 0.5:
        request.update(
            promote=False, after_lsn=0, frames=_replicate_frames(rng)
        )
        return json.dumps(request).encode() + b"\n"
    request.update(
        rng.choice(
            [
                {"followers": [["h", "x"]]},
                {"followers": [["h", 0]]},
                {"followers": ["h:7001"]},
                {"followers": [["h", 7001]] * 65},
                {"acks": "bogus"},
                {"term": 0},
                {"term": "2"},
                {"promote": "yes"},
                {"after_lsn": -1},
                {"frames": ["not", "a", "string"]},
                {"frames": 7},
                {"records": []},
                {"snapshot": []},
            ]
        )
    )
    return json.dumps(request).encode() + b"\n"


def _ingest_seq_replay(rng: random.Random) -> bytes:
    """Duplicate / rewound / fresh sequence numbers on a shared
    stream: any mix must come back structured (ok + dedup, or a
    ``bad_request`` rewind) and never crash the server."""
    u = rng.randrange(59)
    request = {
        "id": 32,
        "op": "ingest",
        "stream": rng.choice(["fuzz-a", "fuzz-b"]),
        "seq": rng.randrange(6),
        "mutations": [[rng.choice(["+", "-"]), u, u + 1]],
    }
    return json.dumps(request).encode() + b"\n"


def _ingest_with_trace(rng: random.Random) -> bytes:
    """Well-formed ingest mixed with trace context; whether it lands
    or is rejected (edge already present / absent, stale seq) depends
    on accumulated server state — it must always answer structured."""
    u = rng.randrange(59)
    request = {
        "id": 33,
        "op": "ingest",
        "stream": "fuzz-traced",
        "seq": rng.randrange(50),
        "mutations": [
            [rng.choice(["+", "-"]), u, rng.randrange(u + 1, 60)]
        ],
        "trace": {"id": "0123456789abcdef", "span": "f" * 16},
    }
    return json.dumps(request).encode() + b"\n"


def _valid(rng: random.Random) -> bytes:
    request = rng.choice(
        [
            {"id": 7, "op": "ping"},
            {"id": 8, "op": "neighbors", "node": rng.randrange(60)},
            {"id": 9, "op": "degree", "node": rng.randrange(60)},
            {"id": 10, "op": "khop", "node": rng.randrange(60), "k": 2},
            {"id": 11, "op": "telemetry"},
            {
                "id": 12,
                "op": "batch",
                "requests": [{"op": "degree", "node": 0}],
            },
        ]
    )
    return json.dumps(request).encode() + b"\n"


#: Generators of one decodable but malformed request each — the items
#: ``batch_item`` wraps.  A frame-only op (``batch``, ``shutdown``) is
#: malformed as an item too.
_MALFORMED_REQUESTS = (
    _missing_op,
    _unknown_op,
    _wrong_typed_node,
    _bad_k,
    _unknown_field,
    _unechoable_id,
    _bad_batch,
    _trace_context_malformed,
    _telemetry_bad_field,
    _ingest_malformed,
    _ingest_oversized,
    _replicate_malformed,
    lambda rng: b'{"id": 35, "op": "shutdown"}\n',
)


def _batch_item(rng: random.Random) -> bytes:
    """1-3 malformed requests as the items of an otherwise valid
    ``batch``: the frame is answered ``ok`` and every item must be a
    structured, non-``internal`` error (see :func:`_check_items`)."""
    items = [
        json.loads(rng.choice(_MALFORMED_REQUESTS)(rng))
        for _ in range(rng.randrange(1, 4))
    ]
    return (
        json.dumps({"id": 36, "op": "batch", "requests": items}).encode()
        + b"\n"
    )


#: (name, generator, expect_ok) — ``True``: the answer must be
#: ``ok: true``; ``False``: it must be a structured error; ``None``:
#: either is acceptable (state-dependent outcome) but it must still
#: be exactly one structured, non-``internal`` response; ``"items"``:
#: an ``ok`` batch whose every item answer is such an error;
#: ``"bad_request"``: a structured error of exactly that type.
CATEGORIES = [
    ("random_bytes", _rand_bytes, False),
    ("invalid_utf8", _invalid_utf8, False),
    ("json_non_object", _json_non_object, False),
    ("truncated_json", _truncated_json, False),
    ("missing_op", _missing_op, False),
    ("unknown_op", _unknown_op, False),
    ("wrong_typed_node", _wrong_typed_node, False),
    ("bad_k", _bad_k, False),
    ("unknown_field", _unknown_field, False),
    ("unechoable_id", _unechoable_id, False),
    ("bad_batch", _bad_batch, False),
    ("oversized_terminated", _oversized_terminated, False),
    ("oversized_unterminated", _oversized_unterminated, False),
    ("trace_context_valid", _trace_context_valid, True),
    ("trace_context_malformed", _trace_context_malformed, False),
    ("telemetry_valid", _telemetry_valid, True),
    ("telemetry_bad_field", _telemetry_bad_field, False),
    ("ingest_malformed", _ingest_malformed, False),
    ("ingest_oversized", _ingest_oversized, False),
    ("ingest_seq_replay", _ingest_seq_replay, None),
    ("ingest_with_trace", _ingest_with_trace, None),
    ("replicate_malformed", _replicate_malformed, "bad_request"),
    ("batch_item", _batch_item, "items"),
    ("valid", _valid, True),
]


# ----------------------------------------------------------------------
def _exchange(host: str, port: int, frame: bytes) -> bytes | None:
    """Send one frame on a fresh connection; return the first response
    line (without newline) or ``None`` if the server closed first."""
    with socket.create_connection((host, port), timeout=READ_TIMEOUT) as sock:
        sock.settimeout(READ_TIMEOUT)
        sock.sendall(frame)
        buffer = b""
        while b"\n" not in buffer:
            chunk = sock.recv(65536)
            if not chunk:
                return None
            buffer += chunk
            if len(buffer) > 2 * MAX_LINE_BYTES:
                raise AssertionError(
                    "server streamed an unbounded response"
                )
        return buffer.split(b"\n", 1)[0]


def _check_error(name: str, message: dict) -> str:
    """'' when ``message`` is a structured, non-``internal`` error."""
    if message.get("ok") is not False:
        return f"{name}: malformed frame accepted: {message!r:.200}"
    error = message.get("error")
    if not isinstance(error, dict) or not isinstance(error.get("type"), str):
        return f"{name}: error frame lacks structured error: {message!r:.200}"
    if error["type"] == "internal":
        return (
            f"{name}: malformed input surfaced as an internal error: "
            f"{message!r:.200}"
        )
    return ""


def _check_items(name: str, message: dict) -> str:
    """'' when ``message`` is an ``ok`` batch whose every item answer
    is a structured, non-``internal`` error."""
    items = message.get("result")
    if message.get("ok") is not True or not isinstance(items, list):
        return (
            f"{name}: batch of malformed items refused whole: "
            f"{message!r:.200}"
        )
    for item in items:
        problem = _check_error(name, item if isinstance(item, dict) else {})
        if problem:
            return problem
    return ""


def _check_response(
    name: str, line: bytes | None, expect_ok: bool | str | None
) -> str:
    """Validate one response; returns a failure description or ''."""
    if line is None:
        return f"{name}: connection closed without a structured response"
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return f"{name}: response is not JSON: {line[:120]!r}"
    if not isinstance(message, dict):
        return f"{name}: response is not an object: {line[:120]!r}"
    if expect_ok is True:
        if message.get("ok") is not True:
            return f"{name}: valid frame rejected: {line[:200]!r}"
        return ""
    if expect_ok == "items":
        return _check_items(name, message)
    if expect_ok is None and message.get("ok") is True:
        return ""
    problem = _check_error(name, message)
    if not problem and expect_ok == "bad_request" and (
        message["error"]["type"] != "bad_request"
    ):
        problem = f"{name}: answered {message['error']['type']!r}, "
        problem += f"not 'bad_request': {message!r:.200}"
    return problem


def _build_server() -> SummaryQueryServer:
    # A *mutable* engine (no WAL: the fuzz target is the wire layer,
    # not the disk) so the ingest categories hit the real write path.
    from repro.dynamic.summary import DynamicGraphSummary
    from repro.service.ingest import MutableQueryEngine

    graph = generators.planted_partition(60, 4, 0.5, 0.05, seed=0)
    representation = encode(SuperNodePartition(graph))
    engine = MutableQueryEngine(
        DynamicGraphSummary.from_representation(representation),
        cache_size=256,
    )
    server = SummaryQueryServer(engine, port=0, workers=4)
    server.start()
    return server


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--host", default=None,
        help="fuzz an external server instead of an in-process one",
    )
    parser.add_argument("--port", type=int, default=None)
    args = parser.parse_args(argv)
    if (args.host is None) != (args.port is None):
        parser.error("--host and --port must be given together")

    rng = random.Random(args.seed)
    failures: list[str] = []
    counts: dict[str, int] = {}

    collector = _ExcInfoCollector()
    server = None
    if args.host is None:
        logging.getLogger("repro.service").addHandler(collector)
        server = _build_server()
        host, port = server.address
        gauge = server.metrics.registry.gauge("service_connections_active")
        baseline = gauge.value
    else:
        host, port = args.host, args.port
        gauge = None
        baseline = None

    try:
        for index in range(args.frames):
            name, generator, expect_ok = rng.choice(CATEGORIES)
            counts[name] = counts.get(name, 0) + 1
            frame = generator(rng)
            try:
                line = _exchange(host, port, frame)
            except (OSError, AssertionError) as exc:
                failures.append(f"frame {index} ({name}): {exc}")
                continue
            problem = _check_response(name, line, expect_ok)
            if problem:
                failures.append(f"frame {index}: {problem}")

        # -- no connection leak ------------------------------------------
        if gauge is not None:
            deadline = time.monotonic() + 10.0
            while gauge.value > baseline and time.monotonic() < deadline:
                time.sleep(0.05)
            if gauge.value > baseline:
                failures.append(
                    f"connection leak: {gauge.value - baseline:g} "
                    "connection(s) still active after the battery"
                )

        # -- still serving ------------------------------------------------
        try:
            with SummaryServiceClient(host, port, timeout=5.0) as client:
                if client.ping() != "pong":
                    failures.append("post-fuzz ping returned a wrong result")
                client.neighbors(0)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.append(f"server unusable after the battery: {exc}")

        # -- no unhandled exceptions in the server log --------------------
        for record in collector.records:
            failures.append(
                "unhandled exception in server log: "
                f"{record.getMessage()[:200]}"
            )
    finally:
        if server is not None:
            server.close()
            logging.getLogger("repro.service").removeHandler(collector)

    print(f"proto_fuzz: {args.frames} frames, seed={args.seed}")
    for name, _generator, _ok in CATEGORIES:
        print(f"  {name:24s} {counts.get(name, 0):5d}")
    if failures:
        print(f"\nFAIL ({len(failures)} problem(s)):", file=sys.stderr)
        for failure in failures[:50]:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nPASS: no crashes, no hangs, no internal errors, no leaks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
