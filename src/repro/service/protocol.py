"""Wire protocol: one JSON object per ``\\n``-terminated line.

Requests
--------
``{"id": <any>, "op": <str>, ...params}`` — ``id`` is echoed back
verbatim so clients can pipeline.  Ops and their params:

========== =========================== ==========================================
op         params                      result
========== =========================== ==========================================
neighbors  ``node``                    sorted neighbor list
degree     ``node``                    integer degree
khop       ``node``, ``k``             ``{node: hop_distance}`` (string keys)
pagerank   ``node``                    PageRank score (float)
batch      ``requests`` (list of ops)  list of per-request responses
telemetry  —                           ``{"instance", "pid", "registry"}``
ping       —                           ``"pong"``
ingest     ``stream``, ``seq``,        ``{"applied", "lsn"[, "duplicate"]}``
           ``mutations``,              (``{"validated"}`` under ``dry_run``)
           [``dry_run``]
replicate  ``term``, [``after_lsn``,   ``{"applied", "last_lsn",
           ``frames``, ``snapshot``,   "applied_lsn", "term", "role"}``
           ``promote``, ``followers``,
           ``acks``]
repl_status —                          ``{"role", "term", "last_lsn",
                                       "applied_lsn", ...}``
shutdown   —                           ``"shutting down"`` (server then stops)
========== =========================== ==========================================

``ingest`` (mutable servers only — see :mod:`repro.service.ingest`)
streams edge mutations: ``mutations`` is a list of up to
:data:`MAX_INGEST_MUTATIONS` items ``["+"|"-", u, v]``; ``stream`` is
a client-chosen id and ``seq`` its per-stream sequence number, which
makes retries idempotent (the server dedupes on sequence *and* batch
content).  The optional boolean ``dry_run`` validates the batch
without logging or applying it — the prepare half of the cluster
router's two-phase fan-out.

``replicate``/``repl_status`` (mutable servers only) are the
primary/follower WAL-shipping pair of
:mod:`repro.durability.replication`: a shard primary streams its
committed WAL records or a full checkpoint ``snapshot`` to followers,
every frame fenced by the monotonic leadership ``term``; ``promote``
(with the new ``followers`` list and ``acks`` mode) turns the receiver
into the shard's primary.  ``frames`` is the base64 of a run of WAL
frames, byte for byte as ``wal-*.log`` holds them (see the WAL
section of docs/formats.md), resuming ``after_lsn``; the protocol
checks only that it is a string, and the follower decodes it whole
or refuses it.

Every op additionally accepts an optional ``trace`` field —
``{"id": <trace id>, "span": <parent span id>}`` (``span`` optional)
— the distributed-tracing context of :mod:`repro.obs.context`.  A
tracing server adopts it so its spans join the caller's trace; a
non-tracing server validates and ignores it.

Responses
---------
``{"id", "ok": true, "op", "result"}`` on success;
``{"id", "ok": false, "op", "error": {"type", "message"}}`` on
failure.  Error types: ``bad_request``, ``timeout``, ``overloaded``,
``unavailable``, ``not_primary``, ``fenced``, ``internal``.  A degraded-mode success (truncated ``khop``,
approximate ``pagerank`` — see :mod:`repro.service.engine` — or any
answer served while crash recovery is still replaying)
additionally carries ``"degraded": true``.  A mutable server stamps
every successful response with its read-consistency ``"epoch"`` (the
count of committed mutation batches the answer reflects).  A tracing server echoes
``"trace": {"id", "span"}`` (its request-span identity) when the
request carried a trace context.

Framing is newline-delimited UTF-8 JSON, so the protocol is usable
from ``nc`` for debugging.  Lines longer than :data:`MAX_LINE_BYTES`
are rejected with ``bad_request`` to bound per-connection memory.

Both transport halves are hardened trust boundaries:
:func:`validate_request` is the one shape check of a request (unknown
ops, unknown fields, wrong types, out-of-range ``k``, oversized
batches).  The server runs it on every frame and, through
:func:`validate_batch_item`, on every ``batch`` item, so the engines
and the cluster router take validated dicts and check only what needs
their state (``node`` against ``n``, self-loops, whether a batch
applies, sequence order, fencing, log continuity).
:func:`validate_response` lets clients reject a malformed or hostile
server reply instead of acting on it.  :func:`error_response` builds
every error body.  ``tools/proto_fuzz.py`` fires seeded malformed
frames and batch items at a live server to keep these checks honest.
"""

from __future__ import annotations

import json
import math
import socket
import struct
import time

from repro.durability.replication import ACKS_MODES
from repro.obs.context import validate_trace_field

__all__ = [
    "MAX_LINE_BYTES",
    "MAX_BATCH_REQUESTS",
    "MAX_KHOP_K",
    "MAX_INGEST_MUTATIONS",
    "MAX_STREAM_LEN",
    "KNOWN_OPS",
    "encode_message",
    "decode_line",
    "error_response",
    "validate_request",
    "validate_batch_item",
    "validate_response",
    "LineReader",
    "ProtocolError",
    "set_kernel_timeout",
]

#: Upper bound on one request/response line (1 MiB).
MAX_LINE_BYTES = 1 << 20

#: Upper bound on sub-requests in one ``batch`` frame.
MAX_BATCH_REQUESTS = 1024

#: Upper bound on the ``khop`` radius; a BFS that covers the whole
#: summary finishes long before this, so larger values only buy an
#: attacker CPU time.
MAX_KHOP_K = 64

#: Upper bound on mutations in one ``ingest`` batch.
MAX_INGEST_MUTATIONS = 1024

#: Upper bound on the ``ingest`` client stream-id length.
MAX_STREAM_LEN = 128

#: Every op the protocol defines (the engine serves a subset of these
#: directly; ``batch`` and ``shutdown`` are handled by the server and
#: are refused as ``batch`` items).
KNOWN_OPS = (
    "neighbors",
    "degree",
    "khop",
    "pagerank",
    "batch",
    "telemetry",
    "ping",
    "ingest",
    "replicate",
    "repl_status",
    "shutdown",
)

#: Ops that only make sense as a whole frame: a batch does not nest,
#: and ``shutdown`` stops the server, not one item.
_FRAME_ONLY_OPS = ("batch", "shutdown")

#: Exact field whitelist per op; an unknown field is rejected rather
#: than ignored, so typos ("nodes") fail loudly and smuggled payloads
#: never reach the engine.  Every op also accepts the optional
#: ``trace`` context field.
_ALLOWED_FIELDS: dict[str, frozenset[str]] = {
    "neighbors": frozenset({"id", "op", "node", "trace"}),
    "degree": frozenset({"id", "op", "node", "trace"}),
    "khop": frozenset({"id", "op", "node", "k", "trace"}),
    "pagerank": frozenset({"id", "op", "node", "trace"}),
    "batch": frozenset({"id", "op", "requests", "trace"}),
    "telemetry": frozenset({"id", "op", "trace"}),
    "ping": frozenset({"id", "op", "trace"}),
    "ingest": frozenset(
        {"id", "op", "stream", "seq", "mutations", "dry_run", "trace"}
    ),
    "replicate": frozenset(
        {
            "id", "op", "term", "after_lsn", "frames", "snapshot",
            "promote", "followers", "acks", "trace",
        }
    ),
    "repl_status": frozenset({"id", "op", "trace"}),
    "shutdown": frozenset({"id", "op", "trace"}),
}

_RESPONSE_FIELDS = frozenset(
    {"id", "ok", "op", "result", "error", "degraded", "epoch", "trace"}
)


class ProtocolError(ValueError):
    """A line that cannot be decoded (bad JSON, oversized, not an
    object)."""


#: The compact encoder every message goes through: the bytes of
#: ``json.dumps(message, separators=(",", ":"))``.  Its ``encode``
#: builds a C encoder per call; ``_C_ENCODER`` is that one, built once
#: and shared by every thread (it keeps no per-call state), without
#: the circular-reference check no message needs (``markers=None``).
_ENCODER = json.JSONEncoder(separators=(",", ":"))
_C_ENCODER = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _ENCODER.default, json.encoder.encode_basestring_ascii, None,
    _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
    _ENCODER.skipkeys, _ENCODER.allow_nan,
)


def encode_message(message: dict) -> bytes:
    """Serialise one message to its wire form (compact JSON + LF)."""
    if _C_ENCODER is None:  # no C speedups: json encodes in Python
        return (_ENCODER.encode(message) + "\n").encode("utf-8")
    return ("".join(_C_ENCODER(message, 0)) + "\n").encode("utf-8")


#: ``struct timeval``, the value of ``SO_RCVTIMEO`` and ``SO_SNDTIMEO``.
_TIMEVAL = struct.Struct("@ll")


def set_kernel_timeout(
    sock: socket.socket, option: int, seconds: float
) -> None:
    """Arm ``SO_RCVTIMEO`` or ``SO_SNDTIMEO`` of a blocking socket: a
    read, or a send that makes no progress, fails with
    :class:`BlockingIOError` after ``seconds`` (at least 1 µs: zero
    means no bound), at no syscall per read or send."""
    micros = max(1, math.ceil(seconds * 1e6))
    sock.setsockopt(
        socket.SOL_SOCKET, option,
        _TIMEVAL.pack(*divmod(micros, 1_000_000)),
    )


def decode_line(line: bytes) -> dict:
    """Parse one wire line into a message dict."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"line of {len(line)} bytes exceeds {MAX_LINE_BYTES}"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid JSON line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (str, int, float, bool))


def error_response(request, kind: str, message: str) -> dict:
    """The structured error body for a rejected request (``request``
    is ``None`` for a frame that never decoded).  ``id`` is echoed
    only when it is a JSON scalar and ``op`` only when it is a
    string, so nothing a client sent is reflected uninterpreted."""
    request_id = op = None
    if isinstance(request, dict):
        request_id, op = request.get("id"), request.get("op")
    return {
        "id": request_id if _is_scalar(request_id) else None,
        "ok": False,
        "op": op if isinstance(op, str) else None,
        "error": {"type": kind, "message": message},
    }


def _check_node_field(request: dict, op: str) -> None:
    node = request.get("node")
    if not isinstance(node, int) or isinstance(node, bool):
        raise ProtocolError(f"op {op!r} needs an integer 'node' field")


def validate_request(request: dict) -> dict:
    """Schema-check one inbound request; returns it unchanged.

    This is the only check of a request's shape: the server runs it
    on every frame and every ``batch`` item, and the engines trust
    what it passed.  Raises :class:`ProtocolError` on: a non-scalar
    ``id`` (it must be echoable without interpretation), a
    missing/unknown ``op``, any field outside the op's whitelist, a
    non-integer ``node``, a ``k`` outside ``[0, MAX_KHOP_K]``, a
    ``batch`` whose ``requests`` is not a list of at most
    :data:`MAX_BATCH_REQUESTS` objects, a malformed ``ingest`` body
    (bad ``stream``/``seq``/``dry_run`` types, a mutation that is not
    ``["+"|"-", u, v]``, an oversized batch), a malformed
    ``replicate`` frame (see :func:`_check_replicate_fields`), or a
    malformed ``trace`` context (non-object, missing/over-long ids,
    unknown keys).  Checks that need state stay in the engine:
    ``node`` against ``n``, self-loops, whether a batch applies,
    sequence order, fencing and log continuity.
    """
    if not _is_scalar(request.get("id")):
        raise ProtocolError("'id' must be a JSON scalar")
    op = request.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request needs a string 'op' field")
    if op not in KNOWN_OPS:
        raise ProtocolError(
            f"unknown op {op!r}; supported: {', '.join(KNOWN_OPS)}"
        )
    unknown = set(request) - _ALLOWED_FIELDS[op]
    if unknown:
        raise ProtocolError(
            f"op {op!r} does not accept field(s) "
            f"{', '.join(sorted(map(repr, unknown)))}"
        )
    if "trace" in request:
        try:
            validate_trace_field(request["trace"])
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
    if op in ("neighbors", "degree", "khop", "pagerank"):
        _check_node_field(request, op)
    if op == "khop":
        k = request.get("k", 1)
        if not isinstance(k, int) or isinstance(k, bool):
            raise ProtocolError("'k' must be an integer")
        if not 0 <= k <= MAX_KHOP_K:
            raise ProtocolError(
                f"'k' must be in [0, {MAX_KHOP_K}], got {k}"
            )
    elif op == "batch":
        sub = request.get("requests")
        if not isinstance(sub, list):
            raise ProtocolError("'batch' needs a 'requests' list")
        if len(sub) > MAX_BATCH_REQUESTS:
            raise ProtocolError(
                f"batch of {len(sub)} requests exceeds the cap of "
                f"{MAX_BATCH_REQUESTS}"
            )
        for index, item in enumerate(sub):
            # The server then checks each item with
            # validate_batch_item, so a bad item fails alone.
            if not isinstance(item, dict):
                raise ProtocolError(
                    f"batch request #{index} is not a JSON object"
                )
    elif op == "ingest":
        _check_ingest_fields(request)
    elif op == "replicate":
        _check_replicate_fields(request)
    return request


def validate_batch_item(item: dict) -> dict:
    """Schema-check one ``batch`` item: :func:`validate_request`, and
    ``batch`` and ``shutdown`` are refused as items."""
    validate_request(item)
    if item["op"] in _FRAME_ONLY_OPS:
        raise ProtocolError(f"op {item['op']!r} cannot be a batch item")
    return item


def _check_replicate_fields(request: dict) -> None:
    """Shape-check a ``replicate`` frame.

    Bounds list sizes and basic types; ``frames`` is opaque here — the
    follower decodes it with :func:`repro.durability.wal.decode_frames`
    under the engine's fencing checks.
    """
    term = request.get("term")
    if not isinstance(term, int) or isinstance(term, bool) or term < 1:
        raise ProtocolError("'term' must be a positive integer")
    after_lsn = request.get("after_lsn")
    if after_lsn is not None and (
        not isinstance(after_lsn, int)
        or isinstance(after_lsn, bool)
        or after_lsn < 0
    ):
        raise ProtocolError("'after_lsn' must be a non-negative integer")
    if not isinstance(request.get("promote", False), bool):
        raise ProtocolError("'promote' must be a boolean")
    acks = request.get("acks")
    if acks is not None and acks not in ACKS_MODES:
        raise ProtocolError(
            f"unknown acks mode {acks!r}; supported: "
            + ", ".join(map(repr, ACKS_MODES))
        )
    frames = request.get("frames")
    if frames is not None and not isinstance(frames, str):
        raise ProtocolError("'frames' must be a base64 string")
    snapshot = request.get("snapshot")
    if snapshot is not None and not isinstance(snapshot, dict):
        raise ProtocolError("'snapshot' must be a JSON object")
    followers = request.get("followers")
    if followers is not None:
        if not isinstance(followers, list) or len(followers) > 64:
            raise ProtocolError(
                "'followers' must be a list of at most 64 addresses"
            )
        for index, item in enumerate(followers):
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not isinstance(item[0], str)
                or not isinstance(item[1], int)
                or isinstance(item[1], bool)
                or not 0 < item[1] < 65536
            ):
                raise ProtocolError(
                    f"follower #{index} must be [host, port]"
                )


def _check_ingest_fields(request: dict) -> None:
    """Shape-check an ``ingest`` frame before the engine sees it.

    Everything stateful (range checks against ``n``, applicability,
    sequence ordering) stays in the mutable engine; this bounds sizes
    and types so a hostile frame cannot smuggle arbitrary payloads or
    oversized batches past the trust boundary.
    """
    stream = request.get("stream")
    if not isinstance(stream, str) or not 1 <= len(stream) <= (
        MAX_STREAM_LEN
    ):
        raise ProtocolError(
            f"'stream' must be a string of 1..{MAX_STREAM_LEN} characters"
        )
    seq = request.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise ProtocolError("'seq' must be a non-negative integer")
    if not isinstance(request.get("dry_run", False), bool):
        raise ProtocolError("'dry_run' must be a boolean")
    mutations = request.get("mutations")
    if not isinstance(mutations, list) or not mutations:
        raise ProtocolError("'mutations' must be a non-empty list")
    if len(mutations) > MAX_INGEST_MUTATIONS:
        raise ProtocolError(
            f"batch of {len(mutations)} mutations exceeds the cap of "
            f"{MAX_INGEST_MUTATIONS}"
        )
    # Exact types: ``decode_line`` yields only ``list``, ``int`` and
    # ``str``, and ``bool`` (an ``int`` subclass) is no endpoint.
    for index, item in enumerate(mutations):
        if type(item) is not list or len(item) != 3:
            raise ProtocolError(
                f"mutation #{index} must be a 3-item list "
                '["+"|"-", u, v]'
            )
        sign, u, v = item
        if sign not in ("+", "-"):
            raise ProtocolError(
                f"mutation #{index} has unknown sign {sign!r}"
            )
        if type(u) is not int or type(v) is not int or u < 0 or v < 0:
            raise ProtocolError(
                f"mutation #{index} endpoints must be "
                "non-negative integers"
            )


def validate_response(message: dict) -> dict:
    """Schema-check one server response; returns it unchanged.

    The client-side half of the trust boundary: a hostile or buggy
    server cannot make the client act on a response missing its
    verdict (``ok``), carrying a malformed ``error`` body, or smuggling
    unknown fields.  Raises :class:`ProtocolError` on violation.
    """
    unknown = set(message) - _RESPONSE_FIELDS
    if unknown:
        raise ProtocolError(
            f"response carries unknown field(s) "
            f"{', '.join(sorted(map(repr, unknown)))}"
        )
    ok = message.get("ok")
    if not isinstance(ok, bool):
        raise ProtocolError("response needs a boolean 'ok' field")
    if not _is_scalar(message.get("id")):
        raise ProtocolError("response 'id' must be a JSON scalar")
    if "trace" in message:
        try:
            validate_trace_field(message["trace"])
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
    if "epoch" in message:
        epoch = message["epoch"]
        if not isinstance(epoch, int) or isinstance(epoch, bool) or (
            epoch < 0
        ):
            raise ProtocolError(
                "'epoch' must be a non-negative integer"
            )
    if ok:
        if "result" not in message:
            raise ProtocolError("ok response is missing 'result'")
    else:
        error = message.get("error")
        if not isinstance(error, dict):
            raise ProtocolError("error response needs an 'error' object")
        if not isinstance(error.get("type"), str) or not isinstance(
            error.get("message"), str
        ):
            raise ProtocolError(
                "'error' needs string 'type' and 'message' fields"
            )
    return message


class LineReader:
    """Incremental ``\\n``-splitter over a socket.

    ``readline`` returns the next complete line (without the
    terminator) or ``None`` on EOF.

    An oversized *unterminated* line poisons the reader: there is no
    way to find the next message boundary in a stream whose current
    frame never ends, so after the first :class:`ProtocolError` every
    subsequent ``readline`` raises again rather than returning bytes
    from an unknowable position.  Callers must send at most one error
    response and close the connection.
    """

    def __init__(
        self,
        sock: socket.socket,
        chunk_size: int = 65536,
        max_line_bytes: int = MAX_LINE_BYTES,
    ):
        self._sock = sock
        self._chunk_size = chunk_size
        self._max_line_bytes = max_line_bytes
        self._buffer = bytearray()
        self._eof = False
        self._poisoned = False
        #: The deadline of the last read (see :meth:`readline`).
        self._read_deadline: float | None = None

    def readline(self, deadline: float | None = None) -> bytes | None:
        """The next line.  Without ``deadline`` a read waits as the
        socket's timeout says.  ``deadline`` is ``time.monotonic() +
        w`` for a blocking socket whose ``SO_RCVTIMEO`` the caller
        armed to ``w``: the first read under it waits ``w``, each later
        one (a line that spans reads, or the line after a blank one)
        re-arms to the time left, so a peer that trickles bytes still
        times out, and a complete line puts ``w`` back.  Timing out
        raises :class:`BlockingIOError` or ``socket.timeout``."""
        if self._poisoned:
            raise ProtocolError(
                "stream is beyond resynchronization after an "
                "oversized unterminated line"
            )
        armed = None
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                if armed is not None:
                    self._sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_RCVTIMEO, armed
                    )
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                return line
            if self._eof:
                return None
            if len(self._buffer) > self._max_line_bytes:
                self._poisoned = True
                raise ProtocolError(
                    f"unterminated line exceeds {self._max_line_bytes} bytes"
                )
            if deadline is not None and deadline == self._read_deadline:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise socket.timeout("read deadline passed")
                if armed is None:
                    armed = self._sock.getsockopt(
                        socket.SOL_SOCKET, socket.SO_RCVTIMEO, _TIMEVAL.size
                    )
                set_kernel_timeout(self._sock, socket.SO_RCVTIMEO, remaining)
            self._read_deadline = deadline
            chunk = self._sock.recv(self._chunk_size)
            if not chunk:
                self._eof = True
                if self._buffer:
                    line = bytes(self._buffer)
                    self._buffer.clear()
                    return line
                return None
            self._buffer.extend(chunk)
