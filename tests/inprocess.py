"""An in-process transport for whole clusters, without sockets.

:class:`InProcessNetwork` is a ``connect(host, port, timeout)``
callable, the seam :class:`~repro.cluster.router.RouterEngine` and
``MutableQueryEngine.configure_replication`` take for their outbound
connections.  Each request still crosses the real wire path: it is
encoded with :func:`~repro.service.protocol.encode_message`, handed as
bytes to an unstarted :class:`~repro.service.server.SummaryQueryServer`
(``_handle_line``: decode, ``validate_request``, engine), and the
reply is decoded and checked with
:func:`~repro.service.protocol.validate_response`.  An ``ok: false``
reply raises :class:`~repro.service.client.ServiceError`, as the
socket client does.
"""

from __future__ import annotations

from repro.service.client import ServiceError
from repro.service.protocol import decode_line, encode_message, validate_response
from repro.service.server import SummaryQueryServer


class InProcessClient:
    """One connection to an engine: the socket client's
    ``request(op, **params)``, ``usable`` and ``close()``.  It fails
    like a reset socket once its host goes down."""

    def __init__(self, network: "InProcessNetwork", host: str, server):
        self._network = network
        self._host = host
        self._server = server
        self._next_id = 0
        self.usable = True

    def request(self, op: str, **params):
        if not self.usable:
            raise ConnectionError("client is closed")
        if self._host in self._network.down:
            raise ConnectionResetError(f"{self._host} went down")
        self._next_id += 1
        line = encode_message({"id": self._next_id, "op": op, **params})
        response, _ = self._server._handle_line(line.rstrip(b"\n"))
        response = validate_response(decode_line(encode_message(response)))
        if response.get("id") != self._next_id:
            raise ConnectionError("response id does not match the request")
        if not response["ok"]:
            raise ServiceError(response["error"])
        return response.get("result")

    def close(self) -> None:
        self.usable = False


class InProcessNetwork:
    """Engines by address; calling it connects like
    :func:`repro.service.client.connect`.  A host in :attr:`down`
    refuses new connections and resets open ones; an address with no
    engine refuses too."""

    def __init__(self, engines: dict | None = None):
        self._servers: dict = {}
        self.down: set[str] = set()
        for address, engine in (engines or {}).items():
            self.add(address, engine)

    def add(self, address, engine) -> None:
        """Serve ``engine`` at ``address`` (a ``(host, port)`` pair,
        or a bare host answering on every port)."""
        self._servers[address] = SummaryQueryServer(engine)

    def __call__(self, host: str, port: int, timeout: float = 30.0):
        server = self._servers.get((host, port), self._servers.get(host))
        if host in self.down or server is None:
            raise ConnectionRefusedError(f"{host}:{port} is unreachable")
        return InProcessClient(self, host, server)
