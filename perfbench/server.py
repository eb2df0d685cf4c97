"""The program under test as users run it: a ``python -m repro serve``
subprocess, driven over one client connection.

The server writes nothing to this process's stdout (the benchmark's
result must stay the last line there): its stdout is read line by line
on a thread, which timestamps each line, and its log goes to a file.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.service.protocol import decode_line, encode_message

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    """The server did not start, answer or stop as expected."""


class Server:
    """One ``repro serve`` process and one closed-loop connection.

    ``options`` are extra ``repro serve`` flags; the benchmark always
    runs two workers, no periodic log line and no timer-driven
    background work other than what ``options`` turns on.
    """

    def __init__(self, src: Path, artifact: Path, log_path: Path, options=()):
        self._src = src
        self._argv = [
            sys.executable, "-m", "repro", "serve", str(artifact),
            "--port", "0", "--workers", "2", "--log-interval", "0",
            *options,
        ]
        self._log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.lines: list[tuple[float, str]] = []
        self._lines_cond = threading.Condition()
        self._reader: threading.Thread | None = None
        self._sock: socket.socket | None = None
        self._file = None
        self._next_id = 0

    # -- lifecycle ---------------------------------------------------------
    def start(self, timeout: float = 120.0) -> "Server":
        # Unbuffered, so that each stdout line is read (and
        # timestamped) the moment the server prints it.
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self._src), env.get("PYTHONPATH")) if p
        )
        with open(self._log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self._argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=log, env=env, cwd=str(self._src.parent),
            )
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        line = self.wait_line("serving on ", timeout)[1]
        port = int(line.rsplit(":", 1)[1])
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rb")
        return self

    def _read_stdout(self) -> None:
        for raw in self.proc.stdout:
            with self._lines_cond:
                self.lines.append((time.perf_counter(), raw.decode().rstrip()))
                self._lines_cond.notify_all()
        with self._lines_cond:
            self._lines_cond.notify_all()

    def wait_line(self, prefix: str, timeout: float) -> tuple[float, str]:
        """The first stdout line starting with ``prefix`` and the
        ``perf_counter`` time it was read."""
        deadline = time.monotonic() + timeout
        with self._lines_cond:
            while True:
                for stamped in self.lines:
                    if stamped[1].startswith(prefix):
                        return stamped
                if self.proc.poll() is not None and not self._reader.is_alive():
                    raise ServerError(
                        f"server exited with {self.proc.returncode} before "
                        f"printing {prefix!r}; see {self._log_path}"
                    )
                left = deadline - time.monotonic()
                if left <= 0:
                    raise ServerError(f"no {prefix!r} line within {timeout}s")
                self._lines_cond.wait(min(left, 0.5))

    def kill(self) -> None:
        """SIGKILL the server and reap it."""
        self._close_socket()
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self._reap()

    def stop(self, timeout: float = 30.0) -> None:
        """Stop gracefully (SIGTERM), falling back to SIGKILL."""
        self._close_socket()
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        if self.proc is not None:
            self.proc.wait()
        if self._reader is not None:
            self._reader.join()
        if self.proc is not None:
            self.proc.stdout.close()

    def _close_socket(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    # -- requests ----------------------------------------------------------
    def send(self, request: dict) -> bytes:
        """Send one request and return the raw response line."""
        self._next_id += 1
        request["id"] = self._next_id
        self._sock.sendall(encode_message(request))
        line = self._file.readline()
        if not line:
            raise ServerError("server closed the connection")
        return line

    def request(self, request: dict) -> dict:
        return decode_line(self.send(request))

    def call(self, request: dict):
        """``request`` and the result of a successful response."""
        response = self.request(request)
        if not response.get("ok"):
            raise ServerError(f"{request.get('op')} failed: {response.get('error')}")
        return response["result"]

    def registry(self) -> dict:
        """The server's exported metrics registry (``telemetry`` op)."""
        return self.call({"op": "telemetry"})["registry"]

    # -- process accounting -----------------------------------------------
    def cpu_seconds(self) -> float:
        """User + system CPU seconds the server has used."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")


def registry_value(registry: dict, name: str, **labels) -> float:
    """A counter or gauge value from a ``telemetry`` registry (0 when
    the series does not exist yet)."""
    for series in registry.get(name, ()):
        if series["labels"] == labels:
            return float(series["value"])
    return 0.0


def registry_histogram(registry: dict, name: str, **labels) -> tuple[int, float]:
    """``(count, sum)`` of a histogram series (zeros when absent)."""
    for series in registry.get(name, ()):
        if series["labels"] == labels:
            return int(series["count"]), float(series["sum"])
    return 0, 0.0
