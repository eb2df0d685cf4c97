"""Primary/follower WAL shipping: the write path's redundancy.

PR 9's determinism contract — replaying the log from the same
artifact is bit-identical (``Representation`` equality) — is exactly
the property that makes shipped-log replication exact: a shard's
primary streams its WAL records (ingest batches, resummarize
decisions, term changes) to follower replicas over the ``replicate``
wire op — as the log's own frames, byte for byte, base64'd into the
request's ``frames`` string (:mod:`repro.durability.wal` is the one
codec) — each follower appends them to its *own* WAL and applies them
in LSN order through the same apply path as the primary's commit
(:meth:`~repro.durability.state.EngineState.apply`), and primary and
follower summaries are byte-equal at every epoch.  A follower checks a
whole frame's LSN contiguity before appending any of it; a gap is a
``bad_request``, which the primary answers with a snapshot.  See
docs/resilience.md, "Replication & failover".

Terms and fencing
-----------------
Leadership is fenced by a monotonic *term* stamped into the WAL
(:class:`~repro.durability.wal.TermRecord`).  Every ``replicate``
frame carries the sender's term; a receiver whose term is higher
rejects the frame with a structured ``fenced`` error, so a revived
stale primary cannot overwrite a promoted follower — it steps down
instead, and catches up like any other rejoiner.  Every such rule is
a pure function over plain values — :func:`admit_frame` for a replica,
:func:`elect` for the router — whose verdicts the callers carry out.

Catch-up
--------
Within one term a follower's log is always a prefix of its primary's,
so catch-up is incremental: ship ``wal.iter_records(after_lsn)`` from
the follower's cursor.  Across a term change (or a compaction gap —
the cursor fell below :attr:`WriteAheadLog.truncated_lsn`) the tail
cannot be trusted, so the primary ships a full checkpoint snapshot;
the follower installs it, wipes its log (:meth:`WriteAheadLog.reset`),
persists the checkpoint, and resumes incremental shipping.

Acks modes
----------
``quorum`` (the durable default): an ingest acknowledgement waits
until a majority of the replica set — leader included — has the batch
in its WAL, so ``kill -9`` of the primary loses zero acknowledged
mutations.  ``leader``: acknowledge after the local fsync and ship in
the background — lower latency, and a failover can lose the unshipped
tail (the rejoining stale primary is snapshot-reset, so the cluster
still converges).
"""

from __future__ import annotations

import base64
import threading
import time
from typing import NamedTuple

from repro.durability.state import check_lsn
from repro.durability.wal import decode_frames, encode_record
from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = [
    "ACKS_MODES",
    "Election",
    "FIRST_TERM",
    "FrameRejected",
    "REPLICATION_ROLES",
    "REPL_MAX_FRAME_BYTES",
    "ReplicaView",
    "ReplicationError",
    "ReplicaLink",
    "ReplicationManager",
    "admit_frame",
    "elect",
    "quorum_size",
]

ACKS_MODES = ("leader", "quorum")

#: A replica is exactly one of these at any time; promotion and
#: fencing move it between them (docs/resilience.md).
REPLICATION_ROLES = ("primary", "follower")

#: The term a fresh replicated log opens at, with no election: every
#: promotion must exceed it, even when no responder reports it.
FIRST_TERM = 1

#: Cap on the WAL bytes one ``replicate`` request ships: base64 makes
#: them 4/3 as long, which leaves the rest of the protocol's 1 MiB
#: MAX_LINE_BYTES for the JSON around them.  A single record larger
#: than this still ships, alone.
REPL_MAX_FRAME_BYTES = 512 << 10

#: Quorum-mode ``publish`` wait before answering ``unavailable``.
QUORUM_TIMEOUT_S = 10.0
FOLLOWER_TIMEOUT_S = 5.0  # primary -> follower socket timeout
POLL_INTERVAL_S = 0.5  # background shipper's idle period
BUFFER_RECORDS = 1024  # committed records kept in memory for shipping


class ReplicationError(RuntimeError):
    """Replication cannot make progress (misconfiguration, oversized
    snapshot, ...)."""


def quorum_size(replicas: int) -> int:
    """Majority of a replica set (leader included): ``floor(n/2)+1``."""
    return replicas // 2 + 1


class ReplicaView(NamedTuple):
    """What frame admission reads of a replica."""

    role: str
    term: int
    last_lsn: int  # durable high-water mark
    applied_lsn: int
    replaying: bool


class FrameRejected(Exception):
    """A ``replicate`` frame refused whole, as wire error ``kind``
    (``fenced``, ``bad_request`` or ``overloaded``); ``role`` is a
    transition made even so — a primary that saw a higher term steps
    down although the frame was bad."""

    def __init__(self, kind: str, message: str, role: str | None = None):
        super().__init__(message)
        self.kind = kind
        self.role = role


def admit_frame(
    view: ReplicaView,
    term: int,
    *,
    after_lsn=None,
    frames=None,
    snapshot=None,
    promote=False,
) -> tuple:
    """Decide what a replica in state ``view`` does with a ``replicate``
    frame from ``term``: returns ``(role, records)`` — the role to move
    to first (``None`` keeps it) and the decoded records — or raises
    :class:`FrameRejected`.

    ``frames`` (base64 WAL frames) that do not decode whole are a
    ``bad_request`` that changes nothing, like any malformed request.
    A frame below the local term is ``fenced`` (its sender must step
    down), and so is a promotion not past it.  A frame above it
    demotes a primary.  Records must continue the local log, or the
    frame is a ``bad_request`` the sender answers with a snapshot.
    The frame's shape (a positive integer ``term``, ``frames`` a
    string) was checked at the wire.
    """
    try:
        records = decode_frames(base64.b64decode(frames or "", validate=True))
    except ValueError as exc:
        raise FrameRejected(
            "bad_request", f"malformed replicate frames: {exc}"
        ) from None
    if view.replaying:
        # A frame or a promotion applies at the end of the log, which
        # the state reaches only when replay is done.
        raise FrameRejected(
            "overloaded", "recovery replay in progress; retry shortly"
        )
    if promote:
        if term <= view.term:
            raise FrameRejected(
                "fenced",
                f"stale promotion: term {term} is not past "
                f"local term {view.term}",
            )
        return "primary", ()
    if term < view.term:
        raise FrameRejected(
            "fenced",
            f"replicate from term {term} rejected: "
            f"local term is {view.term}",
        )
    role = "follower" if term > view.term and view.role == "primary" else None
    if snapshot is not None:
        return role, ()
    if records:
        try:
            _check_continues(view, term, after_lsn, records)
        except ValueError as exc:
            raise FrameRejected("bad_request", str(exc), role) from None
    return role, records


def _check_continues(view: ReplicaView, term: int, after_lsn, frame):
    """Raise ``ValueError`` unless ``frame`` continues the local log."""
    local_last = view.last_lsn
    if isinstance(after_lsn, int) and after_lsn > local_last:
        raise ValueError(
            f"replication gap: stream resumes after lsn "
            f"{after_lsn} but the local log ends at {local_last}"
        )
    if term > view.term and isinstance(after_lsn, int) and (
        local_last > after_lsn
    ):
        # Within one term a follower log is always a prefix of the
        # primary's, so overlap is just a re-ship — but across a term
        # change our suffix may be a dead primary's unreplicated tail,
        # and appending over it would silently diverge.  ``view.term``
        # is the term before this frame demoted anyone, so a stale
        # primary fenced by the frame itself still gets the snapshot.
        raise ValueError(
            f"possible divergence across term change: local log "
            f"ends at {local_last}, past the stream cursor "
            f"{after_lsn}; snapshot required"
        )
    for offset, record in enumerate(frame):
        if record.lsn != frame[0].lsn + offset:
            raise ValueError(
                f"replicate frame is not contiguous: lsn "
                f"{record.lsn} at position {offset} after "
                f"lsn {frame[0].lsn}"
            )
    try:
        check_lsn(view.applied_lsn, frame[0].lsn)
    except ValueError as exc:
        raise ValueError(f"replication {exc}") from None


class Election(NamedTuple):
    """``adopt`` the replica at ``index`` as primary at ``term``, or
    ``promote`` it to ``term``."""

    action: str
    index: int
    term: int


def elect(statuses, *, known_term: int, replicas: int, acks: str):
    """Pick a shard's primary from the ``(index, repl_status)`` pairs
    of the replicas that answered a probe, or ``None``.

    A live primary at the highest claimed term is adopted unless the
    caller already knows a higher term.  Otherwise the most caught-up
    responder (greatest ``(term, last_lsn, applied_lsn)``, first on
    ties) is promoted past every observed term, ``known_term`` and
    :data:`FIRST_TERM`.
    Under ``quorum`` acks that needs ``replicas - quorum_size(replicas)
    + 1`` responders, so every ack quorum overlaps them (Raft's
    overlapping-quorum rule, Ongaro & Ousterhout 2014).
    """

    def rank(status):
        return tuple(
            int(status.get(key, 0) or 0)
            for key in ("term", "last_lsn", "applied_lsn")
        )

    claims = [
        (index, rank(status)[0])
        for index, status in statuses
        if status.get("role") == "primary"
    ]
    if claims:
        index, term = max(claims, key=lambda claim: claim[1])
        if term >= known_term:
            return Election("adopt", index, term)
    if not statuses or acks == "quorum" and len(statuses) < (
        replicas - quorum_size(replicas) + 1
    ):
        return None
    candidate = max(statuses, key=lambda item: rank(item[1]))[0]
    observed = max(rank(status)[0] for _, status in statuses)
    new_term = max(observed, known_term, FIRST_TERM) + 1
    return Election("promote", candidate, new_term)


def _chunk(records) -> tuple[bytes, int]:
    """The frames of the leading records that fit one ``replicate``
    request, and how many records they hold."""
    frames = bytearray()
    count = 0
    for record in records:
        frame = encode_record(record)
        if count and len(frames) + len(frame) > REPL_MAX_FRAME_BYTES:
            break
        frames += frame
        count += 1
    return bytes(frames), count


# ----------------------------------------------------------------------
# Shipping
# ----------------------------------------------------------------------
class ReplicaLink:
    """A primary's view of one follower: address, replication cursor
    (``acked_lsn``: the follower's durable high-water mark), health."""

    def __init__(self, host: str, port: int, label: str | None = None):
        self.host = host
        self.port = int(port)
        self.label = label or f"{host}:{port}"
        self.acked_lsn = 0
        self.healthy = False
        self.needs_snapshot = False
        self.last_error: str | None = None
        self.client = None


class ReplicationManager:
    """The primary half of log shipping for one shard.

    Owns a :class:`ReplicaLink` per follower and ships committed WAL
    records to each in LSN order.  ``publish(lsn)`` is called by the
    engine after every local commit: under ``acks="quorum"`` it ships
    inline and blocks until a majority of the replica set holds the
    record (raising a structured ``unavailable`` otherwise — the
    client may retry; the batch dedups); under ``acks="leader"`` it
    just wakes the background shipper.  The background thread also
    retries down followers and drives rejoin catch-up (incremental
    from the WAL, or a checkpoint snapshot across a term change /
    compaction gap).

    ``connect(host, port, timeout)`` opens each follower connection
    (default :func:`repro.service.client.connect`); in-process tests
    pass their own transport.
    """

    def __init__(
        self,
        engine,
        followers,
        *,
        acks: str = "quorum",
        wal=None,
        connect=None,
        registry: MetricsRegistry | None = None,
    ):
        if acks not in ACKS_MODES:
            raise ReplicationError(
                f"unknown acks mode {acks!r}; "
                f"choose from {', '.join(ACKS_MODES)}"
            )
        self._engine = engine
        self._wal = wal
        self.acks = acks
        if connect is None:
            from repro.service.client import connect
        self.connect = connect
        self._registry = (
            registry if registry is not None else get_registry()
        )
        self.links = [
            ReplicaLink(host, port) for host, port in followers
        ]
        # Hot-path record buffer: committed records the shipper can
        # read without touching disk.  A cursor below it reads the WAL;
        # an engine without one (only tests build such a primary) can
        # then bridge the gap only with a snapshot.
        self._buffer: list = []
        self._buffer_floor = engine.applied_lsn
        self._buffer_lock = threading.Lock()
        # Serializes shipping so records leave in LSN order even when
        # several ingest threads publish concurrently.
        self._ship_lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        #: Set when a follower fenced a frame: a newer primary exists.
        self._fenced = False
        self._thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "ReplicationManager":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-replication", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        for link in self.links:
            self._drop_client(link)

    @property
    def stopped(self) -> bool:
        return self._stop.is_set()

    def _drop_client(self, link: ReplicaLink) -> None:
        client, link.client = link.client, None
        if client is not None:
            try:
                client.close()
            except Exception:
                pass

    # -- record sources --------------------------------------------------
    def record_committed(self, record) -> None:
        """Called by the engine, under its state lock, for every
        locally committed record — keeps the hot buffer in LSN order."""
        with self._buffer_lock:
            self._buffer.append(record)
            while len(self._buffer) > BUFFER_RECORDS:
                evicted = self._buffer.pop(0)
                self._buffer_floor = evicted.lsn

    def _records_after(self, cursor: int):
        """Next chunk of records past ``cursor`` as ``(frames, count)``
        (see :func:`_chunk`), or ``None`` when only a snapshot can
        bridge the gap."""
        with self._buffer_lock:
            if cursor >= self._buffer_floor:
                return _chunk(r for r in self._buffer if r.lsn > cursor)
        if self._wal is None or cursor < self._wal.truncated_lsn:
            return None
        return _chunk(self._wal.iter_records(after_lsn=cursor))

    # -- shipping --------------------------------------------------------
    def notify(self) -> None:
        """Nudge the background shipper: new records are buffered but
        nothing is quorum-blocking on them (maintenance commits)."""
        self._wake.set()

    def publish(self, lsn: int) -> None:
        """Make the record at ``lsn`` replication-durable.

        Quorum mode ships inline and raises a structured
        ``unavailable`` :class:`~repro.service.engine.QueryError` when
        a majority of the replica set cannot acknowledge within the
        quorum timeout — the caller must *not* acknowledge the batch.
        (It stays committed locally and in the WAL; a client retry of
        the same ``(stream, seq)`` dedups and re-awaits the quorum.)
        Once a follower fences this primary it raises ``not_primary``
        instead, as a follower answers ``ingest``: the batch belongs
        on the shard's new primary.
        """
        self._check_fenced(lsn)
        if self._stop.is_set():
            return
        if self.acks == "leader":
            self._wake.set()
            return
        needed = quorum_size(len(self.links) + 1) - 1
        if needed <= 0:
            return
        deadline = time.monotonic() + QUORUM_TIMEOUT_S
        while not self._stop.is_set():
            with self._ship_lock:
                acked = 0
                for link in self.links:
                    if link.acked_lsn >= lsn or self._ship(link, lsn):
                        acked += 1
                    if acked >= needed:
                        return
            if time.monotonic() >= deadline:
                break
            time.sleep(min(0.05, POLL_INTERVAL_S))
        self._check_fenced(lsn)
        from repro.service.engine import QueryError

        self._count("quorum_timeouts")
        raise QueryError(
            "unavailable",
            f"replication quorum not reached for lsn {lsn}: "
            f"{needed} follower ack(s) required "
            f"({len(self.links)} follower(s) configured)",
        )

    def _check_fenced(self, lsn: int) -> None:
        if self._fenced:
            from repro.service.engine import QueryError

            raise QueryError(
                "not_primary",
                f"primary fenced by a newer term before lsn {lsn} "
                "reached a quorum; ingest goes to the shard's primary",
            )

    def _ship(self, link: ReplicaLink, target_lsn: int) -> bool:
        """Push records to one follower until its cursor reaches
        ``target_lsn``; returns whether it did.  Caller holds the
        ship lock."""
        while link.acked_lsn < target_lsn and not self._stop.is_set():
            if link.needs_snapshot:
                if not self._ship_snapshot(link):
                    return False
                continue
            chunk = self._records_after(link.acked_lsn)
            if chunk is None:
                link.needs_snapshot = True
                continue
            frames, count = chunk
            if not count:
                # Nothing durable past the cursor — the target LSN is
                # not shippable (should not happen in practice).
                return link.acked_lsn >= target_lsn
            if not self._send(
                link,
                frames=base64.b64encode(frames).decode("ascii"),
                after_lsn=link.acked_lsn,
            ):
                return False
            self._count("records_shipped", count)
        return link.acked_lsn >= target_lsn

    def _ship_snapshot(self, link: ReplicaLink) -> bool:
        snapshot = self._engine.snapshot_state()
        ok = self._send(link, snapshot=snapshot)
        if ok:
            link.needs_snapshot = False
            self._count("snapshots")
        return ok

    def _send(self, link: ReplicaLink, **payload) -> bool:
        """One ``replicate`` round trip; updates the link's cursor
        from the follower's durable high-water mark."""
        from repro.service.client import ServiceError

        try:
            if link.client is None:
                link.client = self.connect(
                    link.host, link.port, FOLLOWER_TIMEOUT_S
                )
            response = link.client.request(
                "replicate", term=self._engine.term, **payload
            )
        except ServiceError as exc:
            link.last_error = f"{exc.type}: {exc}"
            if exc.type == "fenced":
                # A higher term exists: this primary is stale.  Step
                # down; the new primary will catch us up.
                self._count("fenced")
                self._fenced = True
                self._engine.step_down()
                self._stop.set()
            elif exc.type == "bad_request":
                # Replication gap reported by the follower.
                link.needs_snapshot = True
            return False
        except Exception as exc:  # transport errors
            link.healthy = False
            link.last_error = str(exc)
            self._drop_client(link)
            self._count("transport_errors")
            return False
        link.healthy = True
        link.last_error = None
        acked = response.get("last_lsn")
        if isinstance(acked, int) and acked > link.acked_lsn:
            link.acked_lsn = acked
        return True

    # -- background catch-up ---------------------------------------------
    def _run(self) -> None:
        try:
            while not self._stop.is_set():
                self._wake.wait(timeout=POLL_INTERVAL_S)
                self._wake.clear()
                if self._stop.is_set():
                    return
                target = self._engine.durable_lsn()
                with self._ship_lock:
                    for link in self.links:
                        if self._stop.is_set():
                            return
                        if link.acked_lsn < target or link.needs_snapshot:
                            self._ship(link, target)
        finally:
            # Self-initiated stops (fencing) exit through here without
            # anyone calling stop(); don't leak follower sockets.
            if self._stop.is_set():
                for link in self.links:
                    self._drop_client(link)

    # -- introspection ---------------------------------------------------
    def status(self) -> dict:
        high = self._engine.durable_lsn()
        return {
            "acks": self.acks,
            "quorum": quorum_size(len(self.links) + 1),
            "followers": [
                {
                    "label": link.label,
                    "host": link.host,
                    "port": link.port,
                    "acked_lsn": link.acked_lsn,
                    "lag": max(0, high - link.acked_lsn),
                    "healthy": link.healthy,
                    "needs_snapshot": link.needs_snapshot,
                    "last_error": link.last_error,
                }
                for link in self.links
            ],
        }

    # -- metrics ---------------------------------------------------------
    def _count(self, event: str, n: int = 1) -> None:
        self._registry.counter(
            "repro_replication_ship_total", event=event
        ).inc(n)
