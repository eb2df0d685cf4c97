"""Write-ahead log for streamed edge mutations.

The durability half of online ingest (docs/resilience.md, "Durability
& recovery"): every accepted mutation batch is appended — and, under
the default policy, fsynced — here *before* it is applied to the live
:class:`~repro.dynamic.summary.DynamicGraphSummary`, so an
acknowledged write survives ``kill -9``.

On-disk format
--------------
A WAL directory holds numbered segment files ``wal-<8 digits>.log``.
Each segment is a sequence of records framed as::

    varint(len(payload)) . payload . varint(crc32(payload))

reusing the LEB128 varints of :mod:`repro.compression.varint`.  The
payload is itself varint-packed::

    lsn . seq . len(stream) . stream-utf8 . n_ops . (op u v)*

where ``op`` is 0 for insert and 1 for delete.  LSNs (log sequence
numbers) are assigned densely by :meth:`WriteAheadLog.append_record` and are
the recovery cursor: a checkpoint records the LSN it folded through,
and replay skips records at or below it.

Since LSNs start at 1, a leading varint of ``0`` can never open an
ingest payload; it marks an *extended* record instead::

    0 . kind . <kind payload>

Kind 1 is ``resummarize`` (a committed background-maintenance pass)::

    0 . 1 . lsn . n_targets . (target)* . max_merges+1

where ``max_merges+1`` is 0 when the pass ran without a merge cap.
The record carries the *decision* — which super-nodes were dissolved
and under what deterministic cap — so crash recovery replays the pass
bit-identically (the re-encode is a pure function of the replayed
state and these parameters).  Ingest records keep their exact
original byte encoding.

Kind 2 is ``term`` (a replication leadership change)::

    0 . 2 . lsn . term

Terms are the monotonic fencing counter of primary/follower
replication (docs/resilience.md, "Replication & failover"): a newly
promoted primary stamps its term into the log before accepting
writes, the record ships to followers like any other, and a revived
stale primary — whose log lacks the newer term — is fenced when it
tries to replicate.  Because the term is an ordinary WAL record, a
follower's log is byte-identical to its primary's, terms included.

On the wire
-----------
These frames are the only encoding of a log record: the
``replicate`` op ships a run of them, byte for byte, and a follower
reads it with :func:`decode_frames` — the segment scan's reader, made
strict, so a damaged run is refused whole instead of cut short.  A
payload naming LSN 0, term 0, an empty stream id or an empty
mutation list decodes as damage too: the log never writes one.

Torn tails
----------
A crash mid-append leaves a truncated or checksum-broken record at
the end of a segment.  The scan run on open (and by
:meth:`~WriteAheadLog.iter_records`) stops at the first record that
fails to frame or checksum, truncates the segment back to the last
intact record, drops any later segments (nothing after a broken
record can be trusted to be contiguous), and
counts the event under ``repro_wal_records_total{event="torn_dropped"}``.
Only *unacknowledged* data can be lost this way: acknowledgement
happens strictly after the record is durable.

Fsync policies
--------------
``always``  fsync after every append (the durability default);
``interval``  fsync every ``fsync_interval`` appends — bounded loss
window, much higher throughput;
``never``  leave flushing to the OS (benchmarks only).
Fsync latency feeds the ``repro_wal_fsync_seconds`` histogram.
"""

from __future__ import annotations

import os
import re
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.compression.varint import pack_varints, read_varints
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    get_registry,
)

__all__ = [
    "WalRecord",
    "ResummarizeRecord",
    "TermRecord",
    "WriteAheadLog",
    "WalError",
    "decode_frames",
    "encode_record",
    "FSYNC_POLICIES",
    "MUTATION_OPS",
]

FSYNC_POLICIES = ("always", "interval", "never")

#: Wire spelling of the two mutation kinds; index == on-disk opcode.
MUTATION_OPS = ("+", "-")

_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")


class WalError(RuntimeError):
    """The log cannot be opened, appended to, or decoded."""


@dataclass(frozen=True)
class WalRecord:
    """One durable mutation batch."""

    lsn: int
    stream: str
    seq: int
    mutations: tuple[tuple[str, int, int], ...]


@dataclass(frozen=True)
class ResummarizeRecord:
    """One committed background-maintenance pass: the super-nodes it
    dissolved and the deterministic merge cap (``None`` = uncapped)
    its local summarizer ran under."""

    lsn: int
    targets: tuple[int, ...]
    max_merges: int | None


@dataclass(frozen=True)
class TermRecord:
    """One replication leadership change: the monotonic term a newly
    promoted primary stamped into the log before accepting writes."""

    lsn: int
    term: int


#: Discriminator of the :class:`ResummarizeRecord` extended payload.
_KIND_RESUMMARIZE = 1

#: Discriminator of the :class:`TermRecord` extended payload.
_KIND_TERM = 2


#: On-disk opcode of each mutation kind.
_OPCODES = {op: code for code, op in enumerate(MUTATION_OPS)}


def encode_record(record) -> bytes:
    """Frame one record (length prefix + payload + crc32 varint)."""
    payload = bytearray()
    if isinstance(record, ResummarizeRecord):
        pack_varints(payload, (
            0, _KIND_RESUMMARIZE, record.lsn, len(record.targets),
            *record.targets,
            0 if record.max_merges is None else record.max_merges + 1,
        ))
    elif isinstance(record, TermRecord):
        pack_varints(payload, (0, _KIND_TERM, record.lsn, record.term))
    else:
        stream = record.stream.encode("utf-8")
        pack_varints(payload, (record.lsn, record.seq, len(stream)))
        payload += stream
        values = [len(record.mutations)]
        try:
            for op, u, v in record.mutations:
                values += (_OPCODES[op], u, v)
        except KeyError as exc:
            raise ValueError(f"unknown mutation op {exc.args[0]!r}") from None
        pack_varints(payload, values)
    frame = bytearray()
    pack_varints(frame, (len(payload),))
    frame += payload
    pack_varints(frame, (zlib.crc32(payload),))
    return bytes(frame)


def _decode_payload(body: bytes):
    """The record one frame's payload holds; raises ``ValueError`` on
    bytes no record encodes to, and on records the log never writes
    (lsn or term 0, an empty stream id or mutation list)."""
    (lsn,), offset = read_varints(body, 0, 1)
    if lsn == 0:
        # LSNs are 1-based; a leading 0 marks an extended record.
        (kind, lsn), offset = read_varints(body, offset, 2)
        if lsn == 0:
            raise ValueError("record lsn 0")
        if kind == _KIND_TERM:
            (term,), offset = read_varints(body, offset, 1)
            if term == 0:
                raise ValueError("term record with term 0")
            record = TermRecord(lsn=lsn, term=term)
        elif kind == _KIND_RESUMMARIZE:
            (count,), offset = read_varints(body, offset, 1)
            targets, offset = read_varints(body, offset, count)
            (merges_plus_1,), offset = read_varints(body, offset, 1)
            record = ResummarizeRecord(
                lsn=lsn,
                targets=tuple(targets),
                max_merges=None if merges_plus_1 == 0 else merges_plus_1 - 1,
            )
        else:
            raise ValueError(f"unknown extended record kind {kind}")
    else:
        (seq, stream_len), offset = read_varints(body, offset, 2)
        if offset + stream_len > len(body):
            raise ValueError("truncated stream id")
        if stream_len == 0:
            raise ValueError("ingest record with an empty stream id")
        stream = body[offset:offset + stream_len].decode("utf-8")
        (count,), offset = read_varints(body, offset + stream_len, 1)
        if count == 0:
            raise ValueError("ingest record with no mutations")
        flat, offset = read_varints(body, offset, 3 * count)
        codes = flat[0::3]
        if codes and max(codes) >= len(MUTATION_OPS):
            raise ValueError(f"unknown mutation opcode {max(codes)}")
        record = WalRecord(
            lsn=lsn, stream=stream, seq=seq, mutations=tuple(zip(
                [MUTATION_OPS[code] for code in codes], flat[1::3], flat[2::3]
            )),
        )
    if offset != len(body):
        raise ValueError("trailing bytes in record payload")
    return record


def _iter_frames(data: bytes, *, strict: bool = False):
    """Yield ``(record, end_offset)`` for each intact record in one
    segment's bytes, stopping at the first record that fails to frame,
    checksum, or decode (the torn tail, if any, starts there) — or,
    when ``strict``, raising its ``ValueError`` instead."""
    offset = 0
    while offset < len(data):
        try:
            (length,), body_start = read_varints(data, offset, 1)
            body_end = body_start + length
            if body_end > len(data):
                raise ValueError("truncated record body")
            body = data[body_start:body_end]
            (crc,), offset = read_varints(data, body_end, 1)
            if crc != zlib.crc32(body):
                raise ValueError("record checksum mismatch")
            record = _decode_payload(body)
        except ValueError:
            if strict:
                raise
            return
        yield record, offset


def decode_frames(data: bytes) -> tuple:
    """Every record in ``data``, a run of whole frames as a segment
    holds them (and as the ``replicate`` op ships them); raises
    ``ValueError`` on the first byte that is not part of an intact
    record, so a damaged run is refused whole."""
    return tuple(record for record, _ in _iter_frames(data, strict=True))


class WriteAheadLog:
    """Append-only, segment-rotated, checksummed mutation log.

    Parameters
    ----------
    directory:
        Created if missing.  Existing segments are scanned on open:
        the torn tail (if any) is truncated away so new appends start
        at a clean boundary, and the next LSN continues from the last
        durable record.
    fsync:
        One of :data:`FSYNC_POLICIES`.
    fsync_interval:
        Appends between fsyncs under the ``interval`` policy.
    segment_bytes:
        Rotate to a fresh segment once the active one reaches this
        size (checked before each append, so records never split
        across segments).
    registry:
        Metrics registry; defaults to the process-global one.  Pass
        the serving :class:`~repro.service.metrics.ServiceMetrics`
        registry so WAL counters ride the ``stats``/``telemetry`` ops.

    All methods are thread-safe; appends are serialized by one lock,
    which also makes LSN assignment race-free.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: str = "always",
        fsync_interval: int = 8,
        segment_bytes: int = 4 << 20,
        registry: MetricsRegistry | None = None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; "
                f"choose from {', '.join(FSYNC_POLICIES)}"
            )
        if fsync_interval < 1:
            raise ValueError("fsync_interval must be >= 1")
        if segment_bytes < 1:
            raise ValueError("segment_bytes must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._fsync_interval = fsync_interval
        self._segment_bytes = segment_bytes
        self._registry = registry if registry is not None else get_registry()
        # Handles of the two series every append touches, made on
        # first use so a log that never appends or fsyncs exports
        # neither series.
        self._appended: Counter | None = None
        self._fsync_seconds: Histogram | None = None
        self._lock = threading.Lock()
        self._unsynced = 0
        self._file = None
        # segment index -> last LSN it holds (-1 while empty).
        self._segment_last_lsn: dict[int, int] = {}
        # Records with lsn <= _truncated_lsn are no longer in the log
        # (compacted away, or discarded by a snapshot reset); the
        # replication shipper uses this to decide incremental catch-up
        # versus a full snapshot.
        self._truncated_lsn = 0
        self._last_term = 0
        self._open_segments()

    # -- lifecycle -------------------------------------------------------
    def _fsync_directory(self) -> None:
        """Make segment create/unlink durable, not just their bytes:
        fsyncing a file persists its contents, but the *directory
        entry* of a freshly created segment (or the removal of an
        unlinked one) lives in the parent directory and needs its own
        fsync to survive a power failure or OS crash."""
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds (e.g. Windows)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _segment_path(self, index: int) -> Path:
        return self.directory / f"wal-{index:08d}.log"

    def _segment_indexes(self) -> list[int]:
        found = []
        for entry in self.directory.iterdir():
            match = _SEGMENT_RE.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def _open_segments(self) -> None:
        """Scan existing segments, repair the torn tail, and position
        the log for appends."""
        last_lsn = 0
        first_lsn = 0
        indexes = self._segment_indexes()
        for position, index in enumerate(indexes):
            path = self._segment_path(index)
            data = path.read_bytes()
            segment_last, clean_end = -1, 0
            for record, clean_end in _iter_frames(data):
                segment_last = last_lsn = record.lsn
                first_lsn = first_lsn or record.lsn
                if isinstance(record, TermRecord):
                    self._last_term = max(self._last_term, record.term)
            self._segment_last_lsn[index] = segment_last
            if clean_end < len(data):
                self._count_records("torn_dropped")
                with path.open("r+b") as handle:
                    handle.truncate(clean_end)
                    handle.flush()
                    os.fsync(handle.fileno())
                # Nothing after a broken record is trustworthy.
                for later in indexes[position + 1:]:
                    self._segment_path(later).unlink(missing_ok=True)
                    self._segment_last_lsn.pop(later, None)
                    self._count_segments("dropped")
                self._count_segments("repaired")
                break
        self._last_lsn = last_lsn
        if first_lsn > 0:
            self._truncated_lsn = first_lsn - 1
        self._active_index = max(self._segment_last_lsn, default=0)
        path = self._segment_path(self._active_index)
        self._segment_last_lsn.setdefault(self._active_index, -1)
        self._file = path.open("ab")
        # The open above may have created the first segment, and the
        # torn-tail repair may have unlinked later ones.
        self._fsync_directory()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._sync_locked(force=True)
                self._file.close()
                self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- write -----------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        """LSN of the newest durable record (0 when the log is empty)."""
        with self._lock:
            return self._last_lsn

    @property
    def last_term(self) -> int:
        """Highest replication term recorded in the log (0 when none)."""
        with self._lock:
            return self._last_term

    @property
    def truncated_lsn(self) -> int:
        """Highest LSN no longer readable from the log: records at or
        below it were removed by :meth:`truncate_through` (their
        effects live in a checkpoint) or by :meth:`reset`."""
        with self._lock:
            return self._truncated_lsn

    def append_record(self, record) -> int:
        """Append one record of any kind; returns its LSN.

        The record is on disk (and fsynced, policy permitting) when
        this returns — the caller may only apply and acknowledge it
        afterwards.  Its ``lsn`` must be past the last LSN in the log.
        """
        if not self.append_new(record):
            raise WalError(
                f"lsn {record.lsn} is not past the last lsn {self.last_lsn}"
            )
        return record.lsn

    def append_new(self, record) -> bool:
        """:meth:`append_record`, except that a record whose LSN the
        log already holds (replayed or re-shipped) is skipped: returns
        whether it appended, deciding and writing in one lock round."""
        with self._lock:
            if record.lsn <= self._last_lsn:
                return False
            if self._file is None:
                raise WalError("write-ahead log is closed")
            self._write_locked(record)
            return True

    def _write_locked(self, record) -> None:
        frame = encode_record(record)
        if self._file.tell() > 0 and (
            self._file.tell() + len(frame) > self._segment_bytes
        ):
            self._rotate_locked()
        self._file.write(frame)
        self._file.flush()
        self._unsynced += 1
        if self._fsync == "always" or (
            self._fsync == "interval"
            and self._unsynced >= self._fsync_interval
        ):
            self._sync_locked()
        self._last_lsn = record.lsn
        if isinstance(record, TermRecord):
            self._last_term = max(self._last_term, record.term)
        self._segment_last_lsn[self._active_index] = record.lsn
        if self._appended is None:
            self._appended = self._registry.counter(
                "repro_wal_records_total", event="appended"
            )
        self._appended.inc()

    def _rotate_locked(self) -> None:
        self._sync_locked(force=True)
        self._file.close()
        self._active_index += 1
        self._segment_last_lsn[self._active_index] = -1
        self._file = self._segment_path(self._active_index).open("ab")
        # Persist the new segment's directory entry before any record
        # is acknowledged from it.
        self._fsync_directory()
        self._count_segments("rotated")

    def _sync_locked(self, force: bool = False) -> None:
        if self._unsynced == 0 and not force:
            return
        if self._fsync == "never" and not force:
            self._unsynced = 0
            return
        started = time.perf_counter()
        self._file.flush()
        os.fsync(self._file.fileno())
        elapsed = time.perf_counter() - started
        if self._fsync_seconds is None:
            self._fsync_seconds = self._registry.histogram(
                "repro_wal_fsync_seconds"
            )
        self._fsync_seconds.observe(elapsed)
        self._unsynced = 0

    def sync(self) -> None:
        """Force an fsync of the active segment."""
        with self._lock:
            if self._file is not None:
                self._sync_locked(force=True)

    # -- read ------------------------------------------------------------
    def iter_records(self, after_lsn: int = 0):
        """Stream durable records with ``lsn > after_lsn``, oldest
        first, decoding one record at a time.

        Re-reads the segments from disk, so it sees exactly what a
        recovering process would; a torn tail ends the scan.  At most
        one segment's bytes are held in memory at a time, and sealed
        segments that end at or below ``after_lsn`` are skipped unread,
        so a replay cursor decodes only the segments it needs.
        """
        with self._lock:
            if self._file is not None:
                self._file.flush()
            indexes = [
                index for index in self._segment_indexes()
                if index == self._active_index
                or self._segment_last_lsn.get(index, after_lsn + 1)
                > after_lsn
            ]
        for index in indexes:
            try:
                data = self._segment_path(index).read_bytes()
            except FileNotFoundError:
                continue  # truncated away since the listing
            end = 0
            for record, end in _iter_frames(data):
                if record.lsn > after_lsn:
                    self._count_records("replayed")
                    yield record
            if end < len(data):
                self._count_records("torn_dropped")
                return

    # -- compaction ------------------------------------------------------
    def truncate_through(self, lsn: int) -> int:
        """Delete whole segments made redundant by a checkpoint at
        ``lsn``; returns how many were removed.

        A segment is removable when every record it holds is at or
        below ``lsn`` — except the active segment, which stays (its
        already-applied records are skipped on replay via the
        checkpoint's LSN cursor).
        """
        removed = 0
        with self._lock:
            for index in sorted(self._segment_last_lsn):
                if index == self._active_index:
                    continue
                last = self._segment_last_lsn[index]
                if last <= lsn:
                    self._segment_path(index).unlink(missing_ok=True)
                    del self._segment_last_lsn[index]
                    if last > 0:
                        self._truncated_lsn = max(self._truncated_lsn, last)
                    removed += 1
                    self._count_segments("truncated")
            if removed:
                self._fsync_directory()
        return removed

    def reset(self, last_lsn: int, *, term: int = 0) -> None:
        """Discard every segment and restart the log at ``last_lsn``.

        Used when a follower installs a snapshot whose state
        supersedes — and may *diverge from* — the local log (a fenced
        stale primary rejoining, or a rejoin across a truncation gap):
        the on-disk tail is wiped so nothing stale can ever replay,
        and appends continue from the snapshot's LSN.  The caller must
        persist a checkpoint at ``last_lsn`` so the post-restart
        replay cursor matches.
        """
        with self._lock:
            if self._file is None:
                raise WalError("write-ahead log is closed")
            self._sync_locked(force=True)
            self._file.close()
            for index in self._segment_indexes():
                self._segment_path(index).unlink(missing_ok=True)
            self._segment_last_lsn = {0: -1}
            self._active_index = 0
            self._last_lsn = last_lsn
            self._truncated_lsn = last_lsn
            self._last_term = term
            self._unsynced = 0
            self._file = self._segment_path(0).open("ab")
            self._fsync_directory()
            self._count_segments("reset")

    # -- metrics ---------------------------------------------------------
    def _count_records(self, event: str) -> None:
        self._registry.counter(
            "repro_wal_records_total", event=event
        ).inc()

    def _count_segments(self, event: str) -> None:
        self._registry.counter(
            "repro_wal_segments_total", event=event
        ).inc()
