"""Background WAL compaction into atomic checkpoints.

An unbounded WAL means unbounded replay on restart.  The compactor
periodically folds the live engine state into the
:class:`~repro.resilience.checkpoint.CheckpointStore` (tmp + rename,
checksummed — never an in-place write) keyed by the applied LSN, then
deletes the WAL segments that *every* retained checkpoint made
redundant (recovery falls back past a corrupt newest checkpoint and
must find the log continuing from the older one).  Replay starts at
the newest intact checkpoint, so recovery time is bounded by one
compaction interval's worth of tail.

Crash-safety is inherited, not re-proved: a kill at any point leaves
either the previous checkpoint (tail replays from it) or the new one
(tail is shorter) — both recover to the identical state.  Segment
deletion strictly follows a successful checkpoint save.
"""

from __future__ import annotations

import logging
import threading

from repro.obs.metrics import get_registry
from repro.resilience.checkpoint import CheckpointError, CheckpointStore

__all__ = ["WalCompactor"]

logger = logging.getLogger("repro.durability")


class WalCompactor:
    """Fold the WAL into checkpoints on a timer (or on demand).

    Parameters
    ----------
    engine:
        A :class:`~repro.service.ingest.MutableQueryEngine`; its state
        lock makes the snapshot one consistent cut.
    wal / store:
        The log to truncate and the checkpoint directory to fold into.
    interval:
        Seconds between compaction attempts; ``start()`` runs a daemon
        thread, or call :meth:`compact_now` yourself (tests, CLI
        shutdown).
    last_lsn:
        LSN already covered by a durable checkpoint — pass the
        recovered checkpoint's LSN so the first pass after a restart
        doesn't re-cut a checkpoint for (and re-truncate) work the
        loaded checkpoint already covers.
    """

    def __init__(
        self,
        engine,
        wal,
        store: CheckpointStore,
        *,
        interval: float = 30.0,
        last_lsn: int = 0,
    ):
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self._engine = engine
        self._wal = wal
        self._store = store
        self._interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_lsn = int(last_lsn)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("compactor already started")
        self._thread = threading.Thread(
            target=self._run, name="wal-compactor", daemon=True
        )
        self._thread.start()

    def stop(self, *, final_compact: bool = False) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if final_compact:
            self.compact_now()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self.compact_now()
            except CheckpointError as exc:
                # Durability is unaffected (the WAL still has
                # everything); log and retry next interval.
                logger.warning("compaction failed: %s", exc)
                get_registry().counter(
                    "repro_wal_compactions_total", event="failed"
                ).inc()

    # -- the fold --------------------------------------------------------
    def compact_now(self) -> bool:
        """One compaction pass; returns whether a checkpoint was cut.

        Skips when nothing was applied since the last fold (and while
        recovery replay is still running — checkpointing a half-replayed
        state is valid but pointless churn).
        """
        engine = self._engine
        if engine.replaying:
            return False
        with engine._state_lock:
            lsn = engine.applied_lsn
            if lsn <= self._last_lsn:
                return False
            state = engine.state.to_state()
        self._store.save(state, step=lsn)
        self._last_lsn = lsn
        oldest = self._store.steps()[0]
        removed = self._wal.truncate_through(oldest) if self._wal else 0
        get_registry().counter(
            "repro_wal_compactions_total", event="completed"
        ).inc()
        logger.info(
            "compacted WAL through lsn=%d (%d segment(s) truncated)",
            lsn, removed,
        )
        return True
