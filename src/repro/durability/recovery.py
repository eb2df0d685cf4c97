"""Crash recovery: newest checkpoint + WAL tail replay.

The "resumed == uninterrupted" contract of the resilience layer
(docs/resilience.md), extended to the ingest path: a server killed at
any instant restarts by

1. loading the newest *intact* checkpoint from the WAL directory's
   :class:`~repro.resilience.checkpoint.CheckpointStore` (corrupt
   snapshots are skipped with a metric, exactly as in batch resume);
2. replaying every WAL record past the checkpoint's LSN through the
   one apply path live ingest and follower replication use
   (:meth:`~repro.durability.state.EngineState.apply`).

Because mutations are validated *before* they are logged and the
commit path is deterministic, replay retraces the uninterrupted run's
states exactly — including the rebuild schedule, since the checkpoint
carries the dynamic summary's ``base_cost``.  The recovered engine is
therefore bit-identical (``Representation`` equality) to one that was
never killed, over the durable prefix of the stream.

Replay runs with the engine's ``replaying`` flag up, so queries served
meanwhile carry ``"degraded": true`` (the established convention)
instead of being refused, and ingest is parked with a structured
``overloaded`` error until the tail is drained.  Each replay is
wrapped in a ``recovery:replay`` span when tracing is on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from repro.core.encoding import Representation
from repro.durability.state import EngineState
from repro.dynamic.summary import DynamicGraphSummary
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.resilience.checkpoint import CheckpointStore

__all__ = ["RecoveryReport", "recover_engine", "replay_tail"]


@dataclass
class RecoveryReport:
    """What startup recovery found and did."""

    checkpoint_lsn: int  #: LSN of the loaded checkpoint (0 = none)
    records_replayed: int
    epoch: int
    applied_lsn: int

    def describe(self) -> str:
        return (
            f"recovered from checkpoint lsn={self.checkpoint_lsn}, "
            f"replayed {self.records_replayed} WAL record(s) -> "
            f"epoch={self.epoch}, lsn={self.applied_lsn}"
        )


def recover_engine(
    base_representation: Representation,
    wal,
    store: CheckpointStore | None,
    *,
    engine_factory,
):
    """Build a recovered engine plus the WAL tail still to replay.

    Loads the newest intact checkpoint through
    :meth:`EngineState.from_state` (falling back to
    ``base_representation`` at epoch 0 when there is none), builds the
    engine via ``engine_factory(dynamic)``, hands it the loaded state,
    and returns ``(engine, pending_records, report)``.  The caller
    decides whether to drain ``pending_records`` inline (tests, small
    tails) or on a background thread while already serving degraded
    answers — both go through :func:`replay_tail`.  Raises
    :class:`ValueError` when the checkpoint is not a v4 state or when
    the log does not continue where the checkpoint ends (the missing
    LSN range is named).
    """
    checkpoint = store.latest() if store is not None else None
    if checkpoint is not None:
        state = EngineState.from_state(checkpoint.state)
        get_registry().counter(
            "repro_recovery_total", event="checkpoint_loaded"
        ).inc()
    else:
        state = EngineState(
            DynamicGraphSummary.from_representation(base_representation)
        )
        get_registry().counter(
            "repro_recovery_total", event="cold_start"
        ).inc()
    pending = ()
    if wal is not None:
        # The WAL tail may hold a newer term than the checkpoint cut; a
        # replica must not rejoin believing a term it already durably
        # acknowledged is still open to contest.
        state.term = max(state.term, wal.last_term)
        # Lazy: a multi-GB tail streams one record at a time through
        # replay_tail instead of materializing into one list.  Its
        # first record is checked now, so a log that does not continue
        # the checkpoint fails startup instead of replaying a gap.
        records = wal.iter_records(after_lsn=state.applied_lsn)
        first = next(records, None)
        if first is not None:
            state.check_lsn(first.lsn)
            pending = chain((first,), records)
    engine = engine_factory(state.dynamic)
    engine.restore(state)
    report = RecoveryReport(
        checkpoint_lsn=state.applied_lsn,
        records_replayed=0,
        epoch=state.epoch,
        applied_lsn=state.applied_lsn,
    )
    return engine, pending, report


def replay_tail(engine, records, report: RecoveryReport) -> RecoveryReport:
    """Drain the WAL tail into ``engine`` under its ``replaying`` flag.

    Safe to run on a background thread while the server is already
    answering (degraded) queries; ingest stays parked until the flag
    drops.  Updates and returns ``report``.
    """
    engine.replaying = True
    try:
        # ``records`` may be a lazy stream, so the span reports the
        # count only after the drain.
        with get_tracer().span("recovery:replay") as span:
            replayed = sum(map(engine.replay_record, records))
            span.set(records=replayed)
    finally:
        engine.replaying = False
    report.records_replayed = replayed
    report.epoch = engine.epoch
    report.applied_lsn = engine.applied_lsn
    get_registry().counter(
        "repro_recovery_total", event="replay_complete"
    ).inc()
    return report

