"""Durable online ingest: WAL, crash recovery, compaction.

The systems half of dynamic summarization (ROADMAP "Online ingest"):
:mod:`repro.dynamic.summary` gives the O(1) corrections-overlay
update; this package makes an update stream *survive* — every
acknowledged mutation is in the write-ahead log before it is applied,
a background compactor folds the log into atomic checkpoints, and
startup recovery replays the tail to reproduce the uninterrupted
run's state exactly.  Every record — live commit, replay, or
replicated — reaches the state through one pure state machine,
:class:`~repro.durability.state.EngineState`.  ``repro serve
--wal-dir`` wires it behind the query service; see docs/resilience.md
("Durability & recovery").
"""

from repro.durability.compactor import WalCompactor
from repro.durability.replication import (
    ACKS_MODES,
    REPLICATION_ROLES,
    ReplicaLink,
    ReplicationError,
    ReplicationManager,
    quorum_size,
)
from repro.durability.recovery import (
    RecoveryReport,
    recover_engine,
    replay_tail,
)
from repro.durability.state import (
    EngineState,
    representation_to_state,
    state_to_representation,
)
from repro.durability.wal import (
    FSYNC_POLICIES,
    MUTATION_OPS,
    ResummarizeRecord,
    TermRecord,
    WalError,
    WalRecord,
    WriteAheadLog,
)

__all__ = [
    "ACKS_MODES",
    "EngineState",
    "FSYNC_POLICIES",
    "MUTATION_OPS",
    "REPLICATION_ROLES",
    "RecoveryReport",
    "ReplicaLink",
    "ReplicationError",
    "ReplicationManager",
    "ResummarizeRecord",
    "TermRecord",
    "WalCompactor",
    "WalError",
    "WalRecord",
    "WriteAheadLog",
    "quorum_size",
    "recover_engine",
    "replay_tail",
    "representation_to_state",
    "state_to_representation",
]
