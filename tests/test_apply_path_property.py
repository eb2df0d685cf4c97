"""One log, three entry points, one state — Hypothesis-proven.

Every WAL record reaches a mutable engine through the single apply
path (:meth:`repro.durability.state.EngineState.apply`), whichever way
it arrives.  This property generates one log of ingest batches,
background-maintenance passes, and leadership-term changes, commits it
on a live primary, and then feeds the same log through the other two
entry points:

1. **Live primary commit** — ``ingest``, ``maintenance_pass``, and
   self-promotion to a higher term on a durable engine.
2. **Recovery** — a checkpoint cut somewhere mid-log (``to_state`` of
   an engine replayed up to the cut, loaded back through
   ``from_state``) plus ``recover_engine`` + ``replay_tail`` of the
   rest straight from the primary's WAL.
3. **Replication** — a follower fed the primary's WAL over the
   in-process ``replicate`` client, in frames of generated sizes.

All three must serialize to byte-identical ``to_state()`` JSON.
"""

from __future__ import annotations

import base64
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.durability import (
    TermRecord,
    WriteAheadLog,
    recover_engine,
    replay_tail,
)
from repro.durability.wal import encode_record
from repro.dynamic.summary import DynamicGraphSummary
from repro.graph import generators
from repro.resilience.checkpoint import CheckpointStore
from repro.service.ingest import MutableQueryEngine
from tests.inprocess import InProcessNetwork

_N = 40
_BASE = (
    MagsDMSummarizer(iterations=6, seed=3)
    .summarize(generators.planted_partition(_N, 4, 0.5, 0.05, seed=5))
    .representation
)


def _factory():
    return MagsDMSummarizer(iterations=4, seed=1)


def _engine(wal=None) -> MutableQueryEngine:
    return MutableQueryEngine(
        DynamicGraphSummary.from_representation(
            _BASE, summarizer_factory=_factory
        ),
        wal=wal,
    )


def _recovered(wal, store, tail=None) -> MutableQueryEngine:
    """``recover_engine`` + ``replay_tail``: the WAL's pending tail, or
    ``tail`` when given (an in-memory prefix of the log)."""
    engine, pending, report = recover_engine(
        _BASE, wal, store, engine_factory=MutableQueryEngine
    )
    engine.state.dynamic._make_summarizer = _factory
    replay_tail(engine, pending if tail is None else tail, report)
    return engine


def _state_json(engine) -> str:
    with engine._state_lock:
        return json.dumps(engine.state.to_state(), sort_keys=True)


_pairs = st.tuples(
    st.integers(0, _N - 1), st.integers(0, _N - 1)
).filter(lambda p: p[0] != p[1])
_steps = st.one_of(
    st.tuples(st.just("ingest"), st.lists(_pairs, min_size=1, max_size=4)),
    st.tuples(
        st.just("maintain"),
        st.integers(1, 6),
        st.one_of(st.none(), st.integers(0, 6)),
    ),
    st.tuples(st.just("term")),
)


def _run_primary(primary, steps) -> None:
    """Entry point 1: commit ``steps`` live on ``primary``."""
    primary.configure_replication(role="primary")  # opens term 1
    edges = set(_BASE.reconstruct_edges())
    seq = 0
    for step in steps:
        if step[0] == "ingest":
            batch = []
            for u, v in step[1]:
                pair = (min(u, v), max(u, v))
                sign = "-" if pair in edges else "+"
                (edges.discard if sign == "-" else edges.add)(pair)
                batch.append([sign, *pair])
            primary.ingest("prop", seq, batch)
            seq += 1
        elif step[0] == "maintain":
            primary.maintenance_pass(
                max_supernodes=step[1], max_merges=step[2]
            )
        else:
            primary.apply_replicated(primary.term + 1, promote=True)
    assert set(primary.representation.reconstruct_edges()) == edges


def _replicate(records, frame_sizes) -> MutableQueryEngine:
    """Entry point 3: ship ``records`` to a fresh follower over the
    ``replicate`` op, each frame at the term its sender held."""
    follower = _engine()
    follower.configure_replication(role="follower")
    client = InProcessNetwork({"f": follower})("f", 1)
    term = 1
    start = 0
    sizes = iter(frame_sizes)
    while start < len(records):
        frame = records[start:start + next(sizes, len(records))]
        for record in frame:
            if isinstance(record, TermRecord):
                term = max(term, record.term)
        ack = client.request(
            "replicate",
            term=term,
            after_lsn=records[start - 1].lsn if start else 0,
            frames=base64.b64encode(
                b"".join(map(encode_record, frame))
            ).decode("ascii"),
        )
        assert ack["applied"] == len(frame)
        start += len(frame)
    return follower


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    steps=st.lists(_steps, min_size=1, max_size=10),
    cut=st.floats(0.0, 1.0),
    frame_sizes=st.lists(st.integers(1, 5), max_size=12),
)
def test_commit_recovery_and_replication_agree_bit_for_bit(
    steps, cut, frame_sizes
):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        wal = WriteAheadLog(tmp / "wal", fsync="never")
        primary = _engine(wal)
        _run_primary(primary, steps)
        wal.close()
        live = _state_json(primary)

        wal = WriteAheadLog(tmp / "wal", fsync="never")
        records = list(wal.iter_records())
        assert [r.lsn for r in records] == list(
            range(1, primary.applied_lsn + 1)
        )
        # Entry point 2: checkpoint an engine replayed up to the cut,
        # then recover from it plus the primary's WAL past the cut.
        prefix = _recovered(None, None, records[:int(cut * len(records))])
        store = CheckpointStore(tmp / "checkpoints")
        store.save(prefix.state.to_state(), step=prefix.applied_lsn)
        recovered = _recovered(wal, store)
        wal.close()

        follower = _replicate(records, frame_sizes)

    assert _state_json(recovered) == live
    assert _state_json(follower) == live
    assert recovered.epoch == follower.epoch == primary.epoch
