"""Crash recovery: checkpoint + WAL tail must retrace the live run.

The central contract: a server killed at *any* instant recovers, over
the acknowledged prefix of the stream, to a state bit-identical
(``Representation`` equality) to one that was never killed.
"""

from __future__ import annotations

import json

import pytest

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.durability import (
    WalCompactor,
    WalRecord,
    WriteAheadLog,
    recover_engine,
    replay_tail,
    representation_to_state,
    state_to_representation,
)
from repro.graph import generators
from repro.resilience.checkpoint import CheckpointStore
from repro.service.ingest import MutableQueryEngine


@pytest.fixture(scope="module")
def rep():
    graph = generators.planted_partition(100, 5, 0.6, 0.04, seed=7)
    return (
        MagsDMSummarizer(iterations=8, seed=1)
        .summarize(graph)
        .representation
    )


def _dynamic(rep):
    from repro.dynamic.summary import DynamicGraphSummary

    return DynamicGraphSummary.from_representation(rep)


def _free_edge(rep):
    """A pair that is guaranteed not to be an edge of ``rep``."""
    edges = set(rep.reconstruct_edges())
    for u in range(rep.n):
        for v in range(u + 1, rep.n):
            if (u, v) not in edges:
                return u, v
    raise AssertionError("complete graph fixture")


def _mutation_script(rep, count=40, seed=11):
    """A deterministic applicable insert/delete sequence."""
    import random

    rng = random.Random(seed)
    edges = set(rep.reconstruct_edges())
    script = []
    for _ in range(count):
        if edges and rng.random() < 0.4:
            edge = rng.choice(sorted(edges))
            edges.discard(edge)
            script.append(("-", *edge))
        else:
            while True:
                u = rng.randrange(rep.n)
                v = rng.randrange(rep.n)
                if u != v and (min(u, v), max(u, v)) not in edges:
                    break
            edge = (min(u, v), max(u, v))
            edges.add(edge)
            script.append(("+", *edge))
    return script


class TestStateRoundtrip:
    def test_representation_roundtrip_is_exact(self, rep):
        state = representation_to_state(rep)
        assert state_to_representation(state) == rep

    def test_state_survives_json(self, rep):
        # JSON stringifies int dict keys; the state format must not
        # rely on any (that is why supernodes travel as pair lists).
        state = json.loads(json.dumps(representation_to_state(rep)))
        assert state_to_representation(state) == rep


class TestRecovery:
    def test_cold_start_without_checkpoint(self, rep, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        engine, pending, report = recover_engine(
            rep, wal, CheckpointStore(tmp_path / "ckpt"),
            engine_factory=MutableQueryEngine,
        )
        assert list(pending) == []
        assert engine.epoch == 0
        assert report.checkpoint_lsn == 0
        assert engine.representation == rep
        wal.close()

    def _run_with_crash(self, rep, tmp_path, script, cut):
        """Apply ``script[:cut]`` durably, 'crash', recover, apply the
        rest; returns the recovered engine."""
        wal = WriteAheadLog(tmp_path / "wal", fsync="never")
        store = CheckpointStore(tmp_path / "wal" / "ckpt")
        engine = MutableQueryEngine(_dynamic(rep), wal=wal)
        compactor = WalCompactor(engine, wal, store, interval=3600)
        for i, mutation in enumerate(script[:cut]):
            engine.ingest("s", i, [list(mutation)])
            if i == cut // 2:
                assert compactor.compact_now() is True
        wal.close()  # simulated kill: nothing else is flushed

        wal2 = WriteAheadLog(tmp_path / "wal", fsync="never")
        engine2, pending, report = recover_engine(
            rep, wal2, store,
            engine_factory=lambda d: MutableQueryEngine(d, wal=wal2),
        )
        replay_tail(engine2, pending, report)
        assert not engine2.replaying
        for i, mutation in enumerate(script[cut:], start=cut):
            engine2.ingest("s", i, [list(mutation)])
        wal2.close()
        return engine2, report

    def test_recovery_is_bit_identical_to_uninterrupted(
        self, rep, tmp_path
    ):
        script = _mutation_script(rep)
        uninterrupted = MutableQueryEngine(_dynamic(rep))
        for i, mutation in enumerate(script):
            uninterrupted.ingest("s", i, [list(mutation)])

        for cut in (0, 1, 19, len(script)):
            recovered, report = self._run_with_crash(
                rep, tmp_path / f"cut{cut}", script, cut
            )
            assert recovered.representation == uninterrupted.representation
            assert recovered.epoch == uninterrupted.epoch
            assert recovered.state.dedup["s"][0] == len(script) - 1
            if cut:
                assert report.describe().startswith("recovered from")

    def test_dedup_map_survives_recovery(self, rep, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        engine = MutableQueryEngine(_dynamic(rep), wal=wal)
        u, v = _free_edge(rep)
        result = engine.ingest("client-a", 5, [["+", u, v]])
        wal.close()

        wal2 = WriteAheadLog(tmp_path, fsync="never")
        engine2, pending, report = recover_engine(
            rep, wal2, CheckpointStore(tmp_path / "ckpt"),
            engine_factory=lambda d: MutableQueryEngine(d, wal=wal2),
        )
        replay_tail(engine2, pending, report)
        retry = engine2.ingest("client-a", 5, [["+", u, v]])
        assert retry == {**result, "duplicate": True}
        wal2.close()

    def test_corrupt_checkpoint_falls_back_to_older(self, rep, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="never")
        store = CheckpointStore(tmp_path / "ckpt", keep=5)
        engine = MutableQueryEngine(_dynamic(rep), wal=wal)
        compactor = WalCompactor(engine, wal, store, interval=3600)
        u, v = _free_edge(rep)
        engine.ingest("s", 0, [["+", u, v]])
        compactor.compact_now()
        engine.ingest("s", 1, [["-", u, v]])
        compactor.compact_now()
        wal.close()
        newest = sorted(store.directory.glob("ckpt-*.json"))[-1]
        newest.write_text(newest.read_text()[:-40])  # corrupt it

        wal2 = WriteAheadLog(tmp_path, fsync="never")
        engine2, pending, report = recover_engine(
            rep, wal2, store,
            engine_factory=lambda d: MutableQueryEngine(d, wal=wal2),
        )
        # Older checkpoint (lsn=1) + WAL tail (lsn=2) still recover
        # the full state.
        replay_tail(engine2, pending, report)
        assert engine2.applied_lsn == 2
        assert engine2.representation == engine.representation
        wal2.close()

    def _ingest_with_checkpoints(self, rep, tmp_path, cut_at, compact):
        """Ingest 11 single-mutation batches into an engine whose WAL
        rotates every ~4 records, checkpointing at each LSN in
        ``cut_at`` (through the compactor when ``compact``)."""
        wal = WriteAheadLog(tmp_path, fsync="never", segment_bytes=64)
        store = CheckpointStore(tmp_path / "ckpt")
        engine = MutableQueryEngine(_dynamic(rep), wal=wal)
        compactor = WalCompactor(engine, wal, store, interval=3600)
        for i, mutation in enumerate(_mutation_script(rep, count=11)):
            engine.ingest("s", i, [list(mutation)])
            if engine.applied_lsn in cut_at:
                if compact:
                    assert compactor.compact_now() is True
                else:
                    store.save(
                        engine.state.to_state(), step=engine.applied_lsn
                    )
        return engine, wal, store

    def test_corrupt_newest_checkpoint_keeps_needed_tail(
        self, rep, tmp_path
    ):
        """The compactor truncates the WAL only through the oldest
        checkpoint the store keeps, so falling back past a corrupt
        newest checkpoint still replays every acknowledged batch."""
        engine, wal, store = self._ingest_with_checkpoints(
            rep, tmp_path, cut_at=(4, 10), compact=True
        )
        wal.close()
        assert store.steps() == [4, 10]
        newest = store.path_for(10)
        newest.write_text(newest.read_text()[:-40])  # corrupt it

        wal2 = WriteAheadLog(tmp_path, fsync="never", segment_bytes=64)
        engine2, pending, report = recover_engine(
            rep, wal2, store,
            engine_factory=lambda d: MutableQueryEngine(d, wal=wal2),
        )
        assert report.checkpoint_lsn == 4
        replay_tail(engine2, pending, report)
        assert report.records_replayed == 7
        assert engine2.applied_lsn == 11
        assert json.dumps(engine2.state.to_state(), sort_keys=True) == (
            json.dumps(engine.state.to_state(), sort_keys=True)
        )
        wal2.close()

    @pytest.mark.parametrize("bad", ["+existing", "-missing"])
    def test_replay_refuses_inapplicable_record(self, rep, tmp_path, bad):
        """A checksum-valid record that inserts an existing edge or
        deletes a missing one stops recovery with an error, and the
        state keeps every record before it and nothing of the bad
        one, not even its applicable first mutation."""
        u, v = _free_edge(rep)
        x, y = min(rep.reconstruct_edges())
        second = ["+", x, y] if bad == "+existing" else ["-", u, v]
        with WriteAheadLog(tmp_path, fsync="never") as wal:
            # The log takes any well-formed record; only the engine
            # knows this one cannot apply.
            wal.append_record(WalRecord(
                lsn=1, stream="s", seq=0, mutations=(("+", u, v),)
            ))
            wal.append_record(WalRecord(
                lsn=2, stream="s", seq=1,
                mutations=(("-", u, v), tuple(second)),
            ))
        expected = MutableQueryEngine(_dynamic(rep))
        expected.ingest("s", 0, [["+", u, v]])

        with WriteAheadLog(tmp_path, fsync="never") as wal:
            engine, pending, report = recover_engine(
                rep, wal, None,
                engine_factory=lambda d: MutableQueryEngine(d, wal=wal),
            )
            message = "already exists" if bad == "+existing" else (
                "does not exist"
            )
            with pytest.raises(ValueError, match=f"mutation #1: .*{message}"):
                replay_tail(engine, pending, report)
        assert not engine.replaying
        assert engine.state.to_state() == expected.state.to_state()
        assert v in engine.neighbors(u)

    def test_log_gap_after_checkpoint_fails_startup(self, rep, tmp_path):
        """A log that does not continue the loaded checkpoint is a
        startup error naming the missing LSN range, never a replay
        that silently skips acknowledged batches."""
        _, wal, store = self._ingest_with_checkpoints(
            rep, tmp_path, cut_at=(4,), compact=False
        )
        # Truncate as if a (since lost) checkpoint at lsn 10 existed.
        wal.truncate_through(10)
        wal.close()

        wal2 = WriteAheadLog(tmp_path, fsync="never", segment_bytes=64)
        assert next(wal2.iter_records()).lsn == 9
        with pytest.raises(ValueError, match="records 5-8 are missing"):
            recover_engine(
                rep, wal2, store,
                engine_factory=lambda d: MutableQueryEngine(d, wal=wal2),
            )
        wal2.close()

    def test_dedup_fingerprint_survives_recovery(self, rep, tmp_path):
        """The checkpointed dedup map carries the batch content, so a
        recovered server still rejects the last seq replayed with
        *different* mutations (and still dedups the true retry)."""
        from repro.service.engine import QueryError

        store = CheckpointStore(tmp_path / "ckpt")
        engine = MutableQueryEngine(_dynamic(rep))
        u, v = _free_edge(rep)
        engine.ingest("s", 0, [["+", u, v]])
        store.save(json.loads(json.dumps(engine.state.to_state())), step=1)

        engine2, pending, _ = recover_engine(
            rep, None, store, engine_factory=MutableQueryEngine
        )
        assert list(pending) == []
        assert engine2.ingest("s", 0, [["+", u, v]])["duplicate"] is True
        with pytest.raises(QueryError, match="reused with different"):
            engine2.ingest("s", 0, [["-", u, v]])

    @pytest.mark.parametrize("version", [2, 3, 99])
    def test_checkpoint_version_gate(self, rep, tmp_path, version):
        # Only v4 loads: older versions were only ever written by
        # earlier builds of this repository.
        store = CheckpointStore(tmp_path / "ckpt")
        engine = MutableQueryEngine(_dynamic(rep))
        u, v = _free_edge(rep)
        engine.ingest("s", 0, [["+", u, v]])
        state = engine.state.to_state()
        state["v"] = version
        store.save(state, step=1)
        with pytest.raises(ValueError, match="checkpoint version"):
            recover_engine(
                rep, None, store, engine_factory=MutableQueryEngine
            )


class TestCompactor:
    def test_compaction_truncates_and_bounds_replay(self, rep, tmp_path):
        frame_budget = 256  # tiny segments force rotation
        wal = WriteAheadLog(
            tmp_path, fsync="never", segment_bytes=frame_budget
        )
        store = CheckpointStore(tmp_path / "ckpt")
        engine = MutableQueryEngine(_dynamic(rep), wal=wal)
        compactor = WalCompactor(engine, wal, store, interval=3600)
        script = _mutation_script(rep, count=30)
        for i, mutation in enumerate(script):
            engine.ingest("s", i, [list(mutation)])
        assert len(list(tmp_path.glob("wal-*.log"))) > 1
        assert compactor.compact_now() is True
        # Everything durable is in the checkpoint; only the active
        # segment remains and the replay tail from it is empty.
        assert len(list(tmp_path.glob("wal-*.log"))) == 1
        assert list(wal.iter_records(after_lsn=engine.applied_lsn)) == []
        # Idempotent: nothing new applied -> no new checkpoint.
        assert compactor.compact_now() is False
        wal.close()

    def test_compactor_skips_during_replay(self, rep, tmp_path):
        engine = MutableQueryEngine(_dynamic(rep))
        u, v = _free_edge(rep)
        engine.ingest("s", 0, [["+", u, v]])
        store = CheckpointStore(tmp_path / "ckpt")
        compactor = WalCompactor(engine, None, store, interval=3600)
        engine.replaying = True
        assert compactor.compact_now() is False
        engine.replaying = False
        assert compactor.compact_now() is True

    def test_background_thread_compacts(self, rep, tmp_path):
        import time

        wal = WriteAheadLog(tmp_path, fsync="never")
        store = CheckpointStore(tmp_path / "ckpt")
        engine = MutableQueryEngine(_dynamic(rep), wal=wal)
        compactor = WalCompactor(engine, wal, store, interval=0.05)
        compactor.start()
        try:
            u, v = _free_edge(rep)
            engine.ingest("s", 0, [["+", u, v]])
            deadline = time.monotonic() + 5.0
            while store.latest() is None:
                assert time.monotonic() < deadline, "no checkpoint cut"
                time.sleep(0.02)
        finally:
            compactor.stop()
            wal.close()
        assert store.latest().state["applied_lsn"] == 1
