"""Tests for the checkpoint store and algorithm crash/resume."""

import json

import pytest

from repro.algorithms.mags import MagsSummarizer
from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.core.verify import verify_lossless
from repro.graph import generators
from repro.obs.metrics import get_registry
from repro.resilience import (
    CheckpointCorrupt,
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    use_injector,
)


class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        state = {"iteration": 4, "merge_log": [[1, 2], [3, 4]]}
        path = store.save(state, 4)
        assert path.name == "ckpt-00000004.json"
        loaded = store.load(4)
        assert loaded.step == 4
        assert loaded.state == state
        assert loaded.path == path

    def test_versioned_filenames_sorted(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=10)
        for step in (7, 2, 11):
            store.save({"s": step}, step)
        assert store.steps() == [2, 7, 11]

    def test_no_temp_files_left_behind(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"x": 1}, 1)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt-00000001.json"]

    def test_prune_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for step in range(5):
            store.save({"s": step}, step)
        assert store.steps() == [3, 4]

    def test_keep_validation(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointStore(tmp_path, keep=0)

    def test_empty_directory(self, tmp_path):
        store = CheckpointStore(tmp_path / "missing")
        assert store.steps() == []
        assert store.latest() is None

    def test_truncated_file_is_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save({"x": 1}, 3)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointCorrupt):
            store.load(3)

    def test_checksum_detects_state_mutation(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save({"x": 1}, 3)
        record = json.loads(path.read_text())
        record["state"]["x"] = 2  # tamper without updating the checksum
        path.write_text(json.dumps(record))
        with pytest.raises(CheckpointCorrupt, match="checksum"):
            store.load(3)

    def test_version_mismatch_is_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save({"x": 1}, 3)
        record = json.loads(path.read_text())
        record["v"] = 99
        path.write_text(json.dumps(record))
        with pytest.raises(CheckpointCorrupt, match="version"):
            store.load(3)

    def test_step_mismatch_is_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path)
        source = store.save({"x": 1}, 3)
        source.rename(store.path_for(5))
        with pytest.raises(CheckpointCorrupt, match="claims step"):
            store.load(5)

    def test_latest_skips_corrupt_and_counts(self, tmp_path):
        skipped = get_registry().counter(
            "repro_resilience_checkpoints_total", event="corrupt_skipped"
        )
        before = skipped.value
        store = CheckpointStore(tmp_path)
        store.save({"s": 1}, 1)
        newest = store.save({"s": 2}, 2)
        newest.write_bytes(b"not json at all")
        checkpoint = store.latest()
        assert checkpoint is not None and checkpoint.step == 1
        assert skipped.value == before + 1

    def test_injected_corruption_on_write(self, tmp_path):
        store = CheckpointStore(tmp_path)
        injector = FaultInjector(FaultPlan().corrupt("checkpoint:write"))
        with use_injector(injector):
            store.save({"payload": "x" * 200}, 1)
        assert injector.fired_count("checkpoint:write") == 1
        with pytest.raises(CheckpointCorrupt):
            store.load(1)


class TestConfigureCheckpointing:
    def test_interval_validation(self, tmp_path):
        with pytest.raises(ValueError, match="interval"):
            MagsDMSummarizer().configure_checkpointing(
                CheckpointStore(tmp_path), interval=0
            )

    def test_algorithm_mismatch_rejected(self, tmp_path):
        graph = generators.caveman(6, 8, seed=0)
        store = CheckpointStore(tmp_path)
        MagsDMSummarizer(iterations=4, seed=1).configure_checkpointing(
            store, interval=1
        ).summarize(graph)
        wrong = MagsSummarizer(iterations=4, seed=1).configure_checkpointing(
            store, resume=True
        )
        with pytest.raises(ValueError, match="checkpoint is for"):
            wrong.summarize(graph)


def _interrupted_then_resumed(
    make_summarizer, graph, store, after, *, corrupt_newest=False
):
    """Run to completion once (baseline), then crash a second run at
    iteration ``after + 1`` and resume it; returns both results.
    With ``corrupt_newest`` the newest snapshot is torn on disk
    between the crash and the resume."""
    baseline = make_summarizer().summarize(graph)

    injector = FaultInjector(
        FaultPlan().crash("summarize:iteration", after=after)
    )
    interrupted = make_summarizer().configure_checkpointing(store, interval=2)
    with use_injector(injector):
        with pytest.raises(InjectedFault):
            interrupted.summarize(graph)
    assert store.latest() is not None
    if corrupt_newest:
        steps = store.steps()
        assert len(steps) >= 2, steps
        newest = store.path_for(steps[-1])
        newest.write_bytes(newest.read_bytes()[:-40] + b"garbage!")

    resumed = make_summarizer().configure_checkpointing(
        store, interval=2, resume=True
    ).summarize(graph)
    return baseline, resumed


class TestCrashResumeEquivalence:
    """A resumed run must match the uninterrupted baseline *exactly* —
    the merge-log replay reproduces identical partition roots, so the
    remaining iterations see identical state."""

    @pytest.fixture(scope="class")
    def graph(self):
        return generators.planted_partition(180, 9, 0.6, 0.03, seed=5)

    def test_mags_dm_resume_matches_baseline(self, graph, tmp_path):
        """Also when the newest snapshot was torn after the crash: the
        resume skips it for the one before (a clean Mags-DM resume is
        ``tests/test_mags_dm.py::TestByteIdentity``'s)."""
        skipped = get_registry().counter(
            "repro_resilience_checkpoints_total", event="corrupt_skipped"
        )
        before = skipped.value
        store = CheckpointStore(tmp_path)
        baseline, resumed = _interrupted_then_resumed(
            lambda: MagsDMSummarizer(iterations=10, seed=3),
            graph, store, after=6, corrupt_newest=True,
        )
        assert skipped.value > before
        verify_lossless(graph, resumed.representation)
        assert resumed.relative_size == baseline.relative_size
        assert resumed.cost == baseline.cost
        assert resumed.num_merges == baseline.num_merges
        assert (
            resumed.representation.supernodes
            == baseline.representation.supernodes
        )

    def test_mags_resume_matches_baseline(self, graph, tmp_path):
        store = CheckpointStore(tmp_path)
        baseline, resumed = _interrupted_then_resumed(
            lambda: MagsSummarizer(iterations=10, seed=3),
            graph, store, after=6,
        )
        verify_lossless(graph, resumed.representation)
        assert resumed.relative_size == baseline.relative_size
        assert resumed.cost == baseline.cost
        assert resumed.num_merges == baseline.num_merges

    def test_resume_without_checkpoint_starts_fresh(self, graph, tmp_path):
        store = CheckpointStore(tmp_path / "empty")
        result = MagsDMSummarizer(
            iterations=6, seed=3
        ).configure_checkpointing(store, resume=True).summarize(graph)
        verify_lossless(graph, result.representation)
