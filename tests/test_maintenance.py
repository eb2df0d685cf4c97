"""Background compactness maintenance: selection, passes, durability.

The tentpole contract: a maintenance pass commits exactly like a
mutation batch (WAL record first, epoch bump, cache invalidation),
interleaves safely with ingest (abandon on epoch movement, never a
torn state), and replays bit-identically after a crash — while the
corrections overlay's exact edge set is preserved at every epoch.
"""

from __future__ import annotations

import tempfile
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.core.verify import deep_audit
from repro.durability import (
    ResummarizeRecord,
    WalCompactor,
    WalRecord,
    WriteAheadLog,
    recover_engine,
    replay_tail,
)
from repro.dynamic.maintenance import MaintenanceTask, select_targets
from repro.dynamic.summary import DynamicGraphSummary
from repro.graph import generators
from repro.graph.graph import Graph
from repro.obs.metrics import series_value
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.guard import ResourceBudget
from repro.service.ingest import MutableQueryEngine

_SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def rep():
    graph = generators.planted_partition(120, 6, 0.6, 0.04, seed=7)
    return (
        MagsDMSummarizer(iterations=8, seed=1)
        .summarize(graph)
        .representation
    )


def _factory():
    return MagsDMSummarizer(iterations=8, seed=1)


def _engine(rep, **kwargs):
    return MutableQueryEngine(
        DynamicGraphSummary.from_representation(
            rep, summarizer_factory=_factory
        ),
        **kwargs,
    )


def _mutation_script(rep, count=40, seed=11):
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


def _telemetry(engine):
    return engine.query({"op": "telemetry"})["result"]["registry"]


def _ingest_all(engine, script, batch=5, stream="s"):
    for seq, start in enumerate(range(0, len(script), batch)):
        chunk = [list(op) for op in script[start:start + batch]]
        ack = engine.ingest(stream, seq, chunk)
        assert ack["applied"] == len(chunk), ack


# ----------------------------------------------------------------------
# Target selection
# ----------------------------------------------------------------------
class TestSelectTargets:
    def test_empty_dirty_selects_nothing(self, rep):
        assert select_targets({}, rep) == ()

    def test_min_dirty_filters(self, rep):
        sid = next(iter(rep.supernodes))
        assert select_targets({sid: 1}, rep, min_dirty=2) == ()

    def test_dirtiest_seed_and_neighbors_selected(self, rep):
        adjacency = rep.superedge_adjacency()
        sid = max(adjacency, key=lambda s: len(adjacency[s]))
        targets = select_targets({sid: 5}, rep, max_supernodes=64)
        assert sid in targets
        assert set(adjacency[sid]) - {sid} <= set(targets)

    def test_cap_respected_and_sorted(self, rep):
        dirty = {sid: 1 + sid % 3 for sid in rep.supernodes}
        targets = select_targets(dirty, rep, max_supernodes=4)
        assert len(targets) == 4
        assert list(targets) == sorted(targets)

    def test_deterministic(self, rep):
        dirty = {sid: 1 + sid % 5 for sid in rep.supernodes}
        assert select_targets(dirty, rep, max_supernodes=10) == (
            select_targets(dict(reversed(dirty.items())), rep,
                           max_supernodes=10)
        )


# ----------------------------------------------------------------------
# One pass on a live engine
# ----------------------------------------------------------------------
class TestMaintenancePass:
    def test_idle_when_clean(self, rep):
        engine = _engine(rep)
        result = engine.maintenance_pass()
        assert result["outcome"] == "idle"

    def test_committed_pass_bumps_epoch_and_clears_dirt(self, rep):
        engine = _engine(rep)
        _ingest_all(engine, _mutation_script(rep, count=40))
        dirty_before = engine.state.dynamic.dirty_supernodes()
        assert dirty_before
        epoch_before = engine.epoch
        result = engine.maintenance_pass(max_supernodes=1024)
        assert result["outcome"] == "committed"
        assert result["processed"] >= len(dirty_before)
        assert engine.epoch == epoch_before + 1
        assert engine.state.dynamic.dirty_supernodes() == {}
        registry = _telemetry(engine)
        assert series_value(
            registry, "repro_maintenance_passes_total", outcome="committed"
        ) == 1
        assert series_value(
            registry, "repro_maintenance_dirty_supernodes"
        ) == 0

    def test_pass_preserves_exact_edge_set(self, rep):
        engine = _engine(rep)
        script = _mutation_script(rep, count=40)
        _ingest_all(engine, script)
        dyn = engine.state.dynamic
        before = set(dyn.to_representation().reconstruct_edges())
        engine.maintenance_pass(max_supernodes=1024)
        after = set(dyn.to_representation().reconstruct_edges())
        assert after == before

    def test_partial_pass_carries_remaining_dirt(self, rep):
        engine = _engine(rep)
        _ingest_all(engine, _mutation_script(rep, count=40))
        total_before = sum(engine.state.dynamic.dirty_supernodes().values())
        result = engine.maintenance_pass(max_supernodes=2)
        assert result["outcome"] == "committed"
        remaining = engine.state.dynamic.dirty_supernodes()
        # Some dirt must survive the tiny pass, and no count may grow.
        assert remaining
        assert sum(remaining.values()) < total_before

    def test_interleaved_commit_abandons_pass(self, rep, monkeypatch):
        engine = _engine(rep)
        _ingest_all(engine, _mutation_script(rep, count=20))
        original = DynamicGraphSummary.resummarize_local

        def racing(self, targets=None, budget=None):
            # A mutation batch lands while the scratch build runs
            # outside the lock (self is the scratch, not the live
            # overlay, so the ingest below does not deadlock).
            if self is not engine.state.dynamic:
                engine.ingest("racer", 0, [["+", 0, 1]])
            return original(self, targets=targets, budget=budget)

        monkeypatch.setattr(
            DynamicGraphSummary, "resummarize_local", racing
        )
        result = engine.maintenance_pass()
        assert result["outcome"] == "abandoned"
        assert series_value(
            _telemetry(engine), "repro_maintenance_passes_total",
            outcome="abandoned",
        ) == 1
        # The interleaved mutation itself must be untouched.
        live = engine.state.dynamic.to_representation()
        assert (0, 1) in live.additions or (
            (0, 1) in set(live.reconstruct_edges())
        )

    def test_skipped_while_replaying(self, rep):
        engine = _engine(rep)
        engine.replaying = True
        assert engine.maintenance_pass()["outcome"] == "skipped"

    def test_pass_invalidates_affected_neighbor_cache(self, rep):
        engine = _engine(rep)
        script = _mutation_script(rep, count=40)
        _ingest_all(engine, script)
        cached = {
            node: engine.neighbors(node) for node in range(rep.n)
        }
        engine.maintenance_pass(max_supernodes=1024)
        for node in range(rep.n):
            assert engine.neighbors(node) == cached[node]

    def test_telemetry_reports_maintenance_gauges(self, rep):
        engine = _engine(rep)
        registry = _telemetry(engine)
        dyn = engine.state.dynamic
        assert "repro_maintenance_passes_total" not in registry
        assert series_value(
            registry, "repro_maintenance_dirty_supernodes"
        ) == 0
        assert series_value(
            registry, "repro_maintenance_dirty_corrections"
        ) == 0
        assert series_value(registry, "repro_summary_cost") == dyn.cost
        assert series_value(
            registry, "repro_summary_base_cost"
        ) == dyn.base_cost
        assert series_value(
            registry, "repro_summary_relative_size"
        ) == pytest.approx(dyn.relative_size)

    def test_dirty_gauge_tracks_live_dirt(self, rep):
        # The gauge is recomputed on every telemetry call: it is
        # present before any pass and current after pass + ingest.
        engine = _engine(rep)
        script = _mutation_script(rep, count=30)
        _ingest_all(engine, script[:20])
        dirty = engine.state.dynamic.dirty_supernodes()
        assert dirty
        registry = _telemetry(engine)
        assert series_value(
            registry, "repro_maintenance_dirty_supernodes"
        ) == len(dirty)
        assert series_value(
            registry, "repro_maintenance_dirty_corrections"
        ) == sum(dirty.values())
        assert engine.maintenance_pass(max_supernodes=2)["outcome"] == (
            "committed"
        )
        _ingest_all(engine, script[20:], stream="t")
        dirty = engine.state.dynamic.dirty_supernodes()
        assert series_value(
            _telemetry(engine), "repro_maintenance_dirty_supernodes"
        ) == len(dirty)

    def test_relative_size_absent_when_not_finite(self, rep):
        engine = _engine(rep)
        assert "repro_summary_relative_size" in _telemetry(engine)
        dyn = engine.state.dynamic
        for u, v in sorted(dyn.to_representation().reconstruct_edges()):
            dyn.delete_edge(u, v)  # an emptied graph still paying cost
        assert dyn.m == 0 and dyn.cost > 0
        assert "repro_summary_relative_size" not in _telemetry(engine)


# ----------------------------------------------------------------------
# The timer task
# ----------------------------------------------------------------------
class TestMaintenanceTask:
    def test_run_once_drains_to_idle(self, rep):
        engine = _engine(rep)
        _ingest_all(engine, _mutation_script(rep, count=40))
        task = MaintenanceTask(
            engine, interval=60.0, max_supernodes=16, max_passes=64
        )
        result = task.run_once()
        assert result["outcome"] == "idle"
        assert result["passes"] >= 1
        assert engine.state.dynamic.dirty_supernodes() == {}

    def test_budget_merge_cap_recorded_per_pass(self, rep):
        with tempfile.TemporaryDirectory() as tmp:
            wal = WriteAheadLog(tmp, fsync="never")
            engine = _engine(rep, wal=wal)
            _ingest_all(engine, _mutation_script(rep, count=30))
            task = MaintenanceTask(
                engine,
                interval=60.0,
                budget=ResourceBudget(max_merges=64),
                max_supernodes=16,
                max_passes=64,
            )
            task.run_once()
            wal.close()
            wal = WriteAheadLog(tmp, fsync="never")
            resum = [
                r for r in wal.iter_records(after_lsn=0)
                if isinstance(r, ResummarizeRecord)
            ]
            wal.close()
            assert resum
            assert all(r.max_merges == 64 for r in resum)

    def test_start_requires_positive_interval(self, rep):
        with pytest.raises(ValueError):
            MaintenanceTask(_engine(rep), interval=0)


# ----------------------------------------------------------------------
# WAL + recovery
# ----------------------------------------------------------------------
class TestResummarizeDurability:
    def test_resummarize_record_roundtrip(self):
        with tempfile.TemporaryDirectory() as tmp:
            wal = WriteAheadLog(tmp, fsync="never")
            wal.append_record(WalRecord(
                lsn=1, stream="s", seq=0, mutations=(("+", 1, 2),)
            ))
            lsn = wal.append_record(ResummarizeRecord(
                lsn=2, targets=(7, 3, 9), max_merges=10
            ))
            wal.append_record(
                ResummarizeRecord(lsn=3, targets=(4,), max_merges=None)
            )
            wal.close()
            wal = WriteAheadLog(tmp, fsync="never")
            records = list(wal.iter_records(after_lsn=0))
            wal.close()
        assert lsn == 2
        assert isinstance(records[1], ResummarizeRecord)
        # Target order is preserved verbatim — replay must see exactly
        # what the pass recorded (select_targets already canonicalizes).
        assert records[1].targets == (7, 3, 9)
        assert records[1].max_merges == 10
        assert records[2].targets == (4,)
        assert records[2].max_merges is None

    def test_recovery_replays_maintenance_bit_identically(self, rep):
        script = _mutation_script(rep, count=60)
        with tempfile.TemporaryDirectory() as tmp:
            wal = WriteAheadLog(tmp, fsync="never")
            engine = _engine(rep, wal=wal)
            for seq, start in enumerate(range(0, len(script), 5)):
                chunk = [list(op) for op in script[start:start + 5]]
                engine.ingest("s", seq, chunk)
                if seq % 3 == 2:
                    engine.maintenance_pass(max_supernodes=8)
            engine.maintenance_pass(max_supernodes=1024)
            wal.close()

            wal2 = WriteAheadLog(tmp, fsync="never")
            recovered, pending, report = recover_engine(
                rep, wal2, None,
                engine_factory=lambda d: MutableQueryEngine(d, wal=wal2),
            )
            recovered.state.dynamic._make_summarizer = _factory
            replay_tail(recovered, pending, report)
            wal2.close()
        assert recovered.representation == engine.representation
        assert recovered.epoch == engine.epoch
        assert recovered.applied_lsn == engine.applied_lsn
        assert (
            recovered.state.dynamic.dirty_supernodes()
            == engine.state.dynamic.dirty_supernodes()
        )
        assert (
            recovered.state.dynamic.base_cost
            == engine.state.dynamic.base_cost
        )
        # Every replayed pass is counted as the live one was.
        committed = [
            e.metrics.registry.counter(
                "repro_maintenance_passes_total", outcome="committed"
            ).value
            for e in (recovered, engine)
        ]
        assert committed[0] == committed[1] > 0

    def test_checkpoint_cut_mid_maintenance_tail(self, rep):
        """Recovering from a checkpoint cut anywhere in a tail that
        contains resummarize records matches the straight replay."""
        script = _mutation_script(rep, count=40)
        with tempfile.TemporaryDirectory() as tmp:
            wal = WriteAheadLog(tmp, fsync="never")
            engine = _engine(rep, wal=wal)
            for seq, start in enumerate(range(0, len(script), 4)):
                chunk = [list(op) for op in script[start:start + 4]]
                engine.ingest("s", seq, chunk)
                if seq % 2 == 1:
                    engine.maintenance_pass(max_supernodes=6)
            wal.close()
            wal = WriteAheadLog(tmp, fsync="never")
            records = list(wal.iter_records(after_lsn=0))
            wal.close()

            def replayed(tail, store=None):
                eng, pending, rpt = recover_engine(
                    rep, None, store,
                    engine_factory=lambda d: MutableQueryEngine(d),
                )
                eng.state.dynamic._make_summarizer = _factory
                replay_tail(eng, list(tail), rpt)
                return eng

            straight = replayed(records)
            for cut in (1, len(records) // 2, len(records) - 1):
                prefix = replayed(records[:cut])
                store = CheckpointStore(Path(tmp) / f"cut-{cut}")
                store.save(
                    prefix.state.to_state(), step=prefix.applied_lsn
                )
                resumed, pending, rpt = recover_engine(
                    rep, None, store,
                    engine_factory=lambda d: MutableQueryEngine(d),
                )
                resumed.state.dynamic._make_summarizer = _factory
                replay_tail(resumed, records[cut:], rpt)
                assert resumed.representation == straight.representation
                assert resumed.state.to_state() == straight.state.to_state()
                assert resumed.epoch == straight.epoch
                assert (
                    resumed.state.dynamic.dirty_supernodes()
                    == straight.state.dynamic.dirty_supernodes()
                )

    def test_old_resummarize_records_skipped_below_checkpoint(self, rep):
        engine = _engine(rep)
        engine.state.applied_lsn = 5
        record = ResummarizeRecord(lsn=3, targets=(1,), max_merges=None)
        assert engine.replay_record(record) is False


# ----------------------------------------------------------------------
# Dedup LRU (satellite 1)
# ----------------------------------------------------------------------
class TestDedupLRU:
    @pytest.fixture()
    def empty_rep(self):
        # No edges: every "+" mutation below is guaranteed applicable.
        return (
            MagsDMSummarizer(iterations=2, seed=0)
            .summarize(Graph(16, []))
            .representation
        )

    def test_eviction_at_capacity_with_metric(self, empty_rep):
        engine = _engine(empty_rep, dedup_capacity=2)
        engine.ingest("a", 0, [["+", 0, 1]])
        engine.ingest("b", 0, [["+", 0, 2]])
        engine.ingest("c", 0, [["+", 0, 3]])
        assert set(engine.state.dedup) == {"b", "c"}
        evictions = engine.metrics.registry.counter(
            "repro_ingest_dedup_evictions_total"
        ).value
        assert evictions == 1

    def test_duplicate_read_does_not_refresh_recency(self, empty_rep):
        engine = _engine(empty_rep, dedup_capacity=2)
        engine.ingest("a", 0, [["+", 0, 1]])
        engine.ingest("b", 0, [["+", 0, 2]])
        # A duplicate retry of "a" must NOT move it to the back:
        # eviction order stays a pure function of the commit sequence
        # (and therefore of the WAL).
        dup = engine.ingest("a", 0, [["+", 0, 1]])
        assert dup.get("duplicate") is True
        engine.ingest("c", 0, [["+", 0, 3]])
        assert set(engine.state.dedup) == {"b", "c"}

    def test_unbounded_when_capacity_zero(self, empty_rep):
        engine = _engine(empty_rep, dedup_capacity=0)
        for i in range(10):
            engine.ingest(f"s{i}", 0, [["+", 0, i + 1]])
        assert len(engine.state.dedup) == 10

    def test_checkpoint_roundtrip_preserves_eviction_order(self, empty_rep):
        with tempfile.TemporaryDirectory() as tmp:
            engine = _engine(empty_rep, dedup_capacity=3)
            for i, stream in enumerate("abc"):
                engine.ingest(stream, 0, [["+", 0, i + 1]])
            state = engine.state.to_state()
            assert state["v"] == 4
            store = CheckpointStore(tmp)
            store.save(state, step=1)
            recovered, _, _ = recover_engine(
                empty_rep, None, store,
                engine_factory=lambda d: MutableQueryEngine(
                    d, dedup_capacity=3
                ),
            )
            assert isinstance(recovered.state.dedup, OrderedDict)
            assert list(recovered.state.dedup) == list(engine.state.dedup)
            # One more commit past capacity evicts the oldest ("a").
            recovered.ingest("d", 0, [["+", 0, 9]])
            assert set(recovered.state.dedup) == {"b", "c", "d"}


# ----------------------------------------------------------------------
# Compactor seeding (satellite 2)
# ----------------------------------------------------------------------
class TestCompactorSeeding:
    def test_seeded_compactor_skips_recovered_prefix(self, rep):
        with tempfile.TemporaryDirectory() as tmp:
            wal = WriteAheadLog(tmp, fsync="never")
            store = CheckpointStore(Path(tmp) / "ck")
            engine = _engine(rep, wal=wal)
            engine.ingest("s", 0, [["+", 0, 1]])
            lsn = engine.applied_lsn
            seeded = WalCompactor(
                engine, wal, store, interval=30.0, last_lsn=lsn
            )
            # Nothing new since the "recovered checkpoint": no re-cut.
            assert seeded.compact_now() is False
            assert store.latest() is None
            # New work past the seed compacts normally.
            engine.ingest("s", 1, [["+", 0, 2]])
            assert seeded.compact_now() is True
            assert store.latest().state["applied_lsn"] == lsn + 1
            wal.close()

    def test_unseeded_compactor_recuts_immediately(self, rep):
        with tempfile.TemporaryDirectory() as tmp:
            wal = WriteAheadLog(tmp, fsync="never")
            store = CheckpointStore(Path(tmp) / "ck")
            engine = _engine(rep, wal=wal)
            engine.ingest("s", 0, [["+", 0, 1]])
            compactor = WalCompactor(engine, wal, store, interval=30.0)
            assert compactor.compact_now() is True
            wal.close()


# ----------------------------------------------------------------------
# Degraded pagerank snapshot (satellite 3)
# ----------------------------------------------------------------------
class TestDegradedPagerankSnapshot:
    def test_degraded_estimate_is_flagged_and_finite(self, rep):
        engine = _engine(rep, degraded=True)
        sink: list = []
        score = engine.pagerank_score(0, deadline=0.0, degraded_sink=sink)
        assert sink == ["pagerank"]
        assert 0.0 < score < 1.0


# ----------------------------------------------------------------------
# Properties: interleaving + crash cuts (satellite 5)
# ----------------------------------------------------------------------
@st.composite
def interleaved_scenarios(draw):
    n = draw(st.integers(min_value=4, max_value=12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    count = draw(st.integers(0, min(len(possible), 20)))
    indices = draw(
        st.lists(
            st.integers(0, len(possible) - 1),
            min_size=count, max_size=count, unique=True,
        )
    )
    tokens = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=25))
    return n, [possible[i] for i in indices], tokens


def _script_from_tokens(n, initial_edges, tokens):
    edges = set(initial_edges)
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    script = []
    for token in tokens:
        free = sorted(set(possible) - edges)
        present = sorted(edges)
        if token % 2 == 0 and free:
            edge = free[(token // 2) % len(free)]
            edges.add(edge)
            script.append(("+", *edge))
        elif present:
            edge = present[(token // 2) % len(present)]
            edges.discard(edge)
            script.append(("-", *edge))
        elif free:
            edge = free[(token // 2) % len(free)]
            edges.add(edge)
            script.append(("+", *edge))
    return script, edges


def _small_rep(n, edges):
    return MagsDMSummarizer(iterations=5, seed=0).summarize(
        Graph(n, sorted(edges))
    ).representation


@given(scenario=interleaved_scenarios())
@settings(**_SETTINGS)
def test_interleaved_maintenance_preserves_edge_set_at_every_epoch(
    scenario,
):
    n, initial_edges, tokens = scenario
    script, _ = _script_from_tokens(n, initial_edges, tokens)
    rep = _small_rep(n, initial_edges)
    engine = MutableQueryEngine(
        DynamicGraphSummary.from_representation(
            rep,
            summarizer_factory=lambda: MagsDMSummarizer(
                iterations=5, seed=0
            ),
        )
    )
    oracle = set(initial_edges)
    for i, mutation in enumerate(script):
        engine.ingest("hypo", i, [list(mutation)])
        sign, u, v = mutation
        (oracle.add if sign == "+" else oracle.discard)((u, v))
        if i % 3 == 2:
            engine.maintenance_pass(
                max_supernodes=4 + i % 5, max_merges=8 + i % 7
            )
        got = set(
            engine.state.dynamic.to_representation().reconstruct_edges()
        )
        assert got == oracle, f"diverged after mutation {i}"
    # Converge fully, then the summary is the optimal encoding of its
    # own partition.
    while engine.maintenance_pass(max_supernodes=1024)["outcome"] == (
        "committed"
    ):
        pass
    assert deep_audit(engine.representation, optimal=True) == []


@given(
    scenario=interleaved_scenarios(),
    cut_fraction=st.floats(0.0, 1.0),
)
@settings(**_SETTINGS)
def test_recovery_at_random_cut_covers_resummarize_records(
    scenario, cut_fraction
):
    n, initial_edges, tokens = scenario
    script, _ = _script_from_tokens(n, initial_edges, tokens)
    rep = _small_rep(n, initial_edges)

    def factory():
        return MagsDMSummarizer(iterations=5, seed=0)

    with tempfile.TemporaryDirectory() as raw_dir:
        wal_dir = Path(raw_dir)
        wal = WriteAheadLog(wal_dir, fsync="never")
        engine = MutableQueryEngine(
            DynamicGraphSummary.from_representation(
                rep, summarizer_factory=factory
            ),
            wal=wal,
        )
        for i, mutation in enumerate(script):
            engine.ingest("hypo", i, [list(mutation)])
            if i % 4 == 3:
                engine.maintenance_pass(max_supernodes=6)
        wal.close()

        segment = next(iter(sorted(wal_dir.glob("wal-*.log"))), None)
        if segment is not None:
            data = segment.read_bytes()
            segment.write_bytes(data[: int(len(data) * cut_fraction)])

        wal2 = WriteAheadLog(wal_dir, fsync="never")
        recovered, pending, report = recover_engine(
            rep, wal2, None,
            engine_factory=lambda d: MutableQueryEngine(d, wal=wal2),
        )
        recovered.state.dynamic._make_summarizer = factory
        surviving = list(pending)
        replay_tail(recovered, surviving, report)

        # Oracle: an uninterrupted engine fed exactly the surviving
        # records through the same replay path.
        oracle = MutableQueryEngine(
            DynamicGraphSummary.from_representation(
                rep, summarizer_factory=factory
            )
        )
        for record in surviving:
            oracle.replay_record(record)
        assert recovered.representation == oracle.representation
        assert recovered.epoch == oracle.epoch
        assert (
            recovered.state.dynamic.dirty_supernodes()
            == oracle.state.dynamic.dirty_supernodes()
        )

        # The recovered server's maintenance drains what the crash
        # left dirty, into the optimal encoding of the same graph.
        edges = oracle.representation.reconstruct_edges()
        while recovered.maintenance_pass(max_supernodes=1024)[
            "outcome"
        ] == "committed":
            pass
        wal2.close()
    assert recovered.state.dynamic.dirty_supernodes() == {}
    assert deep_audit(
        recovered.representation, Graph(n, sorted(edges)), optimal=True
    ) == []
