"""Property tests: online ingest == from-scratch, even across crashes.

Two invariants, over arbitrary graphs and arbitrary valid interleavings
of insertions and deletions driven through the real ingest path:

1. **Online == offline.**  The graph reconstructed from the mutated
   summary equals a :class:`~repro.graph.graph.Graph` built directly
   from the final edge set (``Graph.__eq__``), and the mutable engine
   serves the same neighbor sets and bit-identical PageRank scores as
   a read-only engine over a snapshot of its summary.
2. **Crash == no crash.**  Tearing the WAL at an arbitrary byte and
   recovering yields exactly the oracle state of the surviving durable
   prefix — never a torn or divergent state.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.durability import WriteAheadLog, recover_engine, replay_tail
from repro.dynamic.summary import DynamicGraphSummary
from repro.graph.graph import Graph
from repro.resilience.checkpoint import CheckpointStore
from repro.service.engine import QueryEngine
from repro.service.ingest import MutableQueryEngine

_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def ingest_scenarios(draw):
    """A graph plus tokens that map deterministically to valid ops."""
    n = draw(st.integers(min_value=3, max_value=14))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    count = draw(st.integers(0, min(len(possible), 25)))
    indices = draw(
        st.lists(
            st.integers(0, len(possible) - 1),
            min_size=count, max_size=count, unique=True,
        )
    )
    tokens = draw(
        st.lists(st.integers(0, 10**6), min_size=1, max_size=30)
    )
    return n, [possible[i] for i in indices], tokens


def _script_from_tokens(n, initial_edges, tokens):
    """Turn arbitrary integers into a valid insert/delete interleaving."""
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


def _summarize(n, edges):
    graph = Graph(n, sorted(edges))
    rep = MagsDMSummarizer(iterations=5, seed=0).summarize(
        graph
    ).representation
    return graph, rep


@given(scenario=ingest_scenarios())
@settings(**_SETTINGS)
def test_online_ingest_equals_final_edge_set(scenario):
    n, initial_edges, tokens = scenario
    script, final_edges = _script_from_tokens(n, initial_edges, tokens)
    _, rep = _summarize(n, initial_edges)
    engine = MutableQueryEngine(
        DynamicGraphSummary.from_representation(rep)
    )
    for i, mutation in enumerate(script):
        result = engine.query(
            {"id": i, "op": "ingest", "stream": "hypo", "seq": i,
             "mutations": [list(mutation)]}
        )
        assert result["ok"], result
        assert result["epoch"] == i + 1
    final_graph = Graph(n, sorted(final_edges))
    assert engine.state.dynamic.to_graph() == final_graph
    # One read path: the live engine answers exactly as a read-only
    # engine over a snapshot of its summary, and as the final graph.
    read_only = QueryEngine(engine.state.dynamic.to_representation())
    adjacency = final_graph.adjacency()
    for node in range(n):
        assert engine.neighbors(node) == read_only.neighbors(node)
        assert engine.neighbors(node) == adjacency[node]
        assert engine.pagerank_score(node) == read_only.pagerank_score(node)
    # And the from-scratch summary of the final graph reconstructs the
    # same graph (both sides of the paper's losslessness claim).
    _, fresh_rep = _summarize(n, final_edges)
    assert Graph(
        n, sorted(fresh_rep.reconstruct_edges())
    ) == engine.state.dynamic.to_graph()


@given(scenario=ingest_scenarios(), cut_fraction=st.floats(0.0, 1.0))
@settings(**_SETTINGS)
def test_wal_replay_after_torn_crash_matches_durable_prefix(
    scenario, cut_fraction
):
    n, initial_edges, tokens = scenario
    script, _ = _script_from_tokens(n, initial_edges, tokens)
    _, rep = _summarize(n, initial_edges)
    with tempfile.TemporaryDirectory() as raw_dir:
        wal_dir = Path(raw_dir)
        wal = WriteAheadLog(wal_dir, fsync="never")
        engine = MutableQueryEngine(
            DynamicGraphSummary.from_representation(rep), wal=wal
        )
        for i, mutation in enumerate(script):
            engine.ingest("hypo", i, [list(mutation)])
        wal.close()

        # Crash: tear the log at an arbitrary byte offset.
        segment = next(iter(sorted(wal_dir.glob("wal-*.log"))), None)
        if segment is not None:
            data = segment.read_bytes()
            segment.write_bytes(data[: int(len(data) * cut_fraction)])

        wal2 = WriteAheadLog(wal_dir, fsync="never")
        engine2, pending, report = recover_engine(
            rep, wal2, CheckpointStore(wal_dir / "ckpt"),
            engine_factory=lambda d: MutableQueryEngine(d, wal=wal2),
        )
        replay_tail(engine2, pending, report)
        survived = engine2.applied_lsn
        wal2.close()

    assert 0 <= survived <= len(script)
    # The recovered state is the oracle state of the surviving prefix
    # - exactly, never torn mid-batch.
    oracle = set(initial_edges)
    for sign, u, v in script[:survived]:
        if sign == "+":
            oracle.add((u, v))
        else:
            oracle.discard((u, v))
    assert engine2.state.dynamic.to_graph() == Graph(n, sorted(oracle))
    assert engine2.epoch == survived
