"""Slice one graph into per-shard summary artifacts.

The divide step of the cluster: every node is owned by exactly one
shard (:meth:`ClusterSpec.owner`, the seeded keyed hash), and shard
``s`` gets the subgraph of **every edge incident to a node it owns**.
Cut edges therefore appear on both endpoint shards — that closure is
what makes per-shard serving exact: for any owned node ``u`` the
shard subgraph contains ``u``'s full global neighborhood, so a
lossless summary of the shard subgraph answers ``neighbors(u)`` /
``degree(u)`` **bit-identically** to a summary of the whole graph.
The router only ever asks a shard about nodes the shard owns, so
answers never come from the partial neighborhoods of non-owned
boundary nodes.

Shard subgraphs keep the global id space (``n`` nodes, most of them
isolated on any one shard) — no remapping tables to ship or get
wrong; isolated nodes cost one singleton super-node each in the
per-shard summary, which the text format stores in one line.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Callable

from repro.cluster.topology import ClusterSpec, save_topology, shard_for_node
from repro.core.serialization import save_representation
from repro.graph.graph import Graph

__all__ = ["shard_graph", "plan_cluster", "PlanReport"]

logger = logging.getLogger("repro.cluster")

#: Default artifact filename for one shard.
ARTIFACT_TEMPLATE = "shard-{shard}.summary.txt.gz"


def shard_graph(
    graph: Graph, shards: int, seed: int = 0
) -> list[Graph]:
    """Per-shard subgraphs over the global id space.

    Shard ``s`` receives every edge with at least one endpoint owned
    by ``s`` (cut edges are duplicated onto both endpoint shards), so
    owned neighborhoods are complete.  The union of all shard edge
    sets is exactly the input edge set.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    owner = [shard_for_node(u, shards, seed) for u in range(graph.n)]
    per_shard: list[list[tuple[int, int]]] = [[] for _ in range(shards)]
    for u, v in graph.edges():
        per_shard[owner[u]].append((u, v))
        if owner[v] != owner[u]:
            per_shard[owner[v]].append((u, v))
    return [Graph(graph.n, edges) for edges in per_shard]


class PlanReport:
    """What ``plan_cluster`` produced, for logging and the CLI."""

    def __init__(self, spec: ClusterSpec, rows: list[dict]):
        self.spec = spec
        self.rows = rows

    def summary_lines(self) -> list[str]:
        lines = []
        for row in self.rows:
            lines.append(
                f"shard {row['shard']}: owned={row['owned_nodes']} "
                f"edges={row['edges']} (cut={row['cut_edges']}) "
                f"rel_size={row['relative_size']:.4f} "
                f"-> {row['artifact']}"
            )
        return lines


def plan_cluster(
    graph: Graph,
    spec: ClusterSpec,
    out_dir: str | Path,
    summarizer_factory: Callable[[], object],
    *,
    topology_name: str = "topology.json",
) -> PlanReport:
    """Summarize every shard subgraph and write the cluster directory.

    ``out_dir`` receives one summary artifact per shard plus the
    completed ``topology.json`` (artifacts recorded relative to it,
    ``n`` recorded for router-side range checks).
    ``summarizer_factory`` builds a fresh summarizer per shard —
    summarizer instances are single-use.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    subgraphs = shard_graph(graph, spec.shards, spec.seed)
    owned = [0] * spec.shards
    for u in range(graph.n):
        owned[spec.owner(u)] += 1

    artifacts: dict[int, str] = {}
    rows: list[dict] = []
    for shard, subgraph in enumerate(subgraphs):
        result = summarizer_factory().summarize(subgraph)
        name = ARTIFACT_TEMPLATE.format(shard=shard)
        save_representation(out_dir / name, result.representation)
        artifacts[shard] = name
        cut = sum(
            1
            for u, v in subgraph.edges()
            if spec.owner(u) != spec.owner(v)
        )
        rows.append(
            {
                "shard": shard,
                "owned_nodes": owned[shard],
                "edges": subgraph.m,
                "cut_edges": cut,
                "relative_size": result.relative_size,
                "artifact": name,
            }
        )
        logger.info(
            "planned shard %d: %d owned nodes, %d edges -> %s",
            shard, owned[shard], subgraph.m, name,
        )

    spec.artifacts = artifacts
    spec.n = graph.n
    spec.base_dir = out_dir.resolve()
    save_topology(out_dir / topology_name, spec)
    return PlanReport(spec, rows)
