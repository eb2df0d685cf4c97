"""Query processing on summaries (Section 6.6)."""

from repro.queries.analytics import (
    common_neighbors,
    degree_distribution,
    degree_vector,
    jaccard_similarity,
    top_degree_nodes,
)
from repro.queries.neighbors import SummaryNeighborIndex, neighbor_query
from repro.queries.traversal import (
    bfs_distances,
    connected_components,
    num_connected_components,
    shortest_path,
)
from repro.queries.pagerank import (
    InputGraphPageRank,
    SummaryPageRank,
    pagerank_input_graph,
    pagerank_reference,
    pagerank_summary,
)

__all__ = [
    "common_neighbors",
    "degree_distribution",
    "degree_vector",
    "jaccard_similarity",
    "top_degree_nodes",
    "bfs_distances",
    "connected_components",
    "num_connected_components",
    "shortest_path",
    "SummaryNeighborIndex",
    "neighbor_query",
    "InputGraphPageRank",
    "SummaryPageRank",
    "pagerank_input_graph",
    "pagerank_reference",
    "pagerank_summary",
]
