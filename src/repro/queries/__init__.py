"""Query processing on summaries (Section 6.6)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.queries.analytics": [
        "common_neighbors",
        "degree_distribution",
        "degree_vector",
        "jaccard_similarity",
        "top_degree_nodes",
    ],
    "repro.queries.neighbors": ["SummaryNeighborIndex", "neighbor_query"],
    "repro.queries.traversal": [
        "bfs_distances",
        "connected_components",
        "num_connected_components",
        "shortest_path",
    ],
    "repro.queries.pagerank": [
        "InputGraphPageRank",
        "SummaryPageRank",
        "pagerank_input_graph",
        "pagerank_reference",
        "pagerank_summary",
    ],
})

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
