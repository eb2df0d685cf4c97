"""Graph substrate: data structure, I/O, generators, dataset registry."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.graph.graph": ["Graph", "GraphError"],
    "repro.graph.io": ["clean_edges", "load_graph", "save_graph"],
    "repro.graph.stats": ["GraphStats", "graph_stats"],
    "repro.graph.datasets": [
        "DATASETS",
        "LARGE_DATASETS",
        "MEDIUM_DATASETS",
        "SMALL_DATASETS",
        "DatasetSpec",
        "dataset_codes",
        "load_dataset",
    ],
})

__all__ = [
    "Graph",
    "GraphError",
    "clean_edges",
    "load_graph",
    "save_graph",
    "GraphStats",
    "graph_stats",
    "DATASETS",
    "SMALL_DATASETS",
    "LARGE_DATASETS",
    "MEDIUM_DATASETS",
    "DatasetSpec",
    "dataset_codes",
    "load_dataset",
]
