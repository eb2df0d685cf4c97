"""repro: a reproduction of "Graph Summarization: Compactness Meets
Efficiency" (SIGMOD 2024).

The package implements lossless graph summarization (Definition 1 of
the paper) end to end: the paper's two algorithms — **Mags** and
**Mags-DM** — alongside every baseline they are evaluated against
(Greedy, Randomized, SWeG, LDME, Slugger), summary-side query
processing (neighbor queries and PageRank), synthetic workload
generators, and a benchmark harness reproducing every table and
figure of the paper's evaluation.

Quickstart::

    from repro import MagsSummarizer, generators

    graph = generators.planted_partition(500, 25, 0.6, 0.01, seed=7)
    result = MagsSummarizer(iterations=30).summarize(graph)
    print(result.relative_size)           # compactness, lower = better
    rep = result.representation
    assert rep.reconstruct_edges() == graph.edge_set()   # lossless
"""

from repro._lazy import lazy_exports

# Re-exports resolve on first access (PEP 562), so importing any
# ``repro.*`` module -- a server, say -- does not load the summarizers
# and NumPy behind them.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.algorithms.base": ["SummaryResult", "Summarizer"],
    "repro.algorithms.greedy": ["GreedySummarizer"],
    "repro.algorithms.ldme": ["LDMESummarizer"],
    "repro.algorithms.mags": ["MagsSummarizer"],
    "repro.algorithms.mags_dm": ["MagsDMSummarizer"],
    "repro.algorithms.randomized": ["RandomizedSummarizer"],
    "repro.algorithms.slugger": ["SluggerSummarizer"],
    "repro.algorithms.sweg": ["SWeGSummarizer"],
    "repro.core.encoding": ["Representation", "encode"],
    "repro.core.lossy": ["LossyResult", "make_lossy"],
    "repro.core.serialization": [
        "load_representation", "save_representation",
    ],
    "repro.core.supernodes": ["SuperNodePartition"],
    "repro.core.verify": ["verify_lossless"],
    "repro.dynamic.summary": ["DynamicGraphSummary"],
    "repro.graph": ["generators"],
    "repro.graph.datasets": ["load_dataset"],
    "repro.graph.graph": ["Graph"],
    "repro.graph.io": ["load_graph"],
})

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "generators",
    "load_dataset",
    "load_graph",
    "Representation",
    "SuperNodePartition",
    "encode",
    "verify_lossless",
    "LossyResult",
    "make_lossy",
    "load_representation",
    "save_representation",
    "DynamicGraphSummary",
    "GreedySummarizer",
    "LDMESummarizer",
    "MagsDMSummarizer",
    "MagsSummarizer",
    "RandomizedSummarizer",
    "SluggerSummarizer",
    "SWeGSummarizer",
    "SummaryResult",
    "Summarizer",
    "__version__",
]
