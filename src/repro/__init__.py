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

from repro.algorithms import (
    GreedySummarizer,
    LDMESummarizer,
    MagsDMSummarizer,
    MagsSummarizer,
    RandomizedSummarizer,
    SluggerSummarizer,
    SummaryResult,
    Summarizer,
    SWeGSummarizer,
)
from repro.core import (
    LossyResult,
    Representation,
    SuperNodePartition,
    encode,
    load_representation,
    make_lossy,
    save_representation,
    verify_lossless,
)
from repro.dynamic import DynamicGraphSummary
from repro.graph import Graph, generators, load_dataset, load_graph

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
