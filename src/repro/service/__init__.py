"""Summary-serving query engine (the serving layer).

The paper's claim that ``R = (S, C)`` can *replace* the graph for
queries (Section 6.6) becomes an operational one here: load a summary
once, build its indexes, and serve neighbor / degree / k-hop /
PageRank queries to concurrent clients over a line-delimited JSON TCP
protocol — with an LRU cache, batch deduplication, metrics, deadlines
and graceful shutdown.  See ``docs/serving.md`` for the protocol and
``python -m repro serve`` for the CLI entry point.
"""

from repro.service.client import ServiceError, SummaryServiceClient
from repro.service.engine import (
    OPS,
    QueryEngine,
    QueryError,
    QueryTimeout,
)
from repro.service.ingest import MutableQueryEngine
from repro.service.metrics import MetricsLogger, ServiceMetrics
from repro.service.server import SummaryQueryServer

__all__ = [
    "OPS",
    "MutableQueryEngine",
    "QueryEngine",
    "QueryError",
    "QueryTimeout",
    "MetricsLogger",
    "ServiceMetrics",
    "SummaryQueryServer",
    "SummaryServiceClient",
    "ServiceError",
]
