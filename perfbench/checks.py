"""Correctness checks.  Each raises :class:`CheckFailed` on a mismatch;
the benchmark turns any failure into ``"correct": false`` and a non-zero
exit."""

from __future__ import annotations

import numpy as np

from repro.service.protocol import ProtocolError, decode_line, validate_response

#: Largest accepted |Alg. 7 - Eq. 8| per node.  Both sum the same
#: contributions in different orders, so they agree to rounding.
PAGERANK_ATOL = 1e-9


class CheckFailed(AssertionError):
    """A benchmark output did not match its ground truth."""


def check_lossless(name: str, representation, edge_set: set) -> None:
    """A summary must reconstruct the input edge set exactly."""
    rebuilt = representation.reconstruct_edges()
    if rebuilt != edge_set:
        raise CheckFailed(
            f"{name}: reconstruction differs from the input "
            f"({len(rebuilt - edge_set)} extra, {len(edge_set - rebuilt)} "
            f"missing edges)"
        )


def check_pagerank(summary_ranks: np.ndarray, graph_ranks: np.ndarray) -> None:
    """Alg. 7 on the summary must match Eq. 8 on the input graph."""
    error = float(np.max(np.abs(summary_ranks - graph_ranks), initial=0.0))
    if summary_ranks.shape != graph_ranks.shape or error > PAGERANK_ATOL:
        raise CheckFailed(f"pagerank: max |summary - graph| = {error:.3g}")


def check_neighbor_lines(nodes, lines, truth: list[list[int]]) -> None:
    """Served ``neighbors`` response lines must be well-formed, ok and
    equal the true sorted adjacency of each node."""
    for node, line in zip(nodes, lines, strict=True):
        try:
            response = validate_response(decode_line(line))
        except ProtocolError as exc:
            raise CheckFailed(f"neighbors({node}): malformed response: {exc}")
        if not response.get("ok"):
            raise CheckFailed(f"neighbors({node}): {response.get('error')}")
        if response.get("degraded"):
            raise CheckFailed(f"neighbors({node}): answer marked degraded")
        if response["result"] != truth[node]:
            raise CheckFailed(
                f"neighbors({node}): served {len(response['result'])} "
                f"neighbors, expected {len(truth[node])}"
            )
