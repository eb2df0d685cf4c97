"""Serve a summary and query it over the wire.

The whole point of a lossless summary (Section 6.6 of the paper) is
that the compact representation can *replace* the graph at query
time.  This walkthrough takes that literally: summarize a graph, save
the summary, start the TCP query service on it, and answer adjacency
and PageRank queries from a client — verifying every answer against
the original graph.

Run:  python examples/serve_summary.py
"""

import tempfile
import threading
from pathlib import Path

from repro import MagsDMSummarizer, generators, save_representation
from repro.obs.metrics import counter_total, worst_p99
from repro.service import QueryEngine, SummaryQueryServer, SummaryServiceClient


def main() -> None:
    # 1. Summarize: a 400-node community graph compresses well.
    graph = generators.planted_partition(400, 20, p_in=0.6, p_out=0.01, seed=7)
    result = MagsDMSummarizer(iterations=20, seed=0).summarize(graph)
    rep = result.representation
    print(f"input graph:   {graph}")
    print(f"summary:       {rep}")

    with tempfile.TemporaryDirectory() as tmp:
        # 2. Ship the summary, as a deployment would.
        summary_path = Path(tmp) / "summary.txt.gz"
        save_representation(summary_path, rep)
        print(f"summary saved: {summary_path.stat().st_size} bytes gzipped")

        # 3. Serve it.  The engine loads the file, pre-builds the
        # super-edge/correction indexes, and caches hot neighborhoods.
        engine = QueryEngine.from_file(summary_path, cache_size=512)
        server = SummaryQueryServer(engine, workers=4).start()
        host, port = server.address
        print(f"serving on {host}:{port}")

        # serve_forever blocks, so a real deployment runs it in the
        # foreground (python -m repro serve); here it gets a thread.
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"install_signal_handlers": False},
        )
        thread.start()

        # 4. Query — answers come from (S, C), never the input graph.
        adjacency = graph.adjacency()
        with SummaryServiceClient(host, port) as client:
            for node in (0, 7, 399):
                served = set(client.neighbors(node))
                assert served == adjacency[node], f"mismatch at {node}"
                print(
                    f"neighbors({node}): {client.degree(node)} nodes "
                    "(matches the original graph)"
                )

            two_hop = client.khop(0, 2)
            print(f"khop(0, 2): {len(two_hop)} nodes within 2 hops")

            score = client.pagerank_score(0)
            print(f"pagerank(0) on the summary: {score:.4f}")

            # Batched queries deduplicate shared expansions server-side.
            batch = client.batch(
                [{"id": i, "op": "degree", "node": i % 50} for i in range(200)]
            )
            assert all(item["ok"] for item in batch)
            print(f"batch of {len(batch)} degree queries answered")

            # Every number is in the metrics registry snapshot.
            registry = client.telemetry()["registry"]
            hits = counter_total(registry, "service_cache_hits_total")
            lookups = hits + counter_total(
                registry, "service_cache_misses_total"
            )
            print(
                f"stats: "
                f"{counter_total(registry, 'service_requests_total'):.0f} "
                f"requests, cache hit rate {hits / lookups:.0%}, "
                f"worst p99 {1000.0 * worst_p99(registry):.3f}ms"
            )

            # 5. Graceful stop, exactly what SIGINT does in the CLI.
            client.shutdown_server()
        thread.join(timeout=10)
        assert not thread.is_alive()
        print("server shut down cleanly")


if __name__ == "__main__":
    main()
