"""Observability for the summary-serving engine.

A serving process is only operable if it can answer "how is it
doing" without a debugger.  Every number lives in
``ServiceMetrics.registry``, a :class:`repro.obs.metrics.MetricsRegistry`,
under Prometheus-style names (``service_requests_total{op=...}``,
``service_request_seconds{op=...}``, ``service_cache_hits_total``,
...); this module only holds cached handles into it for the hot
paths.  The ``telemetry`` response (:meth:`ServiceMetrics.telemetry`)
carries the registry snapshot verbatim (read it with
:func:`repro.obs.metrics.counter_total`,
:func:`~repro.obs.metrics.series_value` and
:func:`~repro.obs.metrics.worst_p99`; render it with
:func:`repro.obs.exporters.registry_to_prometheus`), and
:class:`MetricsLogger` logs a one-line summary periodically.
"""

from __future__ import annotations

import logging
import os
import threading
import time

from repro.obs.collect import TELEMETRY_SAMPLES
from repro.obs.metrics import (
    DEFAULT_RESERVOIR,
    Counter,
    Histogram,
    MetricsRegistry,
    counter_total,
)
from repro.obs.tracer import get_instance_label

__all__ = ["ServiceMetrics", "MetricsLogger"]

logger = logging.getLogger("repro.service")


class ServiceMetrics:
    """Thread-safe counters + latency histograms for one engine/server.

    One instance is shared by the :class:`~repro.service.engine.QueryEngine`
    (cache accounting) and the server (request accounting).  All state
    lives in :attr:`registry`; the handles below are cached because
    they sit on hot paths.
    """

    def __init__(self, reservoir: int = DEFAULT_RESERVOIR):
        self._reservoir = reservoir
        self._started = time.perf_counter()
        #: Backing store for every counter/gauge/histogram; exported
        #: by the ``telemetry`` op (:meth:`telemetry`).
        self.registry = MetricsRegistry()
        #: op -> (requests counter, errors counter, latency histogram).
        self._per_op: dict[str, tuple[Counter, Counter, Histogram]] = {}
        self._cache_hits = self.registry.counter("service_cache_hits_total")
        self._cache_misses = self.registry.counter(
            "service_cache_misses_total"
        )
        self._batches = self.registry.counter("service_batches_total")
        self._batch_queries = self.registry.counter(
            "service_batch_queries_total"
        )
        self._batch_unique = self.registry.counter(
            "service_batch_unique_queries_total"
        )
        self._conns_opened = self.registry.counter(
            "service_connections_opened_total"
        )
        self._conns_closed = self.registry.counter(
            "service_connections_closed_total"
        )
        self._conns_active = self.registry.gauge(
            "service_connections_active"
        )
        self._shed = self.registry.counter("service_shed_total")
        self._breaker_opened = self.registry.counter(
            "service_breaker_open_total"
        )
        self._breaker_rejected = self.registry.counter(
            "service_breaker_rejected_total"
        )
        #: Made on the first applied batch, so a server that never
        #: ingests exports no ``repro_ingest_applied_total`` series.
        self._ingest_applied: Counter | None = None

    # -- engine-side accounting -----------------------------------------
    def cache_hit(self) -> None:
        self._cache_hits.inc()

    def cache_miss(self) -> None:
        self._cache_misses.inc()

    def ingest_applied(self, mutations: int) -> None:
        """Count the mutations of one applied ``ingest`` batch."""
        if self._ingest_applied is None:
            self._ingest_applied = self.registry.counter(
                "repro_ingest_applied_total"
            )
        self._ingest_applied.inc(mutations)

    def batch(self, size: int, unique: int) -> None:
        """Record one ``query_many`` call and its deduplication."""
        self._batches.inc()
        self._batch_queries.inc(size)
        self._batch_unique.inc(unique)

    # -- server-side accounting -----------------------------------------
    def observe(self, op: str, seconds: float, ok: bool = True) -> None:
        """Record one completed request of type ``op``."""
        handles = self._per_op.get(op)
        if handles is None:
            # Get-or-create is idempotent, so a racing first request
            # of the same op builds the same tuple.
            handles = self._per_op[op] = (
                self.registry.counter("service_requests_total", op=op),
                self.registry.counter("service_errors_total", op=op),
                self.registry.histogram(
                    "service_request_seconds",
                    reservoir=self._reservoir,
                    op=op,
                ),
            )
        requests, errors, latency = handles
        requests.inc()
        if not ok:
            errors.inc()
        latency.observe(seconds)

    def connection_opened(self) -> None:
        self._conns_opened.inc()
        self._conns_active.inc()

    def connection_closed(self) -> None:
        self._conns_closed.inc()
        self._conns_active.dec()

    # -- resilience accounting -------------------------------------------
    def shed(self) -> None:
        """One connection rejected by the bounded accept queue."""
        self._shed.inc()

    def degraded(self, op: str) -> None:
        """One request answered in degraded mode."""
        self.registry.counter("service_degraded_total", op=op).inc()

    def breaker_opened(self) -> None:
        """The circuit breaker transitioned closed -> open."""
        self._breaker_opened.inc()

    def breaker_rejected(self) -> None:
        """One request rejected while the breaker was open."""
        self._breaker_rejected.inc()

    def protocol_rejected(self, reason: str) -> None:
        """One inbound frame rejected at the protocol boundary.

        ``reason`` is ``"frame"`` (undecodable: bad JSON, oversized,
        non-object) or ``"schema"`` (decodable but invalid: unknown
        op, unknown field, wrong types, out-of-range k, bad batch).
        """
        self.registry.counter(
            "service_protocol_rejected_total", reason=reason
        ).inc()

    # -- reporting -------------------------------------------------------
    @property
    def uptime_s(self) -> float:
        return round(time.perf_counter() - self._started, 3)

    def telemetry(self, cache, instance: str = "") -> dict:
        """The ``telemetry`` response body, for engine and router
        alike: ``{"instance", "pid", "registry"}``.

        Uptime and the LRU ``cache``'s occupancy and capacity become
        gauges here, so they cost nothing per request.  ``instance``
        names the process when no instance label was set.
        """
        registry = self.registry
        registry.gauge("service_uptime_seconds").set(self.uptime_s)
        registry.gauge("service_cache_entries").set(len(cache))
        registry.gauge("service_cache_capacity").set(cache.capacity)
        return {
            "instance": get_instance_label() or instance,
            "pid": os.getpid(),
            "registry": registry.snapshot(samples=TELEMETRY_SAMPLES),
        }

    def log_line(self) -> str:
        """Compact ``key=value`` summary for the periodic log."""
        snapshot = self.registry.snapshot()
        hits = counter_total(snapshot, "service_cache_hits_total")
        lookups = hits + counter_total(snapshot, "service_cache_misses_total")
        neighbors = self._per_op.get("neighbors")
        latency = neighbors[2].snapshot() if neighbors else {}
        p50, p99 = (
            round(1000.0 * latency.get(key, 0.0), 3) for key in ("p50", "p99")
        )
        requests = counter_total(snapshot, "service_requests_total")
        errors = counter_total(snapshot, "service_errors_total")
        return (
            f"uptime={self.uptime_s:.0f}s "
            f"requests={requests:.0f} "
            f"errors={errors:.0f} "
            f"cache_hit_rate={hits / lookups if lookups else 0.0:.2f} "
            f"active_conns={int(self._conns_active.value)} "
            f"neighbors_p50={p50}ms "
            f"neighbors_p99={p99}ms"
        )


class MetricsLogger(threading.Thread):
    """Daemon thread that logs :meth:`ServiceMetrics.log_line`
    periodically until :meth:`stop` is called."""

    def __init__(self, metrics: ServiceMetrics, interval: float = 30.0):
        super().__init__(name="repro-metrics-logger", daemon=True)
        self._metrics = metrics
        self._interval = interval
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self._interval):
            logger.info("stats %s", self._metrics.log_line())

    def stop(self) -> None:
        self._stop_event.set()
