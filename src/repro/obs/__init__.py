"""repro.obs — unified tracing, metrics and phase profiling.

The observability layer the rest of the package reports into:

* :mod:`repro.obs.tracer` — nested spans with wall/CPU time, counters
  and events; a no-op :data:`NULL_TRACER` keeps the disabled cost to
  one attribute check;
* :mod:`repro.obs.metrics` — the process-global
  :class:`MetricsRegistry` of counters, gauges and p50/p95/p99
  histograms (the serving metrics live in one) and the snapshot
  readers :func:`counter_total` / :func:`series_value` /
  :func:`worst_p99`;
* :mod:`repro.obs.exporters` — JSONL traces, rendered text trees and
  Prometheus text dumps;
* :mod:`repro.obs.schema` — the documented span-record schema and its
  validator (CI checks emitted traces against it);
* :mod:`repro.obs.context` — the trace context that rides on wire
  requests so spans parent correctly across processes;
* :mod:`repro.obs.collect` — the cluster collector: merges
  per-instance span files into one request tree and per-instance
  registry snapshots into one labelled registry;
* :mod:`repro.obs.slo` — declarative availability/latency objectives
  with error-budget burn, evaluated against merged telemetry.

Everything is stdlib-only.  Importing this package does **not** turn
tracing on — install a tracer with :func:`start_tracing` /
:func:`use_tracer` — and the instrumentation in
:mod:`repro.algorithms.base` activates itself through ``sys.modules``,
so processes that never import ``repro.obs`` run the pre-observability
code paths untouched (the overhead guard test pins this).
"""

from repro.obs.collect import (
    MergedTrace,
    assemble_trace,
    merge_registry_snapshots,
    pull_cluster_telemetry,
    read_trace_dir,
    render_merged_trace,
)
from repro.obs.context import TraceContext, new_trace_id, validate_trace_field
from repro.obs.exporters import (
    SpanSink,
    diff_phase_totals,
    phase_totals,
    read_trace_jsonl,
    registry_to_prometheus,
    render_trace_tree,
    write_trace_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    counter_total,
    get_registry,
    series_value,
    worst_p99,
)
from repro.obs.schema import (
    SCHEMA_VERSION,
    validate_record,
    validate_trace,
    validate_trace_file,
)
from repro.obs.slo import (
    DEFAULT_SLOS,
    SLO,
    SLOResult,
    evaluate_slos,
    format_slo_report,
    load_slo_config,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_instance_label,
    get_tracer,
    set_instance_label,
    set_tracer,
    start_tracing,
    stop_tracing,
    use_tracer,
)

__all__ = [
    # tracer
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "start_tracing",
    "stop_tracing",
    "get_instance_label",
    "set_instance_label",
    # context
    "TraceContext",
    "new_trace_id",
    "validate_trace_field",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "counter_total",
    "series_value",
    "worst_p99",
    # exporters
    "SpanSink",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "render_trace_tree",
    "phase_totals",
    "diff_phase_totals",
    "registry_to_prometheus",
    # schema
    "SCHEMA_VERSION",
    "validate_record",
    "validate_trace",
    "validate_trace_file",
    # collector
    "MergedTrace",
    "assemble_trace",
    "read_trace_dir",
    "render_merged_trace",
    "merge_registry_snapshots",
    "pull_cluster_telemetry",
    # SLOs
    "SLO",
    "SLOResult",
    "DEFAULT_SLOS",
    "evaluate_slos",
    "load_slo_config",
    "format_slo_report",
]
