"""Cluster trace + telemetry collection.

The read-side of distributed observability.  Per-instance ``repro
serve --trace-dir`` processes each append their own spans to
``<label>.trace.jsonl`` files (see
:class:`~repro.obs.exporters.SpanSink`); every instance also answers
the ``telemetry`` wire op with a registry snapshot.  This module

* reads a whole trace directory back (live + rotated generations),
* reassembles the spans of **one** request — keyed by its trace id —
  into a single cross-process tree (:func:`assemble_trace`, rendered
  by ``repro cluster trace <id>``),
* pulls registry snapshots from every cluster instance
  (:func:`pull_cluster_telemetry`) and merges them into one
  cluster-wide :class:`~repro.obs.metrics.MetricsRegistry` with
  ``instance`` labels (:func:`merge_registry_snapshots`) — the input
  to both the merged Prometheus dump and SLO evaluation
  (:mod:`repro.obs.slo`).

No synchronisation with the writers is needed: a span's record is
flushed to disk before the request's response is sent, so any trace a
client has seen complete is fully on disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.exporters import TRACE_FILE_SUFFIX, read_trace_jsonl
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "MergedTrace",
    "trace_files",
    "read_trace_dir",
    "trace_ids",
    "assemble_trace",
    "render_merged_trace",
    "merge_registry_snapshots",
    "pull_cluster_telemetry",
    "write_cluster_telemetry",
    "load_cluster_telemetry",
    "registry_snapshots",
]

#: Samples per histogram carried in a telemetry snapshot — enough for
#: meaningful merged percentiles, small enough that a full registry
#: stays well under the wire protocol's 1 MiB line cap.
TELEMETRY_SAMPLES = 1024

#: ``kind`` marker of the JSON file written by
#: :func:`write_cluster_telemetry` (how ``repro slo`` recognises one).
TELEMETRY_KIND = "cluster_telemetry"


# ---------------------------------------------------------------------------
# Span-file reading
# ---------------------------------------------------------------------------
def trace_files(trace_dir: str | Path) -> list[Path]:
    """Every span file under ``trace_dir``: live ``*.trace.jsonl``
    plus rotated ``*.trace.jsonl.N`` generations, sorted by name."""
    trace_dir = Path(trace_dir)
    if not trace_dir.is_dir():
        return []
    paths = [
        path
        for path in trace_dir.iterdir()
        if path.is_file()
        and (
            path.name.endswith(TRACE_FILE_SUFFIX)
            or (
                TRACE_FILE_SUFFIX + "." in path.name
                and path.suffix[1:].isdigit()
            )
        )
    ]
    return sorted(paths)


def read_trace_dir(trace_dir: str | Path) -> list[dict[str, Any]]:
    """All span records from every instance's files (all trace ids
    interleaved; filter with :func:`assemble_trace`)."""
    records: list[dict[str, Any]] = []
    for path in trace_files(trace_dir):
        records.extend(read_trace_jsonl(path))
    return records


def trace_ids(records: list[dict[str, Any]]) -> list[str]:
    """Distinct trace ids present, most recent first."""
    first_seen: dict[str, float] = {}
    for record in records:
        trace = record.get("trace")
        if isinstance(trace, str):
            start = record.get("start_unix", 0.0)
            if trace not in first_seen or start < first_seen[trace]:
                first_seen[trace] = start
    return sorted(first_seen, key=lambda t: -first_seen[t])


# ---------------------------------------------------------------------------
# Cross-process trace reassembly
# ---------------------------------------------------------------------------
def _record_instance(record: dict[str, Any]) -> str:
    """Process identity of a span record: its ``instance`` label,
    else ``pid:<pid>``, else ``"?"`` for malformed input that carries
    neither."""
    instance = record.get("instance")
    if isinstance(instance, str) and instance:
        return instance
    pid = record.get("pid")
    return f"pid:{pid}" if pid is not None else "?"


@dataclass
class MergedTrace:
    """One request's spans, merged across every process that served it."""

    trace_id: str
    records: list[dict[str, Any]] = field(default_factory=list)
    roots: list[dict[str, Any]] = field(default_factory=list)
    instances: list[str] = field(default_factory=list)
    fanout_width: int = 0
    #: instance label -> {"spans", "wall_s", "cpu_s"}; wall/CPU sum
    #: only instance-local roots so nesting is not double-counted.
    instance_totals: dict[str, dict[str, float]] = field(default_factory=dict)


def assemble_trace(
    records: list[dict[str, Any]], trace_id: str
) -> MergedTrace:
    """Filter ``records`` down to one trace id and compute its merged
    shape: roots, participating instances, fan-out width and
    per-instance wall/CPU totals."""
    by_span: dict[str, dict[str, Any]] = {}
    for record in records:
        if record.get("trace") == trace_id and isinstance(
            record.get("span"), str
        ):
            by_span.setdefault(record["span"], record)
    merged = sorted(
        by_span.values(), key=lambda r: r.get("start_unix", 0.0)
    )
    out = MergedTrace(trace_id=trace_id, records=merged)
    if not merged:
        return out
    children: dict[str, list[dict[str, Any]]] = {}
    for record in merged:
        parent = record.get("parent")
        if parent in by_span:
            children.setdefault(parent, []).append(record)
        else:
            out.roots.append(record)
    out.fanout_width = max(
        (
            sum(1 for c in kids if c.get("name") == "router:fanout")
            for kids in children.values()
        ),
        default=0,
    )
    for record in merged:
        instance = _record_instance(record)
        totals = out.instance_totals.setdefault(
            instance, {"spans": 0, "wall_s": 0.0, "cpu_s": 0.0}
        )
        totals["spans"] += 1
        parent = by_span.get(record.get("parent"))
        if parent is None or _record_instance(parent) != instance:
            # An instance-local root: its wall/CPU covers every
            # nested same-instance span below it.
            totals["wall_s"] += record.get("wall_s", 0.0)
            totals["cpu_s"] += record.get("cpu_s", 0.0)
    out.instances = sorted(out.instance_totals)
    return out


def render_merged_trace(merged: MergedTrace) -> str:
    """Human view of a merged trace: the span tree (each line tagged
    with its emitting instance/pid) plus per-instance totals."""
    by_span = {r["span"]: r for r in merged.records}
    children: dict[str | None, list[dict[str, Any]]] = {}
    for record in merged.records:
        parent = record.get("parent")
        if parent not in by_span:
            parent = None
        children.setdefault(parent, []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: r.get("start_unix", 0.0))

    lines = [
        f"trace {merged.trace_id}: {len(merged.records)} span(s) "
        f"across {len(merged.instances)} instance(s), "
        f"fan-out width {merged.fanout_width}"
    ]

    def walk(record: dict[str, Any], depth: int) -> None:
        where = _record_instance(record)
        pid = record.get("pid")
        tag = f"[{where} pid={pid}]" if pid is not None else f"[{where}]"
        parts = [
            record.get("name", "?"),
            tag,
            f"wall={record.get('wall_s', 0.0):.6f}s",
            f"cpu={record.get('cpu_s', 0.0):.6f}s",
        ]
        attrs = record.get("attrs") or {}
        parts.extend(f"{k}={v}" for k, v in sorted(attrs.items()))
        lines.append("  " * depth + "- " + "  ".join(parts))
        for child in children.get(record.get("span"), []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    if merged.instance_totals:
        lines.append("per-instance totals:")
        for instance in merged.instances:
            totals = merged.instance_totals[instance]
            lines.append(
                f"  {instance}: spans={totals['spans']:.0f} "
                f"wall={totals['wall_s']:.6f}s cpu={totals['cpu_s']:.6f}s"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Telemetry aggregation
# ---------------------------------------------------------------------------
def merge_registry_snapshots(
    snapshots: dict[str, dict[str, Any]]
) -> MetricsRegistry:
    """Merge per-instance registry snapshots (label -> snapshot as
    produced by :meth:`MetricsRegistry.snapshot`) into one registry
    whose every metric carries an extra ``instance`` label.

    Counters/gauges copy their values; histograms fold through
    :meth:`~repro.obs.metrics.Histogram.merge`, so the merged registry
    renders straight to a cluster-wide Prometheus dump and answers
    the percentile queries SLO evaluation needs.
    """
    registry = MetricsRegistry()
    for instance, snapshot in sorted(snapshots.items()):
        if not isinstance(snapshot, dict):
            continue
        for name, entries in snapshot.items():
            if not isinstance(entries, list):
                continue
            for entry in entries:
                if not isinstance(entry, dict):
                    continue
                labels = dict(entry.get("labels") or {})
                labels["instance"] = instance
                kind = entry.get("kind")
                if kind == "counter":
                    value = entry.get("value", 0)
                    if isinstance(value, (int, float)) and value > 0:
                        registry.counter(name, **labels).inc(value)
                    else:
                        registry.counter(name, **labels)
                elif kind == "gauge":
                    value = entry.get("value", 0)
                    registry.gauge(name, **labels).set(
                        value if isinstance(value, (int, float)) else 0.0
                    )
                elif kind == "histogram":
                    registry.histogram(name, **labels).merge(entry)
    return registry


def pull_cluster_telemetry(
    spec, timeout: float = 5.0
) -> dict[str, dict[str, Any]]:
    """Issue the ``telemetry`` op to the router and every instance of
    a :class:`~repro.cluster.topology.ClusterSpec`.

    Returns ``label -> {"pid", "instance", "registry"}``; unreachable
    targets get ``{"error": ...}`` instead (never raises for a down
    process).  ``repro cluster status``, ``repro cluster telemetry``
    and ``repro slo`` all read this one pull.
    """
    from repro.service.client import ServiceError, SummaryServiceClient

    targets = [("router", spec.router_host, spec.router_port)]
    targets += [(i.label, i.host, i.port) for i in spec.instances]
    out: dict[str, dict[str, Any]] = {}
    for label, host, port in targets:
        try:
            with SummaryServiceClient(host, port, timeout=timeout) as client:
                out[label] = client.telemetry()
        except (OSError, ServiceError, ValueError) as exc:
            out[label] = {"error": f"{type(exc).__name__}: {exc}"}
    return out


def registry_snapshots(
    telemetry: dict[str, dict[str, Any]]
) -> dict[str, dict[str, Any]]:
    """The reachable instances' registry snapshots, keyed by label
    (drops ``{"error": ...}`` rows)."""
    return {
        label: entry["registry"]
        for label, entry in telemetry.items()
        if isinstance(entry, dict) and isinstance(entry.get("registry"), dict)
    }


def write_cluster_telemetry(
    telemetry: dict[str, dict[str, Any]], path: str | Path
) -> Path:
    """Persist a :func:`pull_cluster_telemetry` result (the file
    ``repro slo`` evaluates offline)."""
    path = Path(path)
    payload = {
        "kind": TELEMETRY_KIND,
        "version": 1,
        "instances": telemetry,
    }
    path.write_text(
        json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_cluster_telemetry(path: str | Path) -> dict[str, dict[str, Any]]:
    """Read back a :func:`write_cluster_telemetry` file; raises
    ``ValueError`` on anything that is not one."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable telemetry file {path}: {exc}") from exc
    if (
        not isinstance(payload, dict)
        or payload.get("kind") != TELEMETRY_KIND
        or not isinstance(payload.get("instances"), dict)
    ):
        raise ValueError(
            f"{path} is not a {TELEMETRY_KIND!r} file (write one with "
            "'repro cluster telemetry --json-out')"
        )
    return payload["instances"]
