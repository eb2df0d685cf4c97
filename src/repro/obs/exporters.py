"""Trace and metrics exporters: JSONL, text tree, Prometheus text.

Three consumers, three formats:

* **JSONL** — one span record per line (the schema of
  :mod:`repro.obs.schema`); machine-diffable, what
  ``python -m repro profile --trace-out`` writes and
  ``python -m repro trace`` (``--diff`` too) reads back;
* **text tree** — the human view of one trace, spans indented under
  their parents with wall/CPU time and counters;
* **Prometheus text format** — a ``/metrics``-style dump of a
  :class:`~repro.obs.metrics.MetricsRegistry` (histograms rendered as
  summaries with quantiles), which ``repro cluster telemetry`` prints
  for the registries the ``telemetry`` op ships.
"""

from __future__ import annotations

import gzip
import json
import re
import threading
from pathlib import Path
from typing import Any, Iterable

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SpanSink",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "render_trace_tree",
    "phase_totals",
    "diff_phase_totals",
    "registry_to_prometheus",
]


def _open(path: str | Path, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def write_trace_jsonl(
    records: Iterable[dict[str, Any]], path: str | Path
) -> Path:
    """Write span records as JSONL (gzipped when the path ends in
    ``.gz``); returns the path written."""
    path = Path(path)
    with _open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def read_trace_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Read span records back from a JSONL trace file."""
    records = []
    with _open(path, "r") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# ---------------------------------------------------------------------------
# Streaming per-span export (what `repro serve --trace-dir` writes)
# ---------------------------------------------------------------------------
#: Suffix of the live per-instance span file; rotated generations are
#: ``<name>.trace.jsonl.1`` .. ``.<keep>``.
TRACE_FILE_SUFFIX = ".trace.jsonl"

_UNSAFE_FILENAME_RE = re.compile(r"[^0-9A-Za-z_.\-]")


def instance_filename(instance: str) -> str:
    """The span-file name for an instance label (``shard0/r1`` ->
    ``shard0-r1.trace.jsonl``)."""
    safe = _UNSAFE_FILENAME_RE.sub("-", instance) or "trace"
    return safe + TRACE_FILE_SUFFIX


class SpanSink:
    """Append finished span records to a size-capped JSONL file.

    The per-process export half of cluster tracing: hand
    ``sink.write`` to :class:`~repro.obs.tracer.Tracer` as its
    ``sink`` and every finished span lands on disk (flushed per
    write) *before* the request's response is sent, so a collector
    reading after a response never races the writer.

    Rotation: when the live file would exceed ``max_bytes`` it is
    shifted to ``.1`` (existing generations shift up, the oldest
    beyond ``keep`` is deleted) and a fresh file is started.  Records
    failing schema validation are dropped and counted in
    :attr:`rejected` rather than poisoning the file.
    """

    def __init__(
        self,
        directory: str | Path,
        instance: str = "",
        *,
        max_bytes: int = 8 * 1024 * 1024,
        keep: int = 3,
    ):
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / instance_filename(instance)
        self.max_bytes = max_bytes
        self.keep = keep
        self.rejected = 0
        self.rotations = 0
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")
        self._size = self.path.stat().st_size

    def write(self, record: dict[str, Any]) -> None:
        """Validate, serialise and append one span record."""
        from repro.obs.schema import validate_record

        if validate_record(record):
            self.rejected += 1
            return
        line = json.dumps(record, sort_keys=True) + "\n"
        encoded = line.encode("utf-8")
        with self._lock:
            if self._fh is None:
                raise ValueError("sink is closed")
            if self._size and self._size + len(encoded) > self.max_bytes:
                self._rotate_locked()
            self._fh.write(line)
            self._fh.flush()
            self._size += len(encoded)

    def _rotate_locked(self) -> None:
        self._fh.close()
        oldest = self.path.with_name(self.path.name + f".{self.keep}")
        oldest.unlink(missing_ok=True)
        for generation in range(self.keep - 1, 0, -1):
            source = self.path.with_name(self.path.name + f".{generation}")
            if source.exists():
                source.rename(
                    self.path.with_name(self.path.name + f".{generation + 1}")
                )
        self.path.rename(self.path.with_name(self.path.name + ".1"))
        self._fh = open(self.path, "a", encoding="utf-8")
        self._size = 0
        self.rotations += 1

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "SpanSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Text tree
# ---------------------------------------------------------------------------
def render_trace_tree(records: list[dict[str, Any]]) -> str:
    """Render one trace as an indented tree, roots in start order.

    Each line shows the span name, wall and CPU seconds, and any
    counters; events are summarised as a count.
    """
    children: dict[str | None, list[dict[str, Any]]] = {}
    ids = {r.get("span") for r in records}
    for record in records:
        parent = record.get("parent")
        if parent not in ids:
            parent = None  # orphan (e.g. truncated trace): treat as root
        children.setdefault(parent, []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: r.get("start_unix", 0.0))

    lines: list[str] = []

    def walk(record: dict[str, Any], depth: int) -> None:
        parts = [
            f"{record.get('name', '?')}",
            f"wall={record.get('wall_s', 0.0):.6f}s",
            f"cpu={record.get('cpu_s', 0.0):.6f}s",
        ]
        counters = record.get("counters") or {}
        parts.extend(f"{k}={v:g}" for k, v in sorted(counters.items()))
        events = record.get("events") or []
        if events:
            parts.append(f"events={len(events)}")
        lines.append("  " * depth + "- " + "  ".join(parts))
        for child in children.get(record.get("span"), []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Phase aggregation (the Figs. 8-10 view)
# ---------------------------------------------------------------------------
def phase_totals(records: list[dict[str, Any]]) -> dict[str, float]:
    """Total wall seconds per phase, summed over every ``phase:*`` span.

    Algorithms emit one phase span per (phase, iteration); summing
    collapses the trace to the per-phase decomposition the paper's
    ablation figures plot.
    """
    totals: dict[str, float] = {}
    for record in records:
        name = record.get("name", "")
        if name.startswith("phase:"):
            phase = record.get("attrs", {}).get("phase", name[6:])
            totals[phase] = totals.get(phase, 0.0) + record.get("wall_s", 0.0)
    return totals


def diff_phase_totals(
    a_records: list[dict[str, Any]], b_records: list[dict[str, Any]]
) -> list[dict[str, Any]]:
    """Phase-by-phase wall-time comparison of two traces.

    Returns one row per phase (union of both traces, first-trace order
    first) with ``a_s``, ``b_s``, ``delta_s`` and ``ratio`` — the diff
    ``python -m repro trace A --diff B`` prints.
    """
    a_totals = phase_totals(a_records)
    b_totals = phase_totals(b_records)
    phases = list(a_totals) + [p for p in b_totals if p not in a_totals]
    rows = []
    for phase in phases:
        a_s = a_totals.get(phase)
        b_s = b_totals.get(phase)
        rows.append(
            {
                "phase": phase,
                "a_s": a_s,
                "b_s": b_s,
                "delta_s": (b_s - a_s) if a_s is not None and b_s is not None
                else None,
                "ratio": (b_s / a_s) if a_s and b_s is not None else None,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Prometheus text format
# ---------------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels_text(labels: dict[str, str], extra: dict[str, str] | None = None)\
        -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def registry_to_prometheus(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus exposition text format.

    Counters and gauges map directly; histograms are rendered as
    summaries — ``{quantile="0.5|0.95|0.99"}`` sample lines plus
    ``_sum`` and ``_count``.
    """
    lines: list[str] = []
    seen_types: set[str] = set()
    for name, labels, metric in registry.collect():
        if metric.kind == "histogram":
            if name not in seen_types:
                lines.append(f"# TYPE {name} summary")
                seen_types.add(name)
            snap = metric.snapshot()
            for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                lines.append(
                    f"{name}{_labels_text(labels, {'quantile': str(q)})} "
                    f"{snap.get(key, 0.0):g}"
                )
            lines.append(
                f"{name}_sum{_labels_text(labels)} {snap.get('sum', 0.0):g}"
            )
            lines.append(
                f"{name}_count{_labels_text(labels)} {snap.get('count', 0):g}"
            )
        else:
            if name not in seen_types:
                lines.append(f"# TYPE {name} {metric.kind}")
                seen_types.add(name)
            lines.append(f"{name}{_labels_text(labels)} {metric.value:g}")
    return "\n".join(lines) + ("\n" if lines else "")
