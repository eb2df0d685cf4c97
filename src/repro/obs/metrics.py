"""Process-wide metrics: counters, gauges and reservoir histograms.

The :class:`MetricsRegistry` is the single source of truth for
operational numbers — the serving stack's request/error/cache counters
(:mod:`repro.service.metrics` holds cached handles into one of these)
and the summarizers' run/merge totals all land here, keyed by metric
name plus a small label set, Prometheus-style.  :func:`counter_total`,
:func:`series_value` and :func:`worst_p99` read a
:meth:`MetricsRegistry.snapshot` — local or shipped over the wire by
the ``telemetry`` op.

Histograms keep a bounded reservoir (most recent ``reservoir``
samples in a deque) so memory stays constant regardless of uptime;
percentiles use the **nearest-rank** rule over the retained window,
which is exact for the window.  This is the one implementation of
percentiles in the codebase — the previous copy in
``repro.service.metrics`` was deleted in favour of it.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter_total",
    "get_registry",
    "series_value",
    "worst_p99",
]

#: Default histogram reservoir size (samples retained).
DEFAULT_RESERVOIR = 8192

#: Percentiles reported by :meth:`Histogram.snapshot`.
PERCENTILES = (50.0, 95.0, 99.0)

_NUMBER_T = (int, float)


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


class Counter:
    """Monotonically increasing counter."""

    kind = "counter"
    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (e.g. active connections)."""

    kind = "gauge"
    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, n: float = 1) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1) -> None:
        self.inc(-n)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Bounded-reservoir histogram with exact window percentiles.

    Tracks lifetime ``count`` / ``sum`` / ``min`` / ``max`` and keeps
    the most recent ``reservoir`` observations for percentile queries.
    """

    kind = "histogram"
    __slots__ = ("_lock", "_samples", "_count", "_sum", "_min", "_max")

    def __init__(self, reservoir: int = DEFAULT_RESERVOIR):
        if reservoir < 1:
            raise ValueError("reservoir must be >= 1")
        self._lock = threading.Lock()
        self._samples: deque[float] = deque(maxlen=reservoir)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        with self._lock:
            self._samples.append(value)
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def samples(self) -> deque:
        """The live reservoir (read-only use)."""
        return self._samples

    def percentile(self, percentile: float) -> float:
        """Nearest-rank percentile over the retained window (0 when
        empty)."""
        with self._lock:
            window = sorted(self._samples)
        if not window:
            return 0.0
        return nearest_rank(window, percentile)

    def snapshot(self, samples: int = 0) -> dict[str, Any]:
        """Lifetime stats plus window percentiles, in observed units.

        ``samples > 0`` additionally includes (up to) that many of the
        most recent reservoir samples under ``"samples"`` — what makes
        a snapshot *mergeable* with bounded wire size: the cluster
        telemetry op ships capped samples so the collector's merged
        histogram can still answer percentile queries.
        """
        with self._lock:
            window = sorted(self._samples)
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
            recent = (
                list(self._samples)[-samples:] if samples > 0 else None
            )
        if not count:
            return {"count": 0}
        snap: dict[str, Any] = {
            "count": count,
            "sum": total,
            "mean": total / count,
            "min": lo,
            "max": hi,
        }
        for percentile in PERCENTILES:
            snap[f"p{percentile:g}"] = nearest_rank(window, percentile)
        if recent is not None:
            snap["samples"] = recent
        return snap

    def merge(self, snapshot: dict[str, Any]) -> "Histogram":
        """Fold another histogram's :meth:`snapshot` into this one.

        Lifetime ``count``/``sum``/``min``/``max`` merge exactly; the
        reservoir extends with the snapshot's carried ``"samples"``
        (if any), so merged percentiles are computed over the union of
        the retained windows.  Returns self for chaining.
        """
        count = snapshot.get("count", 0)
        if not isinstance(count, _NUMBER_T) or count <= 0:
            return self
        total = snapshot.get("sum", 0.0)
        lo, hi = snapshot.get("min"), snapshot.get("max")
        carried = snapshot.get("samples") or ()
        with self._lock:
            self._count += int(count)
            if isinstance(total, _NUMBER_T):
                self._sum += float(total)
            if isinstance(lo, _NUMBER_T) and lo < self._min:
                self._min = float(lo)
            if isinstance(hi, _NUMBER_T) and hi > self._max:
                self._max = float(hi)
            for value in carried:
                if isinstance(value, _NUMBER_T):
                    self._samples.append(float(value))
        return self


_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create registry of labelled metrics.

    ``registry.counter("requests_total", op="neighbors")`` returns the
    same :class:`Counter` object on every call with the same name and
    labels, so call sites can either cache the handle (hot paths) or
    re-look it up (cold paths) — both hit the same number.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, _LabelKey], Any] = {}

    # -- get-or-create ----------------------------------------------------
    def _get(self, cls, name: str, labels: dict[str, Any], **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = cls(**kwargs)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, *, reservoir: int = DEFAULT_RESERVOIR, **labels: Any
    ) -> Histogram:
        return self._get(Histogram, name, labels, reservoir=reservoir)

    def remove(self, name: str, **labels: Any) -> None:
        """Drop one series (a gauge whose value stopped being defined
        must vanish from the snapshot, not linger at its last value)."""
        with self._lock:
            self._metrics.pop((name, _label_key(labels)), None)

    # -- enumeration ------------------------------------------------------
    def family(self, name: str) -> list[tuple[dict[str, str], Any]]:
        """Every (labels, metric) registered under ``name``."""
        with self._lock:
            return [
                (dict(key[1]), metric)
                for key, metric in self._metrics.items()
                if key[0] == name
            ]

    def collect(self) -> Iterable[tuple[str, dict[str, str], Any]]:
        """All metrics as ``(name, labels, metric)``, sorted by name
        then labels (a stable export order)."""
        with self._lock:
            items = sorted(self._metrics.items())
        for (name, label_key), metric in items:
            yield name, dict(label_key), metric

    def snapshot(self, samples: int = 0) -> dict[str, list[dict[str, Any]]]:
        """Everything, as one JSON-serialisable dict keyed by metric
        name; each entry carries its labels, kind and value/stats.
        ``samples`` is forwarded to :meth:`Histogram.snapshot` (the
        telemetry op ships capped samples for mergeable percentiles).
        """
        out: dict[str, list[dict[str, Any]]] = {}
        for name, labels, metric in self.collect():
            entry: dict[str, Any] = {"labels": labels, "kind": metric.kind}
            if metric.kind == "histogram":
                entry.update(metric.snapshot(samples=samples))
            else:
                entry["value"] = metric.value
            out.setdefault(name, []).append(entry)
        return out

    def clear(self) -> None:
        """Drop every registered metric (tests and fresh runs)."""
        with self._lock:
            self._metrics.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


def counter_total(snapshot: dict[str, Any], name: str) -> float:
    """Sum of every ``value`` in family ``name`` of a registry
    snapshot, across all label sets (0 when the family is absent)."""
    total = 0.0
    for entry in snapshot.get(name) or []:
        value = entry.get("value") if isinstance(entry, dict) else None
        if isinstance(value, _NUMBER_T):
            total += value
    return total


def series_value(
    snapshot: dict[str, Any], name: str, **labels: Any
) -> float | None:
    """Value of the one counter or gauge series ``name{labels}`` in a
    registry snapshot; ``None`` when the series is absent."""
    wanted = {k: str(v) for k, v in labels.items()}
    for entry in snapshot.get(name) or []:
        if isinstance(entry, dict) and entry.get("labels") == wanted:
            value = entry.get("value")
            return value if isinstance(value, _NUMBER_T) else None
    return None


def worst_p99(snapshot: dict[str, Any]) -> float | None:
    """Largest per-op p99 of ``service_request_seconds`` in a registry
    snapshot, in seconds; ``None`` when nothing was recorded.  The
    one-number latency summary ``repro cluster status`` prints."""
    values = [
        entry["p99"]
        for entry in snapshot.get("service_request_seconds") or []
        if isinstance(entry, dict)
        and isinstance(entry.get("p99"), _NUMBER_T)
    ]
    return max(values) if values else None


#: The process-global registry — what `python -m repro profile` dumps
#: and what the summarizer instrumentation records into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global :class:`MetricsRegistry`."""
    return REGISTRY
