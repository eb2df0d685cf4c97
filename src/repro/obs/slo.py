"""Declarative service-level objectives over merged cluster telemetry.

An :class:`SLO` is a target on the serving metrics every instance
already records (:mod:`repro.service.metrics`):

* ``kind="availability"`` — the success ratio
  ``1 - errors/requests`` (from ``service_requests_total`` /
  ``service_errors_total``, summed across instances) must be at least
  ``objective`` (e.g. ``0.99``);
* ``kind="latency"`` — the ``percentile`` of
  ``service_request_seconds`` (histogram snapshots merged across
  instances via :meth:`~repro.obs.metrics.Histogram.merge`,
  optionally restricted to one ``op``) must be at most ``objective``
  milliseconds.

Every result reports **error-budget burn** — how much of the allowed
slack is spent: for availability, observed error ratio over allowed
error ratio; for latency, observed percentile over the threshold.
``burn <= 1`` means the objective holds; ``burn > 1`` is a violation
(what fails ``repro slo`` and the CI smoke drill's SLO gate).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs.metrics import Histogram, counter_total

__all__ = [
    "SLO",
    "SLOResult",
    "DEFAULT_SLOS",
    "evaluate_slos",
    "load_slo_config",
    "format_slo_report",
]

_KINDS = ("availability", "latency")


@dataclass(frozen=True)
class SLO:
    """One objective.  ``objective`` is a minimum success ratio in
    (0, 1] for availability, a maximum latency in milliseconds for
    latency SLOs."""

    name: str
    kind: str
    objective: float
    op: str | None = None
    percentile: float = 99.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"SLO {self.name!r}: kind must be one of {_KINDS}"
            )
        if self.kind == "availability" and not 0.0 < self.objective <= 1.0:
            raise ValueError(
                f"SLO {self.name!r}: availability objective must be in "
                "(0, 1]"
            )
        if self.kind == "latency" and self.objective <= 0:
            raise ValueError(
                f"SLO {self.name!r}: latency objective (ms) must be > 0"
            )
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError(
                f"SLO {self.name!r}: percentile must be in (0, 100]"
            )


@dataclass(frozen=True)
class SLOResult:
    """Outcome of one SLO against one merged registry."""

    slo: SLO
    ok: bool
    actual: float
    budget_burn: float
    detail: str


#: The gate shipped by default: four nines of headroom would be
#: meaningless for a local drill, so these are deliberately loose —
#: they catch a broken cluster, not a slow laptop.
DEFAULT_SLOS = (
    SLO(name="availability", kind="availability", objective=0.99),
    SLO(name="latency-p99", kind="latency", objective=1000.0),
)


def _normalise(snapshots: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Accept either raw registry snapshots or full telemetry entries
    (``{"registry": snapshot, ...}``) per instance."""
    out: dict[str, dict[str, Any]] = {}
    for label, value in snapshots.items():
        if not isinstance(value, dict):
            continue
        if isinstance(value.get("registry"), dict):
            out[label] = value["registry"]
        else:
            out[label] = value
    return out


def _availability(
    slo: SLO, snapshots: dict[str, dict[str, Any]]
) -> SLOResult:
    requests = sum(
        counter_total(s, "service_requests_total")
        for s in snapshots.values()
    )
    errors = sum(
        counter_total(s, "service_errors_total") for s in snapshots.values()
    )
    if requests <= 0:
        return SLOResult(
            slo=slo, ok=True, actual=1.0, budget_burn=0.0,
            detail="no requests observed",
        )
    ratio = max(0.0, 1.0 - errors / requests)
    allowed = 1.0 - slo.objective
    observed = 1.0 - ratio
    if allowed > 0:
        burn = observed / allowed
    else:
        burn = 0.0 if observed == 0 else math.inf
    return SLOResult(
        slo=slo,
        ok=ratio >= slo.objective,
        actual=ratio,
        budget_burn=burn,
        detail=(
            f"{errors:.0f} error(s) / {requests:.0f} request(s) "
            f"across {len(snapshots)} instance(s)"
        ),
    )


def _latency(slo: SLO, snapshots: dict[str, dict[str, Any]]) -> SLOResult:
    merged = Histogram()
    entries = 0
    for snapshot in snapshots.values():
        for entry in snapshot.get("service_request_seconds") or []:
            if not isinstance(entry, dict):
                continue
            labels = entry.get("labels") or {}
            if slo.op is not None and labels.get("op") != slo.op:
                continue
            merged.merge(entry)
            entries += 1
    if merged.count == 0:
        return SLOResult(
            slo=slo, ok=True, actual=0.0, budget_burn=0.0,
            detail="no latency observations",
        )
    actual_ms = merged.percentile(slo.percentile) * 1000.0
    return SLOResult(
        slo=slo,
        ok=actual_ms <= slo.objective,
        actual=actual_ms,
        budget_burn=actual_ms / slo.objective,
        detail=(
            f"p{slo.percentile:g} over {merged.count:.0f} request(s), "
            f"{entries} histogram(s)"
            + (f", op={slo.op}" if slo.op else "")
        ),
    )


def evaluate_slos(
    snapshots: dict[str, Any],
    slos: tuple[SLO, ...] | list[SLO] = DEFAULT_SLOS,
) -> list[SLOResult]:
    """Evaluate each SLO against per-instance registry snapshots
    (label -> registry snapshot, or label -> telemetry entry as
    returned by :func:`repro.obs.collect.pull_cluster_telemetry`)."""
    normalised = _normalise(snapshots)
    results = []
    for slo in slos:
        if slo.kind == "availability":
            results.append(_availability(slo, normalised))
        else:
            results.append(_latency(slo, normalised))
    return results


def load_slo_config(path: str | Path) -> list[SLO]:
    """Read SLO definitions from JSON::

        {"slos": [
          {"name": "availability", "kind": "availability",
           "objective": 0.999},
          {"name": "khop-p95", "kind": "latency", "objective": 250,
           "percentile": 95, "op": "khop"}
        ]}

    Raises ``ValueError`` on anything malformed.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable SLO config {path}: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(
        payload.get("slos"), list
    ):
        raise ValueError(f"{path}: expected an object with a 'slos' list")
    slos: list[SLO] = []
    for i, raw in enumerate(payload["slos"]):
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: slos[{i}] is not an object")
        unknown = set(raw) - {"name", "kind", "objective", "op", "percentile"}
        if unknown:
            raise ValueError(
                f"{path}: slos[{i}] has unknown keys {sorted(unknown)}"
            )
        try:
            slos.append(
                SLO(
                    name=str(raw.get("name", f"slo-{i}")),
                    kind=raw.get("kind", ""),
                    objective=float(raw.get("objective", 0.0)),
                    op=raw.get("op"),
                    percentile=float(raw.get("percentile", 99.0)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: slos[{i}]: {exc}") from exc
    if not slos:
        raise ValueError(f"{path}: 'slos' list is empty")
    return slos


def format_slo_report(results: list[SLOResult]) -> str:
    """The table ``repro slo`` prints — one row per objective."""
    lines = [
        f"{'SLO':<20} {'kind':<13} {'objective':>12} {'actual':>12} "
        f"{'burn':>7}  status"
    ]
    for result in results:
        slo = result.slo
        if slo.kind == "availability":
            objective = f"{slo.objective:.3%}"
            actual = f"{result.actual:.3%}"
        else:
            objective = f"{slo.objective:g}ms@p{slo.percentile:g}"
            actual = f"{result.actual:.2f}ms"
        burn = (
            "inf" if math.isinf(result.budget_burn)
            else f"{result.budget_burn:.2f}"
        )
        status = "OK" if result.ok else "VIOLATED"
        lines.append(
            f"{slo.name:<20} {slo.kind:<13} {objective:>12} {actual:>12} "
            f"{burn:>7}  {status} ({result.detail})"
        )
    return "\n".join(lines)
