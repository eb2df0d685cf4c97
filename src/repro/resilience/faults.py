"""Deterministic, seeded fault injection.

Production failure modes — a worker process dying, a straggling
machine, a dropped TCP connection, a corrupted checkpoint file — are
rare in tests and constant in deployments.  This module lets the
test-suite *schedule* them: a :class:`FaultPlan`
lists faults keyed by **site labels** (strings like ``client:send``
or ``summarize:iteration``), and a :class:`FaultInjector` fires them when the
instrumented code paths pass through those sites.

Everything is deterministic: a fault either fires on specific hit
numbers of its site (``after``/``times``) or with a probability drawn
from the injector's seeded RNG, so a test with a fixed seed replays
exactly.

The hooks are **zero-cost when disabled**: call sites resolve the
process-global injector through :func:`active_injector` (or the
``sys.modules`` gate in :func:`repro.algorithms.base.active_fault_injector`)
and skip everything when it is ``None`` — no plan configured means one
``is None`` check, and a process that never imports this module pays
nothing at all.

Fault kinds
-----------
``crash_before``
    Raise :class:`InjectedFault` at the entry hook of the site (a
    process that dies before the site's work).
``delay``
    Sleep ``delay_s`` seconds at the entry hook (a straggler).
``drop``
    Raise :class:`InjectedConnectionDrop` (a ``ConnectionError``
    subclass) at the entry hook — transport code treats it exactly
    like a peer reset.
``corrupt``
    Flip bytes in a payload passed through :meth:`FaultInjector.corrupt`
    (checkpoint files, wire messages).
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedConnectionDrop",
    "active_injector",
    "set_injector",
    "use_injector",
]

FAULT_KINDS = ("crash_before", "delay", "drop", "corrupt")


class InjectedFault(RuntimeError):
    """A scheduled crash fired by the injector."""

    def __init__(self, site: str, kind: str):
        super().__init__(f"injected {kind} fault at site {site!r}")
        self.site = site
        self.kind = kind


class InjectedConnectionDrop(ConnectionError):
    """A scheduled connection drop; transport code sees a plain
    :class:`ConnectionError`."""

    def __init__(self, site: str):
        super().__init__(f"injected connection drop at site {site!r}")
        self.site = site


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Parameters
    ----------
    site:
        The label the instrumented code passes to the injector.
    kind:
        One of :data:`FAULT_KINDS`.
    after:
        Number of site hits to let through before the fault arms
        (``after=1`` spares the first pass).
    times:
        How many hits the armed fault fires on (then it is spent);
        ``None`` means every hit.
    delay_s:
        Sleep duration for ``delay`` faults.
    probability:
        When set, the armed fault fires on each eligible hit with this
        probability (drawn from the injector's seeded RNG) instead of
        unconditionally.
    """

    site: str
    kind: str
    after: int = 0
    times: int | None = 1
    delay_s: float = 0.0
    probability: float | None = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 (or None for always)")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")


@dataclass
class FaultPlan:
    """An ordered list of :class:`FaultSpec`; build with the helpers.

    >>> plan = FaultPlan().crash("client:send").delay("server:accept", 0.01)
    >>> [s.kind for s in plan.specs]
    ['crash_before', 'delay']
    """

    specs: list[FaultSpec] = field(default_factory=list)

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def crash(self, site: str, *, after: int = 0,
              times: int = 1) -> "FaultPlan":
        return self.add(
            FaultSpec(site, "crash_before", after=after, times=times)
        )

    def delay(self, site: str, seconds: float, *, after: int = 0,
              times: int | None = 1) -> "FaultPlan":
        return self.add(
            FaultSpec(site, "delay", after=after, times=times,
                      delay_s=seconds)
        )

    def drop(self, site: str, *, after: int = 0, times: int = 1,
             probability: float | None = None) -> "FaultPlan":
        return self.add(
            FaultSpec(site, "drop", after=after, times=times,
                      probability=probability)
        )

    def corrupt(self, site: str, *, after: int = 0,
                times: int | None = 1) -> "FaultPlan":
        return self.add(FaultSpec(site, "corrupt", after=after, times=times))


class _ArmedFault:
    """Mutable firing state for one spec inside one injector."""

    __slots__ = ("spec", "fired")

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.fired = 0

    def should_fire(self, hit: int, rng: random.Random) -> bool:
        spec = self.spec
        if hit <= spec.after:
            return False
        if spec.times is not None and self.fired >= spec.times:
            return False
        if spec.probability is not None and rng.random() >= spec.probability:
            return False
        self.fired += 1
        return True


class FaultInjector:
    """Fires the faults of one :class:`FaultPlan` deterministically.

    Thread-safe: hit counters and the RNG are guarded by a lock so
    concurrent workers hitting the same site observe a consistent
    schedule.  Every fired fault is counted in the global
    :mod:`repro.obs` registry
    (``repro_resilience_faults_injected_total{site=...,kind=...}``).
    """

    def __init__(self, plan: FaultPlan, seed: int = 0,
                 sleep=time.sleep):
        self.plan = plan
        self.seed = seed
        self._sleep = sleep
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._armed: dict[str, list[_ArmedFault]] = {}
        for spec in plan.specs:
            self._armed.setdefault(spec.site, []).append(_ArmedFault(spec))
        #: Fired faults as ``(site, kind)`` in firing order.
        self.fired: list[tuple[str, str]] = []

    # -- firing ----------------------------------------------------------
    def _fire_matching(self, site: str, kinds: tuple[str, ...]) -> list[str]:
        armed = self._armed.get(site)
        if not armed:
            return []
        fired: list[str] = []
        with self._lock:
            self._hits[site] = hit = self._hits.get(site, 0) + 1
            for fault in armed:
                if fault.spec.kind in kinds and fault.should_fire(
                    hit, self._rng
                ):
                    fired.append(fault.spec.kind)
                    self.fired.append((site, fault.spec.kind))
        for kind in fired:
            self._record(site, kind)
        return fired

    def before(self, site: str) -> None:
        """Entry hook: fires ``crash_before``, ``delay`` and ``drop``
        faults scheduled for ``site``."""
        for kind in self._fire_matching(
            site, ("crash_before", "delay", "drop")
        ):
            if kind == "delay":
                delay = max(
                    f.spec.delay_s
                    for f in self._armed[site]
                    if f.spec.kind == "delay"
                )
                self._sleep(delay)
            elif kind == "drop":
                raise InjectedConnectionDrop(site)
            else:
                raise InjectedFault(site, kind)

    def corrupt(self, site: str, data: bytes) -> bytes:
        """Pass ``data`` through ``site``; a scheduled ``corrupt``
        fault deterministically flips one byte per 64 (at least one)."""
        if not self._fire_matching(site, ("corrupt",)) or not data:
            return data
        corrupted = bytearray(data)
        rng = random.Random(self.seed ^ len(data))
        for _ in range(max(1, len(data) // 64)):
            index = rng.randrange(len(corrupted))
            corrupted[index] ^= 0xFF
        return bytes(corrupted)

    # -- inspection ------------------------------------------------------
    def hits(self, site: str) -> int:
        with self._lock:
            return self._hits.get(site, 0)

    def fired_count(self, site: str | None = None) -> int:
        with self._lock:
            if site is None:
                return len(self.fired)
            return sum(1 for s, __ in self.fired if s == site)

    def _record(self, site: str, kind: str) -> None:
        from repro.obs.metrics import get_registry

        get_registry().counter(
            "repro_resilience_faults_injected_total", site=site, kind=kind
        ).inc()


#: The process-global injector; ``None`` (the default) disables
#: injection entirely — call sites skip all bookkeeping.
_INJECTOR: FaultInjector | None = None


def active_injector() -> FaultInjector | None:
    """The configured global injector, or ``None`` when disabled."""
    return _INJECTOR


def set_injector(injector: FaultInjector | None) -> None:
    """Install (or clear, with ``None``) the global injector."""
    global _INJECTOR
    _INJECTOR = injector


@contextlib.contextmanager
def use_injector(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Scoped injector installation (tests)."""
    previous = _INJECTOR
    set_injector(injector)
    try:
        yield injector
    finally:
        set_injector(previous)
