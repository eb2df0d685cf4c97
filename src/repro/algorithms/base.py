"""Common interface for all summarization algorithms.

Every algorithm (Greedy, Randomized, SWeG, LDME, Slugger, Mags,
Mags-DM) is a :class:`Summarizer`: construct it with its parameters,
call :meth:`Summarizer.summarize` on a graph, get a
:class:`SummaryResult` back.  The result carries the representation,
wall-clock phase timings (the quantities plotted in Figures 6-8, 10,
12) and merge statistics.

Observability: when :mod:`repro.obs` is imported *and* a tracer is
installed, :meth:`Summarizer.summarize` wraps the run in a
``summarize:<name>`` span, :class:`PhaseTimer` mirrors every phase as
a child ``phase:<name>`` span, and algorithms report iteration-level
progress through :meth:`PhaseTimer.progress`.  The hook is resolved
through ``sys.modules`` (:func:`active_tracer`), so a process that
never imports ``repro.obs`` runs exactly the uninstrumented code —
the tracing-disabled overhead is one dict lookup per phase boundary.
"""

from __future__ import annotations

import sys
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.core.encoding import Representation
from repro.core.supernodes import SuperNodePartition
from repro.graph.graph import Graph

__all__ = [
    "SummaryResult",
    "Summarizer",
    "PhaseTimer",
    "RecordingPartition",
    "active_tracer",
    "active_fault_injector",
]


def active_tracer():
    """The enabled global tracer, or ``None``.

    Resolved through ``sys.modules`` instead of an import so that a
    process which never imports :mod:`repro.obs` pays nothing at all,
    and one with tracing disabled pays a dict lookup plus an attribute
    check.
    """
    obs = sys.modules.get("repro.obs.tracer")
    if obs is None:
        return None
    tracer = obs.get_tracer()
    return tracer if tracer.enabled else None


def active_fault_injector():
    """The configured global fault injector, or ``None``.

    Same ``sys.modules`` gate as :func:`active_tracer`: the algorithm
    layer never imports :mod:`repro.resilience`, so a process that
    does not use fault injection runs the uninstrumented code paths —
    and one with the module imported but no injector installed pays a
    dict lookup per site.
    """
    faults = sys.modules.get("repro.resilience.faults")
    if faults is None:
        return None
    return faults.active_injector()


class RecordingPartition(SuperNodePartition):
    """A partition that logs every ``merge(u, v)`` call.

    Checkpointing algorithms snapshot :attr:`merge_log` and restore by
    *replaying* it: :meth:`SuperNodePartition.merge` picks its survivor
    from the live weight tables, so only an argument-exact replay of
    the original call sequence reproduces the same root identities —
    rebuilding from member groups can silently re-root super-nodes and
    diverge the remaining iterations.  Instantiated only when a
    checkpoint store is configured, so the default path keeps the
    plain partition.
    """

    def __init__(self, graph: Graph):
        super().__init__(graph)
        #: ``(u, v)`` as passed to each merge call, in call order.
        self.merge_log: list[tuple[int, int]] = []

    def merge(self, u: int, v: int) -> int:
        self.merge_log.append((u, v))
        return super().merge(u, v)


@dataclass
class SummaryResult:
    """Output of one summarization run."""

    algorithm: str
    representation: Representation
    runtime_seconds: float
    phase_seconds: dict[str, float] = field(default_factory=dict)
    num_merges: int = 0
    params: dict[str, Any] = field(default_factory=dict)
    #: Algorithm-specific metrics, e.g. Slugger's hierarchical cost
    #: (|P+| + |P-| + |H|) which uses its own compactness measure.
    extra_metrics: dict[str, float] = field(default_factory=dict)
    #: ``True`` when a resource budget stopped (or trimmed) the run
    #: early; the representation is still a valid lossless summary,
    #: just less compact than an unconstrained run's.
    truncated: bool = False
    #: Why the run was truncated (``"time_budget"``,
    #: ``"memory_budget"``, ``"merge_cap"``, ``"candidate_cap"``);
    #: ``None`` when not truncated.
    truncated_reason: str | None = None

    @property
    def relative_size(self) -> float:
        """Compactness measure ``(|E| + |C|) / m`` (Section 6.1)."""
        return self.representation.relative_size

    @property
    def cost(self) -> int:
        """Representation cost ``c(R)``."""
        return self.representation.cost

    def summary_line(self) -> str:
        """One-line human-readable summary for harness output."""
        line = (
            f"{self.algorithm}: relative_size={self.relative_size:.4f} "
            f"cost={self.cost} supernodes={self.representation.num_supernodes} "
            f"merges={self.num_merges} time={self.runtime_seconds:.3f}s"
        )
        if self.truncated:
            line += f" truncated={self.truncated_reason}"
        return line


class PhaseTimer:
    """Accumulates named phase durations and polls the resource budget.

    With a tracer attached, every :meth:`start`/:meth:`stop` pair is
    mirrored as a ``phase:<name>`` span (one span per phase
    *occurrence*, so iterative algorithms emit one divide and one
    merge span per round), and :meth:`progress` forwards
    iteration-level events onto the open phase span.
    """

    def __init__(self, tracer=None, budget=None):
        self.phases: dict[str, float] = {}
        self._phase_start: float | None = None
        self._phase_name: str | None = None
        self._tracer = tracer
        self._span = None
        self._budget = budget
        #: Why the soft budget stopped the run (``None`` while inside
        #: budget).  Algorithms poll :attr:`out_of_budget` at safe
        #: boundaries and break cleanly instead of raising.
        self.budget_stop: str | None = None

    def start(self, name: str) -> None:
        """Begin timing phase ``name`` (ends any running phase)."""
        self.stop()
        self._phase_name = name
        self._phase_start = time.perf_counter()
        if self._tracer is not None:
            self._span = self._tracer.start_span(f"phase:{name}", phase=name)

    def stop(self) -> None:
        """End the current phase, if any."""
        if self._phase_name is not None and self._phase_start is not None:
            elapsed = time.perf_counter() - self._phase_start
            self.phases[self._phase_name] = (
                self.phases.get(self._phase_name, 0.0) + elapsed
            )
        self._phase_name = None
        self._phase_start = None
        if self._span is not None:
            self._tracer.end_span(self._span)
            self._span = None

    def progress(self, name: str, **attrs) -> None:
        """Report an iteration-level progress event (candidate pairs
        considered, merges accepted, saving accrued, ...).

        No-op without a tracer, so algorithms call it unconditionally.
        """
        if self._span is not None:
            self._span.event(name, **attrs)

    def check_budget(self) -> None:
        """Poll the :class:`~repro.resilience.guard`-style resource
        budget, latching :attr:`budget_stop` when exhausted.

        Never raises: the algorithm keeps running until it reaches a
        boundary where stopping leaves a valid partition, then checks
        :attr:`out_of_budget`.
        """
        if self._budget is not None and self.budget_stop is None:
            self.budget_stop = self._budget.exhausted()

    @property
    def out_of_budget(self) -> bool:
        """``True`` once the soft resource budget is exhausted.

        Re-polls the budget so phase-boundary checks catch exhaustion
        even when no :meth:`check_budget` call happened in between.
        """
        if self.budget_stop is None and self._budget is not None:
            self.budget_stop = self._budget.exhausted()
        return self.budget_stop is not None

    def note_merges(self, k: int = 1) -> None:
        """Count ``k`` committed merges against the budget (no-op
        without one)."""
        if self._budget is not None:
            self._budget.note_merges(k)

    def clamp_candidates(self, pairs: list) -> list:
        """Trim a candidate list to the budget's cap (identity without
        one).  A trim is recorded as a ``candidate_cap`` trip on the
        budget, flagging the result truncated without stopping the run.
        """
        if self._budget is None:
            return pairs
        return self._budget.clamp_candidates(pairs)

    @property
    def candidate_cap(self) -> int | None:
        """The budget's candidate-pair cap, or ``None``.

        Exposed so algorithms whose candidate structures are not plain
        lists (e.g. Greedy's savings dict) can skip the trim work
        entirely when no cap is in force.
        """
        if self._budget is None:
            return None
        return getattr(self._budget, "max_candidates", None)

    @property
    def truncated_reason(self) -> str | None:
        """The first budget trip of the run (stop or trim), if any."""
        if self.budget_stop is not None:
            return self.budget_stop
        if self._budget is not None and self._budget.trips:
            return self._budget.trips[0]
        return None


class Summarizer(ABC):
    """Base class for summarization algorithms.

    Subclasses implement :meth:`_run`, returning the final
    representation plus bookkeeping; :meth:`summarize` adds timing.

    Parameters common to all subclasses:

    seed:
        Seed for every stochastic component (hash functions, sampling
        order); identical seeds give identical output.
    """

    #: Human-readable algorithm name, set by subclasses.
    name: str = "abstract"

    def __init__(self, seed: int = 0):
        self.seed = seed
        #: Populated by _run implementations that report extra metrics.
        self._extra_metrics: dict[str, float] = {}
        self._ckpt_store = None
        self._ckpt_interval = 1
        self._ckpt_resume = False
        self._budget = None

    @abstractmethod
    def _run(
        self, graph: Graph, timer: PhaseTimer
    ) -> tuple[Representation, int]:
        """Summarize ``graph``; return (representation, num_merges)."""

    # -- checkpoint/resume ------------------------------------------------
    def configure_checkpointing(
        self, store, interval: int = 1, resume: bool = False
    ) -> "Summarizer":
        """Attach a checkpoint store for long runs.

        ``store`` is duck-typed (``save(state, step)`` / ``latest()``,
        the :class:`repro.resilience.checkpoint.CheckpointStore`
        interface) so the algorithm layer never imports
        :mod:`repro.resilience`.  With ``interval=k`` a snapshot is
        written after every ``k``-th iteration; with ``resume=True``
        the next :meth:`summarize` restores the newest valid snapshot
        and continues from the following iteration.  Returns ``self``
        for chaining.
        """
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self._ckpt_store = store
        self._ckpt_interval = interval
        self._ckpt_resume = resume
        return self

    def _maybe_checkpoint(self, step: int, state_fn) -> None:
        """Snapshot ``state_fn()`` when ``step`` hits the interval.

        Iterative algorithms call this at the end of every iteration;
        it is a no-op without a configured store.
        """
        if self._ckpt_store is None or step % self._ckpt_interval != 0:
            return
        self._ckpt_store.save(state_fn(), step)

    def _resume_checkpoint(self):
        """The newest valid checkpoint when resuming, else ``None``."""
        if self._ckpt_store is None or not self._ckpt_resume:
            return None
        return self._ckpt_store.latest()

    # -- resource budget --------------------------------------------------
    def configure_budget(self, budget) -> "Summarizer":
        """Attach a resource budget, making the run *anytime*.

        ``budget`` is duck-typed (``start()`` / ``stop()`` /
        ``exhausted()`` / ``note_merges(k)`` / ``clamp_candidates(p)``
        / ``trips``, the :class:`repro.resilience.guard.ResourceBudget`
        interface) so the algorithm layer never imports
        :mod:`repro.resilience` — same pattern as
        :meth:`configure_checkpointing`.  On exhaustion the run stops
        cleanly at the next safe boundary and the result is flagged
        ``truncated=True``; the summary is still lossless.  Pass
        ``None`` to detach.  Returns ``self`` for chaining.
        """
        self._budget = budget
        return self

    def params(self) -> dict[str, Any]:
        """Parameter dict recorded in results (subclasses extend)."""
        return {"seed": self.seed}

    def summarize(self, graph: Graph) -> SummaryResult:
        """Run the algorithm on ``graph`` and time it.

        When a tracer is active the whole run becomes a
        ``summarize:<name>`` root span whose children are the phase
        spans, and the run's totals land in the global metrics
        registry.
        """
        tracer = active_tracer()
        if tracer is None:
            return self._summarize(graph, None)
        with tracer.span(
            f"summarize:{self.name}",
            algorithm=self.name,
            n=graph.n,
            m=graph.m,
            params=self.params(),
        ) as span:
            result = self._summarize(graph, tracer)
            span.set(
                relative_size=result.relative_size,
                cost=result.cost,
                supernodes=result.representation.num_supernodes,
            )
            span.inc("merges", result.num_merges)
        self._record_run_metrics(result)
        return result

    def _summarize(self, graph: Graph, tracer) -> SummaryResult:
        timer = PhaseTimer(tracer=tracer, budget=self._budget)
        self._extra_metrics = {}
        start = time.perf_counter()
        if self._budget is not None:
            self._budget.start()
        try:
            representation, num_merges = self._run(graph, timer)
        finally:
            if self._budget is not None:
                self._budget.stop()
        timer.stop()
        reason = timer.truncated_reason
        return SummaryResult(
            algorithm=self.name,
            representation=representation,
            runtime_seconds=time.perf_counter() - start,
            phase_seconds=dict(timer.phases),
            num_merges=num_merges,
            params=self.params(),
            extra_metrics=dict(self._extra_metrics),
            truncated=reason is not None,
            truncated_reason=reason,
        )

    def _record_run_metrics(self, result: SummaryResult) -> None:
        """Mirror one run's totals into the global metrics registry.

        Only reached when tracing is active, so importing the registry
        here cannot be the first ``repro.obs`` import of the process.
        """
        from repro.obs.metrics import get_registry

        registry = get_registry()
        registry.counter(
            "repro_summarize_runs_total", algorithm=self.name
        ).inc()
        registry.counter(
            "repro_merges_total", algorithm=self.name
        ).inc(result.num_merges)
        registry.histogram(
            "repro_summarize_seconds", algorithm=self.name
        ).observe(result.runtime_seconds)
        for phase, seconds in result.phase_seconds.items():
            registry.histogram(
                "repro_phase_seconds", algorithm=self.name, phase=phase
            ).observe(seconds)
