"""repro.resilience — fault tolerance for summarization and serving.

Four small, composable pieces:

* :mod:`repro.resilience.faults` — deterministic, seeded fault
  injection (crashes, stragglers, connection drops, payload
  corruption) keyed by site labels; zero-cost when no injector is
  configured;
* :mod:`repro.resilience.retry` — :class:`RetryPolicy` (exponential
  backoff + seeded jitter), :class:`Deadline` budgets and the shared
  :func:`call_with_retry` loop;
* :mod:`repro.resilience.checkpoint` — atomic, versioned,
  checksum-verified :class:`CheckpointStore` for long summarization
  runs (``python -m repro summarize --checkpoint-dir/--resume``);
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker` guarding
  the serving engine;
* :mod:`repro.resilience.guard` — :class:`ResourceBudget` resource
  governance (wall-clock deadline, RSS watchdog, merge/candidate
  caps) that turns the summarizers into anytime algorithms.

Consumers: :class:`~repro.service.client.SummaryServiceClient`
(auto-reconnect + idempotent retry),
:class:`~repro.service.server.SummaryQueryServer` (load shedding,
breaker, degraded mode),
:class:`~repro.cluster.router.RouterEngine` (replica failover) and
the Mags/Mags-DM summarizers (checkpoint/resume).  Everything reports
into :mod:`repro.obs` (``repro_resilience_*`` metrics, ``resilience:``
spans).  See ``docs/resilience.md``; the crash and failover tests
are in the tier-1 suite, and ``tools/chaos_harness.py`` is one real
``kill -9`` smoke test.
"""

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointCorrupt,
    CheckpointError,
    CheckpointStore,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedConnectionDrop,
    InjectedFault,
    active_injector,
    set_injector,
    use_injector,
)
from repro.resilience.guard import ResourceBudget, current_rss_mb
from repro.resilience.retry import (
    Deadline,
    DeadlineExceeded,
    RetriesExhausted,
    RetryPolicy,
    call_with_retry,
)

__all__ = [
    # faults
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedConnectionDrop",
    "active_injector",
    "set_injector",
    "use_injector",
    # retry
    "RetryPolicy",
    "Deadline",
    "DeadlineExceeded",
    "RetriesExhausted",
    "call_with_retry",
    # checkpoint
    "Checkpoint",
    "CheckpointStore",
    "CheckpointError",
    "CheckpointCorrupt",
    # breaker
    "CircuitBreaker",
    # guard
    "ResourceBudget",
    "current_rss_mb",
]
