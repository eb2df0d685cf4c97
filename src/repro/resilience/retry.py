"""Retry with exponential backoff + jitter, under a deadline budget.

The retry policy is data (:class:`RetryPolicy`), the time budget is
data (:class:`Deadline`), and :func:`call_with_retry` is the one loop
that combines them — the service client and the cluster router both
delegate here so backoff behaviour, metric accounting and
``resilience:retry`` spans are implemented exactly once.

Jitter is drawn from a caller-supplied seeded RNG so retry schedules
are reproducible in tests.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

__all__ = [
    "RetryPolicy",
    "Deadline",
    "DeadlineExceeded",
    "RetriesExhausted",
    "call_with_retry",
]

T = TypeVar("T")


class DeadlineExceeded(TimeoutError):
    """The operation's time budget ran out."""


class RetriesExhausted(RuntimeError):
    """Every attempt failed; carries the last underlying error."""

    def __init__(self, label: str, attempts: int, last: BaseException):
        super().__init__(
            f"{label or 'operation'} failed after {attempts} attempt(s): "
            f"{type(last).__name__}: {last}"
        )
        self.attempts = attempts
        self.last = last


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule.

    ``delay(attempt)`` for attempt 1, 2, ... is
    ``min(base_delay * multiplier**(attempt-1), max_delay)``, plus up
    to ``jitter`` of itself drawn from the RNG.  ``max_attempts`` is
    the total number of tries (1 = no retries).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = min(
            self.base_delay * self.multiplier ** (attempt - 1),
            self.max_delay,
        )
        if rng is None or self.jitter == 0.0:
            return base
        return base * (1.0 + self.jitter * rng.random())


class Deadline:
    """A monotonic-clock time budget.

    ``Deadline.after(2.0)`` expires two seconds from now;
    ``Deadline.never()`` never does.  Engines and retry loops share
    one instance so every layer draws from the same budget.
    """

    __slots__ = ("_expires_at",)

    def __init__(self, expires_at: float | None):
        self._expires_at = expires_at

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        return cls(time.monotonic() + seconds)

    @classmethod
    def never(cls) -> "Deadline":
        return cls(None)

    @property
    def expires_at(self) -> float | None:
        return self._expires_at

    def remaining(self) -> float:
        """Seconds left (``inf`` for no deadline; never negative)."""
        if self._expires_at is None:
            return float("inf")
        return max(0.0, self._expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return (
            self._expires_at is not None
            and time.monotonic() >= self._expires_at
        )

    def check(self, what: str = "operation") -> None:
        if self.expired:
            raise DeadlineExceeded(f"{what} exceeded its deadline budget")


def call_with_retry(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy,
    retry_on: tuple[type[BaseException], ...],
    deadline: Deadline | None = None,
    rng: random.Random | None = None,
    label: str = "",
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn`` until it succeeds, the policy is exhausted, or the
    deadline expires.

    Retries are counted in the global
    :mod:`repro.obs` registry under
    ``repro_resilience_retries_total{component=label}`` and, when a
    tracer is active, wrapped in a ``resilience:retry`` span.
    """
    deadline = deadline or Deadline.never()
    last: BaseException | None = None
    for attempt in range(1, policy.max_attempts + 1):
        deadline.check(label or "retry loop")
        try:
            return fn()
        except retry_on as exc:
            last = exc
            if attempt >= policy.max_attempts:
                break
            _record_retry(label)
            pause = policy.delay(attempt, rng)
            if deadline.remaining() <= pause:
                raise DeadlineExceeded(
                    f"{label or 'retry loop'}: backoff of {pause:.3f}s "
                    f"does not fit the remaining deadline budget"
                ) from exc
            if pause > 0:
                sleep(pause)
    raise RetriesExhausted(label, policy.max_attempts, last)


def _record_retry(label: str) -> None:
    from repro.algorithms.base import active_tracer
    from repro.obs.metrics import get_registry

    get_registry().counter(
        "repro_resilience_retries_total", component=label or "unlabelled"
    ).inc()
    tracer = active_tracer()
    if tracer is not None:
        with tracer.span("resilience:retry", component=label):
            pass
