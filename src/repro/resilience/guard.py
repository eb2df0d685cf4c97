"""Resource governance: budgets that make summarization *anytime*.

The paper's experimental protocol kills runs at a hard 24-hour limit,
which throws the work away.  Production wants the opposite contract — SWeG and LDME
both stress summarizing graphs far beyond memory — so a
:class:`ResourceBudget` turns Mags / Mags-DM / Greedy into **anytime
algorithms**: when the budget is exhausted the run stops *cleanly* at
the next phase or iteration boundary and returns the current valid
summary, flagged ``truncated=True`` on the
:class:`~repro.algorithms.base.SummaryResult`.  A truncated summary is
still a lossless encoding of the input (every committed merge keeps
the partition valid and the optimal output encoding is exact), it is
merely less compact than an unconstrained run's.

Budget dimensions:

* **wall clock** (``time_budget`` seconds) — checked on every
  :meth:`exhausted` call via the monotonic clock;
* **memory** (``memory_budget_mb`` RSS ceiling) — sampled by a daemon
  watchdog thread between :meth:`start` and :meth:`stop`, so the hot
  path never reads ``/proc``; the main thread only reads a flag;
* **merge count** (``max_merges``) — equivalently a floor of
  ``n - max_merges`` super-nodes, bounding how much merge work one
  job may consume;
* **candidate count** (``max_candidates``) — a cap on the candidate
  pair set an algorithm may materialise (the dominant memory term of
  Mags / Greedy).  Trimming does not *stop* the run; it flags the
  result truncated because the search space was reduced.

The algorithm layer never imports this module: the budget is handed to
:meth:`~repro.algorithms.base.Summarizer.configure_budget` duck-typed,
exactly like the checkpoint store, so unbudgeted runs execute the
pre-guard code paths unchanged.  With a generous budget the checks are
pure reads (no RNG, no state the algorithms observe), so output is
bit-identical to an unbudgeted run — asserted in
``tests/test_guard_budget.py``.

Every trip is counted under
``repro_guard_budget_trips_total{reason=...}`` in :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
import time

__all__ = ["ResourceBudget", "current_rss_mb"]


def current_rss_mb() -> float | None:
    """This process's resident set size in MiB, or ``None`` when the
    platform offers no way to read it (the memory ceiling is then
    silently unenforceable — budgets degrade, they never crash).

    Prefers ``/proc/self/statm`` (current RSS, Linux); falls back to
    ``resource.getrusage`` (peak RSS), which over-approximates but is
    still a safe ceiling signal.
    """
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        import resource

        return pages * resource.getpagesize() / (1024.0 * 1024.0)
    except (OSError, ValueError, IndexError, ImportError):
        pass
    try:
        import resource

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; normalise heuristically.
        return rss / 1024.0 if rss < (1 << 40) else rss / (1024.0 * 1024.0)
    except (ImportError, OSError, ValueError):
        return None


class ResourceBudget:
    """A bundle of resource ceilings for one summarization run.

    Parameters
    ----------
    time_budget:
        Wall-clock seconds from :meth:`start`; ``None`` = unlimited.
    memory_budget_mb:
        RSS ceiling in MiB, enforced by a watchdog thread sampling
        every ``poll_interval`` seconds; ``None`` = unlimited.
    max_merges:
        Total merges the run may commit (``None`` = unlimited).
    max_candidates:
        Candidate pairs an algorithm may keep per generation sweep
        (``None`` = unlimited); excess pairs are dropped
        deterministically (the tail of the sorted pair list).
    poll_interval:
        Watchdog sampling period in seconds.

    The object is reusable across runs: :meth:`start` resets the
    clock, the merge counter and the trip record.
    """

    def __init__(
        self,
        time_budget: float | None = None,
        memory_budget_mb: float | None = None,
        max_merges: int | None = None,
        max_candidates: int | None = None,
        poll_interval: float = 0.25,
    ):
        if time_budget is not None and time_budget < 0:
            raise ValueError("time_budget must be >= 0")
        if memory_budget_mb is not None and memory_budget_mb <= 0:
            raise ValueError("memory_budget_mb must be > 0")
        if max_merges is not None and max_merges < 0:
            raise ValueError("max_merges must be >= 0")
        if max_candidates is not None and max_candidates < 0:
            raise ValueError("max_candidates must be >= 0")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")
        self.time_budget = time_budget
        self.memory_budget_mb = memory_budget_mb
        self.max_merges = max_merges
        self.max_candidates = max_candidates
        self.poll_interval = poll_interval
        self._started_at: float | None = None
        self._merges = 0
        self._memory_tripped = threading.Event()
        self._stop_watchdog = threading.Event()
        self._watchdog: threading.Thread | None = None
        #: Every budget dimension that tripped, in first-hit order.
        self.trips: list[str] = []

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "ResourceBudget":
        """Arm the budget: reset counters, start the clock and (when a
        memory ceiling is set) the watchdog thread."""
        self._started_at = time.monotonic()
        self._merges = 0
        self.trips = []
        self._memory_tripped.clear()
        self._stop_watchdog.clear()
        if self.memory_budget_mb is not None and current_rss_mb() is not None:
            self._watchdog = threading.Thread(
                target=self._watch_memory,
                name="repro-budget-watchdog",
                daemon=True,
            )
            self._watchdog.start()
        return self

    def stop(self) -> None:
        """Disarm: stop the watchdog (idempotent)."""
        self._stop_watchdog.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=5.0)
            self._watchdog = None

    def __enter__(self) -> "ResourceBudget":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _watch_memory(self) -> None:
        while not self._stop_watchdog.wait(self.poll_interval):
            rss = current_rss_mb()
            if rss is not None and rss > self.memory_budget_mb:
                self._memory_tripped.set()
                return

    # -- accounting ------------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Seconds since :meth:`start` (0.0 before it)."""
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    @property
    def merges(self) -> int:
        """Merges noted so far this run."""
        return self._merges

    def note_merges(self, k: int = 1) -> None:
        """Record ``k`` committed merges against ``max_merges``."""
        self._merges += k

    def clamp_candidates(self, pairs: list) -> list:
        """Trim a candidate pair list to ``max_candidates``.

        Returns the (possibly shortened) list; a trim records a
        ``candidate_cap`` trip, which flags the run's result truncated
        without stopping it.
        """
        cap = self.max_candidates
        if cap is None or len(pairs) <= cap:
            return pairs
        self._trip("candidate_cap")
        return pairs[:cap]

    # -- exhaustion ------------------------------------------------------
    def exhausted(self) -> str | None:
        """The reason the run must stop now, or ``None``.

        Returns one of ``"time_budget"``, ``"memory_budget"``,
        ``"merge_cap"`` — each recorded (and counted in the metrics
        registry) on first detection.  Cheap enough for inner loops:
        one clock read plus two comparisons.
        """
        if (
            self.time_budget is not None
            and self._started_at is not None
            and time.monotonic() - self._started_at > self.time_budget
        ):
            return self._trip("time_budget")
        if self._memory_tripped.is_set():
            return self._trip("memory_budget")
        if self.max_merges is not None and self._merges >= self.max_merges:
            return self._trip("merge_cap")
        return None

    def _trip(self, reason: str) -> str:
        if reason not in self.trips:
            self.trips.append(reason)
            self._record(reason)
        return reason

    @staticmethod
    def _record(reason: str) -> None:
        from repro.obs.metrics import get_registry

        get_registry().counter(
            "repro_guard_budget_trips_total", reason=reason
        ).inc()
