"""Timing helpers and host-noise diagnostics."""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import statistics
import time


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return count - math.ceil(q / 100.0 * count)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _cpu_jiffies(cpu: int) -> tuple[int, int]:
    """``(steal, total)`` jiffies of one CPU from ``/proc/stat``."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat") as handle:
        for line in handle:
            if line.startswith(prefix):
                fields = [int(x) for x in line.split()[1:]]
                # user nice system idle iowait irq softirq steal
                # [guest guest_nice]; guest time is in user/nice.
                return fields[7], sum(fields[:8])
    raise ValueError(f"no {prefix.strip()} line in /proc/stat")


class HostWindow:
    """Host-noise diagnostics over one stretch of a run: the CPU steal
    share of the CPU this process runs on, and this process's CPU
    seconds.  Steal is the time the hypervisor ran something else
    while this CPU had work."""

    def __enter__(self) -> "HostWindow":
        self.cpu = min(os.sched_getaffinity(0))
        self._cpu0 = time.process_time()
        self._jiffies0 = _cpu_jiffies(self.cpu)
        return self

    def __exit__(self, *exc) -> None:
        steal, total = _cpu_jiffies(self.cpu)
        self.client_cpu_s = time.process_time() - self._cpu0
        self.steal_share = (steal - self._jiffies0[0]) / max(1, total - self._jiffies0[1])


#: Nominal wall seconds of one reference probe.  Timing metrics are
#: rescaled to a host on which a probe takes exactly this long.
REFERENCE_PROBE_S = 0.005
#: Probes per sample.
PROBES_PER_SAMPLE = 3


def _probe_loop() -> None:
    """Fixed interpreter work much like the program's own: dict
    updates over small ints, set intersections, list building."""
    counts = {}
    for i in range(30_000):
        key = (i * 7919) % 2003
        counts[key] = counts.get(key, 0) + 1
    sets = [set(range(i, i + 20)) for i in range(300)]
    sum(len(a & b) for a, b in zip(sets, sets[1:]))


class Reference:
    """Host speed, sampled between pieces of measured work.

    Other tenants of a shared host slow this CPU down by up to ~1.8x
    with no CPU steal to show for it (SMT siblings, shared caches,
    turbo budget), in spells from a fraction of a second to minutes.
    One run may see mostly fast spells and the next mostly slow ones,
    so raw times of identical work moved by 36% between consecutive
    30-second runs.  A fixed probe loop, timed in the same process
    between the measured calls, slows down with the host; dividing by
    its mean cancels most of that (8.5% between the same runs).
    :meth:`scale` converts seconds measured alongside these samples
    into reference seconds: seconds on a host where one probe takes
    ``REFERENCE_PROBE_S``.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, count: int = PROBES_PER_SAMPLE) -> float:
        """Time ``count`` probes; returns their mean seconds."""
        for _ in range(count):
            t = time.perf_counter()
            _probe_loop()
            self.samples.append(time.perf_counter() - t)
        return statistics.fmean(self.samples[-count:])

    @property
    def probe_s(self) -> float:
        return statistics.fmean(self.samples)

    def scale(self) -> float:
        """Factor from measured to reference seconds."""
        return REFERENCE_PROBE_S / self.probe_s


class Phase(HostWindow):
    """A closed-loop timed phase of ``seconds``, cut into windows of
    ``window_s`` seconds by host-speed samples.

    The timed loop runs ``while phase.running():``, which takes a
    sample when a window is over, between two steps.  Each window is
    rescaled to reference time by the mean of the samples at its two
    ends, so that a spell of slow host counts against the steps made
    in it, and the samples' own time is in no window.
    """

    def __init__(self, seconds: float, window_s: float):
        self.seconds = seconds
        self.window_s = window_s
        self.reference = Reference()
        #: ``(start, end, probe before, probe after)`` per window.
        self.windows: list[tuple[float, float, float, float]] = []

    def __enter__(self) -> "Phase":
        super().__enter__()
        self._open = None
        self._sample(time.perf_counter())
        self.t0 = self._open[0]
        return self

    def _sample(self, now: float) -> None:
        """Close the open window at ``now``, sample, open the next."""
        probe = self.reference.sample()
        if self._open is not None:
            self.windows.append((self._open[0], now, self._open[1], probe))
        self._open = (time.perf_counter(), probe)
        self._next = self._open[0] + self.window_s

    def running(self) -> bool:
        """Whether the phase goes on with another step."""
        now = time.perf_counter()
        if now - self.t0 >= self.seconds:
            return False
        if now >= self._next:
            self._sample(now)
        return True

    def __exit__(self, *exc) -> None:
        self._sample(time.perf_counter())
        super().__exit__(*exc)

    def _scale(self, window) -> float:
        return 2 * REFERENCE_PROBE_S / (window[2] + window[3])

    def scales(self, starts) -> list[float]:
        """Factor to reference time of each step, by its start."""
        ends = [w[1] for w in self.windows]
        last = len(self.windows) - 1
        return [
            self._scale(self.windows[min(last, bisect.bisect_right(ends, s))])
            for s in starts
        ]

    def reference_seconds(self) -> float:
        """The phase's step time, in reference seconds."""
        return sum((w[1] - w[0]) * self._scale(w) for w in self.windows)


class Layers:
    """Spans around the benchmark's calls into one layer.

    With a ``repro.obs`` tracer each :meth:`span` is recorded there
    too; either way it returns the measured wall seconds.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        box = {}
        cm = (
            self.tracer.span(name, **attrs) if self.tracer is not None
            else contextlib.nullcontext()
        )
        start = time.perf_counter()
        with cm:
            yield box
        box["seconds"] = time.perf_counter() - start
