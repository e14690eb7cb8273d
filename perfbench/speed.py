"""Core-speed sampling, so timings survive a host whose speed drifts.

On a shared host the speed of one core drifts by tens of percent over
tens of seconds (other tenants on the same physical core), and the two
cores of a small machine drift independently.  A :class:`SpeedSampler`
measures its own core while the timed work runs: every ``PERIOD_S`` a
``SIGALRM`` handler runs :func:`calibrate`, a fixed interpreter
workload that shares nothing with the program, and records the thread
CPU time it took (CPU time, so waiting for the GIL does not count).

:meth:`SpeedSampler.nominal` turns a measured interval into *nominal
seconds*: the interval minus the handler's own time, scaled by the
mean of ``NOMINAL_CALIBRATION_S / sample`` over the samples taken in
it — the time the interval would have taken on a core running the
calibration in ``NOMINAL_CALIBRATION_S``.  A program that gets faster
gets faster in nominal seconds by the same factor; the calibration
itself never changes with the program.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: one calibration's thread CPU time on an undisturbed core of the
#: reference host (2-core x86-64 VM, Python 3.11); sets the scale only
NOMINAL_CALIBRATION_S = 0.0005
PERIOD_S = 0.05
#: time resolution of a :class:`SpeedProfile`
BUCKET_S = 1.0


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def calibrate() -> float:
    """A fixed mix of what the simulator's interpreter work consists of:
    small objects, dict and heap traffic, float arithmetic, a sort."""
    heap: list[tuple[float, int]] = []
    table: dict[int, _Item] = {}
    acc = 0.0
    for i in range(600):
        item = _Item(i, i * 0.5)
        table[i] = item
        heapq.heappush(heap, (item.value, i))
        if i % 3 == 0:
            heapq.heappop(heap)
        acc += item.key * 1.0001 + len(table)
    order = sorted(table, key=lambda k: -table[k].value)
    return acc + order[0]


class SpeedSampler:
    """Samples this process's core while started (main thread only)."""

    def __init__(self) -> None:
        #: (perf_counter at start, handler wall s, calibration CPU s)
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        """Take one sample now (the timer also calls this)."""
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            calibrate()  # warms caches and branch predictors: time the second run
            c0 = time.thread_time()
            calibrate()
            c1 = time.thread_time()
            self.samples.append((t0, time.perf_counter() - t0, c1 - c0))
        finally:
            self._busy = False

    def start(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    # -- analysis ------------------------------------------------------------
    def window(self, t0: float, t1: float) -> list[tuple[float, float, float]]:
        return [s for s in self.samples if t0 <= s[0] < t1]

    def speed(self, t0: float, t1: float) -> float:
        """Mean core speed over ``[t0, t1)`` relative to nominal (1.0 =
        nominal, 0.8 = everything took 25 % longer)."""
        samples = self.window(t0, t1)
        if not samples:
            raise RuntimeError("no speed sample in the interval")
        return statistics.fmean(NOMINAL_CALIBRATION_S / s[2] for s in samples)

    def nominal(self, t0: float, t1: float) -> float:
        """``[t0, t1)`` in nominal seconds, without the sampler's own time."""
        samples = self.window(t0, t1)
        busy = sum(s[1] for s in samples)
        return (t1 - t0 - busy) * self.speed(t0, t1)


class SpeedProfile:
    """The speed of several processes (the service's client and server)
    over time: per ``BUCKET_S`` bucket, the mean over processes of each
    one's mean sampled speed.  ``perf_counter`` is the system-wide
    monotonic clock, so samples of different processes line up."""

    def __init__(self, sample_sets: "list[list[tuple[float, float, float]]]") -> None:
        per_process: list[dict[int, list[float]]] = []
        for samples in sample_sets:
            buckets: dict[int, list[float]] = {}
            for t, _, cpu in samples:
                buckets.setdefault(int(t // BUCKET_S), []).append(NOMINAL_CALIBRATION_S / cpu)
            per_process.append(buckets)
        keys = set().union(*per_process) if per_process else set()
        self.buckets = {
            k: statistics.fmean(
                statistics.fmean(b[k]) for b in per_process if k in b
            )
            for k in keys
        }
        if not self.buckets:
            raise RuntimeError("no speed samples")
        self.mean = statistics.fmean(self.buckets.values())

    def at(self, t: float) -> float:
        return self.buckets.get(int(t // BUCKET_S), self.mean)

    def nominal(self, t0: float, t1: float) -> float:
        """``[t0, t1)`` in nominal seconds (bucket by bucket)."""
        total = 0.0
        t = t0
        while t < t1:
            edge = min(t1, (int(t // BUCKET_S) + 1) * BUCKET_S)
            total += (edge - t) * self.at(t)
            t = edge
        return total
