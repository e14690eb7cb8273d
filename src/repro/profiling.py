"""Lightweight phase profiling for the engine hot path.

Wall-clock timing is banned inside the deterministic core
(``repro.checks``' no-wallclock rule), so the profiler lives here: the
engine binds a :class:`PhaseProfiler` *instance* when profiling is
requested and calls its methods — the timing never influences control
flow, so determinism is untouched.

Two layers:

* :class:`PhaseProfiler` — per-run wall-clock per engine phase
  (fixpoint vs event processing), attached by
  ``Simulator(profile=True)`` / ``apt-sched simulate --profile``;
* a **process-global accumulator** (:func:`record_engine_run` /
  :func:`engine_totals`) fed by every engine run — cheap integer
  counters only (epochs, events, ``select`` calls, completions) — which
  the service ``/stats`` endpoint reports so perf regressions are
  observable in production.  The default service
  executor runs jobs in threads, so the totals are visible to it; the
  opt-in process executor keeps per-process totals (documented
  limitation).
"""

from __future__ import annotations

import threading
import time


class PhaseProfiler:
    """Accumulates wall-clock milliseconds per engine phase."""

    __slots__ = ("phase_ms",)

    def __init__(self) -> None:
        self.phase_ms: dict[str, float] = {}

    def now(self) -> float:
        return time.perf_counter()

    def add(self, phase: str, t0: float, t1: float) -> None:
        self.phase_ms[phase] = self.phase_ms.get(phase, 0.0) + (t1 - t0) * 1000.0

    def snapshot(self) -> dict[str, float]:
        return {k: round(v, 3) for k, v in sorted(self.phase_ms.items())}


_LOCK = threading.Lock()
_TOTALS: dict[str, int] = {"runs": 0}


def record_engine_run(counters: dict[str, object]) -> None:
    """Fold one run's integer counters into the process-global totals."""
    with _LOCK:
        _TOTALS["runs"] += 1
        for key, value in counters.items():
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            _TOTALS[key] = _TOTALS.get(key, 0) + value


def engine_totals() -> dict[str, int]:
    """A snapshot of the process-global engine counters."""
    with _LOCK:
        return dict(_TOTALS)


def reset_engine_totals() -> None:
    """Test hook: clear the process-global accumulator."""
    with _LOCK:
        _TOTALS.clear()
        _TOTALS["runs"] = 0
