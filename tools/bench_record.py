#!/usr/bin/env python3
"""Record an engine-backend benchmark entry in ``BENCH_engine.json``.

``BENCH_engine.json`` is the committed benchmark trajectory of the
engine hot paths: every entry pins the git revision it was measured at,
the scenario, the wall-clock of each engine and the speedups.  The
trajectory documents how the hot paths evolved; CI's smoke benchmark
(``benchmarks/test_bench_simulator_scale.py``) reads the last comparable
entry for its scenario and fails when a measured speedup regresses more
than 40 % below it.

Usage::

    python tools/bench_record.py                  # smoke scenario (1.2k)
    python tools/bench_record.py --kernels 10000  # the saturated 10k entry
    python tools/bench_record.py --dry-run        # measure, don't append
    python tools/bench_record.py --scenario streaming_scale_1m \\
        --no-baseline                             # lazy 1M stream, array only

A revision is stamped ``<short-rev>+dirty`` when the worktree has
uncommitted changes, so an entry recorded *before* its commit is
identifiable as such (the first three trajectory entries predate this
and carry the seed revision).

Both backends are measured against the unchanged pre-refactor loop,
:class:`~repro.core.reference.ReferenceSimulator`, on the same scenario
(its merged closed form).  The three engines run interleaved — one run
of each per round — and each keeps its best round, so a slow spell on a
shared machine hits all three alike.  ``speedup_vs_reference`` is the
array backend's ratio, ``object_speedup_vs_reference`` the object
backend's, and ``speedup_vs_object`` their quotient.

``--no-baseline`` skips the object and reference runs — at 100k kernels
they take hours, so big entries record the array wall-clock (plus its
profile counters) and leave the speedups to the smaller entries.
Wall-clock numbers are machine-dependent; the *speedup* columns are the
portable quantity — every engine runs the identical simulation on the
identical machine, so their ratios track algorithmic regressions, not
hardware.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
from datetime import date
from pathlib import Path

_ROOT = Path(__file__).parent.parent
_SRC = str(_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

BENCH_FILE = _ROOT / "BENCH_engine.json"

#: the streaming saturation scenario all trajectory entries share:
#: Poisson application stream on the 12-processor scale system, APT,
#: mean interarrival far below the service capacity so the ready set
#: grows into the regime the array backend is built for.
SCENARIO_DEFAULTS = {"mean_interarrival_ms": 300.0, "seed": 42, "policy": "apt"}

#: profile counters worth committing alongside big entries — the
#: bounded-memory evidence (rows recycled vs table high-water mark).
_PROFILE_KEYS = (
    "n_epochs",
    "events_per_epoch",
    "kernel_table_rows",
    "rows_released",
)


def git_rev() -> str:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        porcelain = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.splitlines()
        # the trajectory file itself doesn't count: appending entry N
        # must not stamp entry N+1 of the same batch as dirty
        dirty = [
            line for line in porcelain
            if line[3:].strip() != BENCH_FILE.name
        ]
        return f"{rev}+dirty" if dirty else rev
    except (subprocess.CalledProcessError, OSError):
        return "unknown"


def measure(
    n_kernels: int,
    repeats: int,
    jit: "str | bool | None" = None,
    mean_interarrival_ms: float | None = None,
    engines: "tuple[str, ...]" = ("reference", "array", "object"),
) -> "tuple[dict[str, float], dict | None]":
    """Best-of-``repeats`` wall-clock (ms) per engine, measured interleaved.

    Each round runs every engine in ``engines`` once, in order, so a
    slow spell on a shared machine lands on all of them.  Returns the
    best times keyed by engine and the best array run's profile counters.
    """
    from repro.core.reference import ReferenceSimulator
    from repro.core.simulator import Simulator
    from repro.data.paper_tables import paper_lookup_table
    from repro.experiments.workloads import (
        scale_system,
        streaming_scale_source,
        streaming_scale_workload,
    )
    from repro.policies.registry import get_policy

    params = {
        "n_kernels": n_kernels,
        "seed": SCENARIO_DEFAULTS["seed"],
        "mean_interarrival_ms": (
            mean_interarrival_ms or SCENARIO_DEFAULTS["mean_interarrival_ms"]
        ),
    }
    # the backends run the lazy source, which replays streaming_scale_stream
    # bit-for-bit but never holds the whole stream (a 1M-kernel run stays
    # bounded); the reference predates streaming and runs the merged form
    source = streaming_scale_source(**params)
    merged = streaming_scale_workload(**params) if "reference" in engines else None
    system, lookup = scale_system(), paper_lookup_table()
    best = {name: float("inf") for name in engines}
    profile: "dict | None" = None
    for _ in range(repeats):
        for name in engines:
            gc.collect()  # no run pays for the previous one's garbage
            policy = get_policy(SCENARIO_DEFAULTS["policy"])
            if name == "reference":
                dfg, arrivals = merged  # type: ignore[misc]
                t0 = time.perf_counter()
                ReferenceSimulator(system, lookup).run(dfg, policy, arrivals=arrivals)
            else:
                sim = Simulator(
                    system, lookup, backend=name, jit=jit if name == "array" else None
                )
                t0 = time.perf_counter()
                sim.run_stream(source, policy, retain_schedule=False)
            ms = (time.perf_counter() - t0) * 1000.0
            if name == "array" and ms < best[name]:
                profile = sim.last_profile
            best[name] = min(best[name], ms)
    return best, profile


def load_entries() -> list[dict]:
    if not BENCH_FILE.exists():
        return []
    return json.loads(BENCH_FILE.read_text(encoding="utf-8"))["entries"]


def last_entry_for(
    scenario: str, jit: "bool | None" = None, key: str = "speedup_vs_reference"
) -> dict | None:
    """The most recent *comparable* committed entry for ``scenario``.

    Comparable means it carries the measured speedup ``key``
    (``--no-baseline`` entries document wall-clock only; entries before
    the reference runs carry ``speedup_vs_object`` only) and, when
    ``jit`` is given, was measured with the same jit state (entries
    predating the jit field count as jit-off).
    """
    matching = [
        e
        for e in load_entries()
        if e["scenario"] == scenario
        and key in e
        and (jit is None or bool(e.get("jit", False)) == jit)
    ]
    return matching[-1] if matching else None


def append_entry(entry: dict) -> None:
    entries = load_entries()
    entries.append(entry)
    BENCH_FILE.write_text(
        json.dumps({"format": 1, "entries": entries}, indent=2) + "\n",
        encoding="utf-8",
    )


def scenario_name(
    n_kernels: int, mean_interarrival_ms: float | None = None
) -> str:
    ia = mean_interarrival_ms or SCENARIO_DEFAULTS["mean_interarrival_ms"]
    return f"streaming_scale/apt/ia{int(ia)}/n{n_kernels}"


def main(argv: list[str] | None = None) -> int:
    from repro.core._kernels import resolve_jit
    from repro.experiments.workloads import STREAM_SCENARIOS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernels", type=int, default=1_200)
    parser.add_argument(
        "--scenario",
        choices=sorted(STREAM_SCENARIOS),
        default=None,
        help="a registered stream scenario (overrides --kernels)",
    )
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--jit",
        default=None,
        choices=("auto", "on", "off"),
        help="array-backend jit kernels (default: $REPRO_JIT or 'auto')",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the object and reference runs (big scenarios; no speedups)",
    )
    parser.add_argument(
        "--dry-run", action="store_true", help="measure and print, don't append"
    )
    args = parser.parse_args(argv)

    n_kernels = args.kernels
    interarrival: float | None = None
    if args.scenario is not None:
        params = STREAM_SCENARIOS[args.scenario]
        n_kernels = int(params["n_kernels"])
        interarrival = float(params["mean_interarrival_ms"])
    name = scenario_name(n_kernels, interarrival)
    jit_active = resolve_jit(args.jit)
    engines = ("array",) if args.no_baseline else ("reference", "array", "object")
    best, profile = measure(
        n_kernels, args.repeats, jit=args.jit,
        mean_interarrival_ms=interarrival, engines=engines,
    )
    entry = {
        "git_rev": git_rev(),
        "date": date.today().isoformat(),
        "scenario": name,
        "kernels": n_kernels,
        "jit": jit_active,
        "backend_wall_ms": round(best["array"], 1),
    }
    if args.no_baseline:
        entry["baseline"] = "none"
    else:
        entry["baseline_wall_ms"] = round(best["object"], 1)
        entry["reference_wall_ms"] = round(best["reference"], 1)
        entry["speedup_vs_object"] = round(best["object"] / best["array"], 2)
        entry["speedup_vs_reference"] = round(best["reference"] / best["array"], 2)
        entry["object_speedup_vs_reference"] = round(
            best["reference"] / best["object"], 2
        )
    if profile:
        entry["profile"] = {
            k: profile[k] for k in _PROFILE_KEYS if k in profile
        }
    print(json.dumps(entry, indent=2))
    if not args.dry_run:
        append_entry(entry)
        print(f"appended to {BENCH_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
