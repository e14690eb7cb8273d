#!/usr/bin/env python3
"""The repository benchmark: one workload per run.

    python3 perfbench/run.py --workload paper_sweep --seed 0 --seconds 15 --trace 0

Run from the repository root.  Workloads (``BENCHMARK.json`` says why
each was chosen):

* ``paper_sweep``      — regenerate Tables 8–13, 15, 16 and Figures 5–12;
* ``stream_saturated`` — 10k-kernel APT stream far above capacity (array backend);
* ``stream_light``     — 20k-kernel APT stream at a sustainable rate (object backend);
* ``service_mixed``    — ``apt-sched serve`` under a closed loop of 2 clients.

Each workload runs in its own process (``worker.py``), so its peak RSS
is its own; the environment that selects the program is pinned there
(``REPRO_BACKEND`` cleared, ``REPRO_JIT=off``).  Set-up is sampled
``SETUP_SAMPLES`` times — the main worker plus probe workers that stop
once ready — and ``setup_s`` is the median of those samples plus the
main worker's untimed cold pass.

End-to-end timings, ``setup_s`` included, are in *nominal seconds*: the
host this was built on drifts in speed by tens of percent over tens of
seconds, so every process of a workload samples its own core with a
fixed calibration (``speed.py``) and each timed interval is scaled to a
core of nominal speed.  A worker's ``READY`` line carries its core's
speed and the sampler's own time during set-up, which scale its
spawn → ``READY`` interval.  Wall seconds and the sampled speed are in
the details.
For the pass workloads (sweep, streams) one operation is one pass;
``latency_*`` are percentiles over passes, ``kernels_per_s`` and
``jobs_per_s`` are totals over the timed passes divided by their time,
and a job is a sweep simulation or a stream application.  For the
service, one operation is one submission (submit → last result page).
``failed / attempted`` is the failure ratio (also printed as
``failed_ratio``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced variant and prints the per-layer metrics.  Human-readable
details (stamp, per-pass times, sample counts, failures) go on the line
before the result; the last stdout line is the result object.  A failed
correctness check shows as ``correct: false`` and a non-zero ``failed``;
a traced run whose tracer could not wrap one of its targets (a renamed
function) is ``correct: false`` too, since that layer would read as free.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper_sweep", "stream_saturated", "stream_light", "service_mixed")
SETUP_SAMPLES = 3
#: a run must end within 180 s; leave room to stop and report
DEADLINE_S = 170.0


def worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env["REPRO_JIT"] = "off"
    env["PYTHONHASHSEED"] = "0"
    # git (the revision stamp) must not look above the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(root.parent)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """One worker process; ``ready_s`` is spawn → ``READY`` in nominal
    seconds, ``ready_wall_s`` the same in wall seconds."""

    def __init__(self, root: Path, args: argparse.Namespace, probe: bool) -> None:
        cmd = [
            sys.executable, str(HERE / "worker.py"), args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if probe:
            cmd.append("--probe")
        t0 = time.perf_counter()
        # own process group: a worker past the deadline is killed with
        # everything it started (the service workload's server)
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=worker_env(root), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        line = self.proc.stdout.readline()
        self.ready_wall_s = time.perf_counter() - t0
        fields = line.split()
        if len(fields) != 3 or fields[0] != "READY":
            self.finish(timeout=30)
            raise RuntimeError(f"{args.workload} worker failed during set-up")
        speed, busy = float(fields[1]), float(fields[2])
        self.ready_s = (self.ready_wall_s - busy) * speed

    def finish(self, timeout: float) -> str:
        """Wait for the worker to exit; its remaining stdout."""
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.communicate()
            raise RuntimeError("worker exceeded the run deadline") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out


def build_result(
    spec: dict, report: dict, setup: list[float], args: argparse.Namespace
) -> tuple[dict, dict]:
    """(details line, result object) from a worker report.

    ``setup_s`` is the median ready time plus the cold pass.  Every
    metric ``BENCHMARK.json`` names for this mode is reported with its
    unit; one the worker did not produce, or a tracer target it could
    not wrap, makes the run incorrect.
    """
    metrics = dict(report.get("per_layer" if args.trace else "end_to_end") or {})
    metrics["setup_s"] = statistics.median(setup) + report["cold_s"]
    names = spec["per_layer" if args.trace else "end_to_end"]
    result_metrics = {
        e["name"]: {"value": float(metrics[e["name"]]), "unit": e["unit"]}
        for e in names if e["name"] in metrics
    }
    missing = [e["name"] for e in names if e["name"] not in result_metrics]
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_ready_s": setup,
        "failed_ratio": report["failed"] / max(1, report["attempted"]),
        **{k: v for k, v in report.items() if k not in ("end_to_end", "per_layer")},
    }
    if missing:
        details["unreported_metrics"] = missing
    result = {
        "correct": report["failed"] == 0 and not missing
        and not report.get("missing_targets"),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": result_metrics,
    }
    return details, result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("run from the repository root: src/repro is missing", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    start = time.perf_counter()

    workers = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = Worker(root, args, probe=True)
        probe.finish(timeout=60)
        workers.append(probe)
    main_worker = Worker(root, args, probe=False)
    workers.append(main_worker)
    out = main_worker.finish(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - start)))
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_ready_wall_s"] = [w.ready_wall_s for w in workers]
    setup = [w.ready_s for w in workers]

    details, result = build_result(spec, report, setup, args)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
