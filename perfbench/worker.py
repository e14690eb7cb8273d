"""One benchmark workload in its own process.

Started by ``run.py`` (never by hand in normal use)::

    python perfbench/worker.py <workload> --seed N --seconds S --trace 0|1 [--probe]

Protocol on stdout: the line ``READY <speed> <sampler s>`` once set-up
is done (imports, inputs, and for ``service_mixed`` the server
answering ``/healthz``), where ``speed`` is this core's mean sampled
speed during set-up and ``sampler s`` the sampler's own time in it
(``speed.py``); with ``--probe`` the worker stops there.  Otherwise it runs one untimed
cold pass, then warm passes for ``--seconds``, checks every output and
prints one JSON object as its last line.

Each workload drives the program only through its public entry points
(``repro.experiments.tables``/``figures``, ``Simulator.run_stream``,
``apt-sched serve`` and its HTTP API).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProfile, SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_FILE = HERE / "expected.json"
OUT_DIR = ROOT / ".perfbench_out"

#: seeds map onto a fixed pool of input sets whose outputs are recorded
#: in expected.json (``record_expected.py`` regenerates it)
SEED_POOL = 16
#: paper suites: pool slot 0 is the paper's own seed, whose rendered
#: tables/figures are the committed ``results/*.txt``
PAPER_BASE_SEED = 2017
#: stream scenarios: slot 0 is the seed of the committed BENCH_engine.json
STREAM_BASE_SEED = 42

#: workload → (mean interarrival ms, kernels, preferred engine backend)
STREAMS = {
    "stream_saturated": (300.0, 10_000, "array"),
    "stream_light": (3000.0, 20_000, "object"),
}

#: the α grid the committed Tables 15/16 are rendered at
ALLOCATION_ALPHAS = (1.5, 2.0, 4.0, 8.0, 16.0)

#: per-layer metrics measured by the service client (zero elsewhere)
SERVICE_CLIENT_METRICS = (
    "service.submit_ms", "service.status_ms", "service.result_ms",
    "service.polls_per_job", "service.store_hit_ratio", "service.coalesced",
    "service.rejected",
)

# service_mixed load shape
SERVICE_CLIENTS = 2
SERVICE_POLL_S = 0.002
SERVICE_PAGE_LIMIT = 1
SERVICE_REPEAT_SHARE = 0.5
SERVICE_WARMUP_JOBS = 20
SERVICE_KERNELS = 8
#: submissions per phase of the traced run: a fixed count, so the work
#: counts repeat exactly (only coalescing vs store hits and polls
#: depend on timing)
SERVICE_TRACE_JOBS = 800
#: how long the server may take to answer ``/healthz``
SERVICE_START_TIMEOUT_S = 60.0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def recorded_outputs(workload: str) -> dict[str, dict]:
    """The recorded outputs of ``workload``, by seed-pool slot."""
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))[workload]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stamp(backend: "str | None" = None) -> dict:
    """What selected the program: the engine backend that ran (``None``:
    the default engine), jit state, revision, versions."""
    import numpy

    from repro.core import engine

    try:
        from repro.core._kernels import jit_status

        jit: object = jit_status()
    except ImportError:
        jit = "absent"
    return {
        "backend": backend or engine.resolve_backend(None),
        "jit": jit,
        "rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_rev() -> str:
    """``<short rev>`` or ``<short rev>+dirty``; ``unknown`` outside git."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return f"{rev}+dirty" if dirty else rev


def announce_ready(sampler: SpeedSampler) -> None:
    """Stop the set-up sampler and print the ``READY`` line."""
    sampler.sample()  # a set-up shorter than one period still has a sample
    sampler.stop()
    busy = sum(s[1] for s in sampler.samples)
    print(f"READY {sampler.speed(0.0, time.perf_counter())!r} {busy!r}", flush=True)


def pick_backend(preferred: str) -> str:
    """The preferred backend while the program still offers it, else the
    default engine (so an engine merge is measured without edits)."""
    from repro.core import engine

    offered = getattr(engine, "ENGINE_BACKENDS", ())
    return preferred if preferred in offered else engine.resolve_backend(None)


# ----------------------------------------------------------------------
# paper_sweep
# ----------------------------------------------------------------------
class PaperSweep:
    """Regenerate Tables 8–13, 15, 16 and Figures 5–12 per pass."""

    def __init__(self, seed: int, recorded: bool = True) -> None:
        from repro.experiments import figures, report, runner, tables

        self.figures, self.report, self.runner_mod, self.tables = (
            figures, report, runner, tables,
        )
        self.suite_seed = PAPER_BASE_SEED + seed % SEED_POOL
        self.results_dir = ROOT / "results" if seed % SEED_POOL == 0 else None
        if recorded:
            self.expected = recorded_outputs("paper_sweep")[str(seed % SEED_POOL)]

    def inputs(self) -> dict:
        return {"suite_seed": self.suite_seed}

    def units(self, out: dict[str, str]) -> tuple[int, int]:
        """(kernels, simulations) one pass performs."""
        return self.expected["kernels"], self.expected["simulations"]

    def run_pass(self) -> dict[str, str]:
        tables, figures = self.tables, self.figures
        render_table, render_figure = self.report.render_table, self.report.render_figure
        runner = self.runner_mod.ExperimentRunner(workers=1)
        seed = self.suite_seed
        out: dict[str, str] = {}
        for name in ("table8", "table9", "table10", "table11", "table12", "table13"):
            out[name] = render_table(getattr(tables, name)(runner=runner, seed=seed))
        for name in ("table15", "table16"):
            fn = getattr(tables, name)
            out[name] = "\n\n".join(
                f"α = {alpha}\n{render_table(fn(alpha=alpha, runner=runner, seed=seed))}"
                for alpha in ALLOCATION_ALPHAS
            )
        for name, fn in (
            ("figure6", figures.figure6), ("figure7", figures.figure7),
            ("figure8", figures.figure8_top4), ("figure9", figures.figure9),
            ("figure11", figures.figure11), ("figure12", figures.figure12),
        ):
            out[name] = render_figure(fn(runner=runner, seed=seed))
        for dfg_type in (1, 2):
            out[f"figure10_type{dfg_type}"] = render_figure(
                figures.figure10_apt_vs_met(dfg_type=dfg_type, runner=runner, seed=seed)
            )
        ex = figures.figure5_schedule_example()
        out["figure5"] = (
            "Figure 5 — MET and APT schedule example (paper: 318.093 / 212.093 ms)\n\n"
            f"MET schedule\n{ex.met_trace}\nEnd time: {ex.met_end_time:.3f}\n\n"
            f"APT schedule (α = 8)\n{ex.apt_trace}\nEnd Time: {ex.apt_end_time:.3f}"
        )
        return out

    def check(self, out: dict[str, str]) -> tuple[int, dict[str, str]]:
        """One operation per rendered artifact."""
        want = self.expected["digests"]
        bad = {}
        for name in sorted(set(want) | set(out)):
            text = out.get(name)
            if text is None or digest(text) != want.get(name):
                bad[name] = "rendered output differs from the recorded digest"
            elif self.results_dir is not None and text + "\n" != (
                self.results_dir / f"{name}.txt"
            ).read_text(encoding="utf-8"):
                bad[name] = f"differs from results/{name}.txt"
        figure5 = out.get("figure5", "")
        if "End time: 318.093" not in figure5 or "End Time: 212.093" not in figure5:
            bad["figure5"] = "MET 318.093 / APT 212.093 anchors not reproduced"
        return len(want), bad


# ----------------------------------------------------------------------
# stream_saturated / stream_light
# ----------------------------------------------------------------------
class Stream:
    """One open-system APT stream per pass, bounded memory.

    The end-to-end run walks the seed pool from the seed's slot, one slot
    per pass: stream inputs of different seeds differ in cost by up to
    ~20 %, so a run that averages several of them spreads less from
    seed to seed.  The traced run repeats the seed's slot, so its
    per-pass counts repeat exactly.
    """

    def __init__(self, workload: str, seed: int, trace: bool, recorded: bool = True) -> None:
        from repro.core import simulator
        from repro.data.paper_tables import paper_lookup_table
        from repro.experiments import workloads
        from repro.policies.registry import get_policy

        self.simulator, self.workloads, self.get_policy = simulator, workloads, get_policy
        self.interarrival_ms, self.n_kernels, preferred = STREAMS[workload]
        self.backend = pick_backend(preferred)
        self.slot = seed % SEED_POOL
        self.cycle = not trace
        self.system = workloads.scale_system()
        self.lookup = paper_lookup_table()
        self.expected = recorded_outputs(workload) if recorded else None
        self.profile = trace
        self.last_profile: "dict | None" = None

    def inputs(self) -> dict:
        return {
            "stream_seed": STREAM_BASE_SEED + self.slot,
            "mean_interarrival_ms": self.interarrival_ms,
            "n_kernels": self.n_kernels,
        }

    def units(self, output) -> tuple[int, int]:
        """(kernels, applications) of one pass."""
        stream = output[1].stream
        return stream.n_kernels, stream.n_applications

    def run_pass(self):
        """One stream; returns (pool slot, result)."""
        slot = self.slot
        if self.cycle:
            self.slot = (slot + 1) % SEED_POOL
        source = self.workloads.streaming_scale_source(
            n_kernels=self.n_kernels,
            seed=STREAM_BASE_SEED + slot,
            mean_interarrival_ms=self.interarrival_ms,
        )
        sim = self.simulator.Simulator(
            self.system, self.lookup, backend=self.backend, profile=self.profile
        )
        result = sim.run_stream(source, self.get_policy("apt"), retain_schedule=False)
        self.last_profile = sim.last_profile
        return slot, result

    @staticmethod
    def observed(result) -> dict:
        return {
            "n_applications": result.stream.n_applications,
            "n_kernels": result.stream.n_kernels,
            "makespan": result.metrics.makespan,
            "total_lambda": result.metrics.lambda_stats.total,
            "p95_response_ms": result.service.p95_response_ms,
        }

    def check(self, output) -> tuple[int, dict[str, str]]:
        """One operation per pass: its statistics equal the recorded ones."""
        slot, result = output
        got = self.observed(result)
        bad = [
            f"{key} {got.get(key)!r} != recorded {want!r}"
            for key, want in self.expected[str(slot)].items()
            if got.get(key) != want
        ]
        return 1, ({f"slot {slot}": "; ".join(bad)} if bad else {})


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------
def service_sequence(seed: int, n: int) -> list[int]:
    """Spec index per submission: about half repeat an earlier spec."""
    rng = random.Random(seed)
    seq: list[int] = []
    n_unique = 0
    for _ in range(n):
        if n_unique and rng.random() < SERVICE_REPEAT_SHARE:
            seq.append(rng.randrange(n_unique))
        else:
            seq.append(n_unique)
            n_unique += 1
    return seq


def service_spec(seed: int, index: int, warmup: bool = False) -> dict:
    """A small pipeline scenario (the shape of the service load test)."""
    from repro.core.system import CPU_GPU_FPGA
    from repro.experiments.scenarios import ScenarioSpec, WorkloadSpec
    from repro.experiments.sweep import PolicySpec, system_to_dict

    base = (1 << 30) if warmup else (seed % 1000) * 1_000_003
    return ScenarioSpec(
        name=f"{'warm' if warmup else 'load'}_{index:05d}",
        description="benchmark pipeline unit",
        system=system_to_dict(CPU_GPU_FPGA()),
        workload=WorkloadSpec.of(
            "pipeline", n_kernels=SERVICE_KERNELS, stage_width=2, seed=base + index
        ),
        policies=(PolicySpec.of("apt", alpha=4.0), PolicySpec.of("met")),
    ).to_dict()


def pin_service_cpu() -> None:
    """Pin this process to the one CPU the server and the client share.
    On a small VM, waking a process on the other CPU costs an
    inter-processor interrupt whose price moves with the host's load;
    split across CPUs, service latencies spread two to three times wider
    run to run.  Where pinning is not permitted the processes float."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass


class ServerProcess:
    """``apt-sched serve`` (inline executor, in-memory store) in its own
    process, launched through ``serve.py``."""

    def __init__(self, trace_out: "Path | None", speed_out: "Path | None") -> None:
        cmd = [sys.executable, str(HERE / "serve.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        if speed_out is not None:
            cmd += ["--speed-out", str(speed_out)]
        OUT_DIR.mkdir(exist_ok=True)
        self.log = (OUT_DIR / "server_stderr.txt").open("w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log,
            stdin=subprocess.DEVNULL, text=True, cwd=ROOT,
            preexec_fn=pin_service_cpu,
        )
        line = self.proc.stdout.readline()  # "serving on http://host:port"
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start (see {self.log.name}): {line!r}")
        address = line.split()[-1].removeprefix("http://")
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    async def wait_healthy(self) -> None:
        from repro.service.client import AsyncServiceClient

        client = AsyncServiceClient(self.host, self.port)
        deadline = time.perf_counter() + SERVICE_START_TIMEOUT_S
        while True:
            try:
                status, _ = await client.health()
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never answered /healthz")
            await asyncio.sleep(0.005)

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait; kill as a last resort."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Service:
    """Closed loop of 2 clients against one ``apt-sched serve`` process."""

    def __init__(self, seed: int) -> None:
        from repro.data.paper_tables import paper_lookup_table
        from repro.service.client import AsyncServiceClient

        self.seed = seed
        self.client_cls = AsyncServiceClient
        self.lookup = paper_lookup_table()
        self.server: "ServerProcess | None" = None
        self.loop = asyncio.new_event_loop()
        self._specs: dict[tuple[bool, int], dict] = {}
        self.window_cpu_s = 0.0

    def spec(self, index: int, warmup: bool = False) -> dict:
        key = (warmup, index)
        if key not in self._specs:
            self._specs[key] = service_spec(self.seed, index, warmup)
        return self._specs[key]

    def inputs(self) -> dict:
        return {
            "first_specs": service_sequence(self.seed, 12),
            "first_spec_seed": self.spec(0)["workload"]["params"]["seed"],
        }

    def start(self, trace_out: "Path | None" = None, speed_out: "Path | None" = None) -> None:
        self.server = ServerProcess(trace_out, speed_out)
        self.loop.run_until_complete(self.server.wait_healthy())

    def stop(self) -> float:
        """Stop the server; returns the peak RSS (MB) of the largest
        server process this worker has waited for."""
        if self.server is not None:
            self.server.stop()
            self.server = None
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def close(self) -> None:
        self.stop()
        self.loop.close()

    # -- one submission ----------------------------------------------------
    async def _one(self, client, spec: dict, record: dict) -> None:
        """Submit, poll to a terminal state, fetch every result page."""
        record["start"] = t0 = time.perf_counter()
        status, body = await client.submit(spec=spec, client=record["client"])
        record["submit_ms"] = (time.perf_counter() - t0) * 1e3
        if status != 202:
            record["error"] = f"submit returned {status}"
            return
        job_id = body["job"]["id"]
        record["polls"] = polls = []
        while True:
            t = time.perf_counter()
            status, body = await client.status(job_id)
            polls.append((time.perf_counter() - t) * 1e3)
            if status != 200:
                record["error"] = f"status returned {status}"
                return
            job = record["job"] = body["job"]
            if job["state"] in ("done", "failed", "cancelled"):
                break
            await asyncio.sleep(SERVICE_POLL_S)
        if job["state"] != "done":
            record["error"] = f"job ended {job['state']}"
            return
        record["pages"] = pages = []
        rows: list = []
        offset: "int | None" = 0
        while offset is not None:
            t = time.perf_counter()
            status, page = await client.result(job_id, offset=offset, limit=SERVICE_PAGE_LIMIT)
            pages.append((time.perf_counter() - t) * 1e3)
            if status != 200:
                record["error"] = f"result returned {status}"
                return
            rows.extend(page["rows"])
            offset = page["next_offset"]
        record["rows"] = rows
        record["latency_ms"] = (time.perf_counter() - t0) * 1e3

    async def _drive(self, seq: list[int], deadline: "float | None", warmup: bool) -> list[dict]:
        client = self.client_cls(self.server.host, self.server.port)
        records: list[dict] = []
        cursor = iter(range(len(seq)))  # shared: each client takes the next item

        async def run_client(name: str) -> None:
            for i in cursor:
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                record = {"i": i, "spec": seq[i], "client": name, "warmup": warmup}
                records.append(record)
                try:
                    await self._one(client, self.spec(seq[i], warmup), record)
                except (OSError, ValueError, KeyError) as exc:
                    record["error"] = f"{type(exc).__name__}: {exc}"
                record["end"] = time.perf_counter()

        await asyncio.gather(*(run_client(f"c{k}") for k in range(SERVICE_CLIENTS)))
        return records

    def warmup(self) -> list[dict]:
        """The cold pass: distinct specs outside the measured sequence."""
        seq = list(range(SERVICE_WARMUP_JOBS))
        return self.loop.run_until_complete(self._drive(seq, None, warmup=True))

    def closed_loop(self, seconds: float, n_jobs: "int | None" = None) -> tuple[list[dict], float, float]:
        """The measured sequence for ``seconds`` (or exactly ``n_jobs``);
        returns the records and the window's start and end.  The client's
        CPU time in the window is left in ``window_cpu_s``."""
        seq = service_sequence(self.seed, n_jobs if n_jobs is not None else 100_000)
        t0 = time.perf_counter()
        cpu0 = time.process_time()
        deadline = None if n_jobs is not None else t0 + seconds
        records = self.loop.run_until_complete(self._drive(seq, deadline, warmup=False))
        self.window_cpu_s = time.process_time() - cpu0
        return records, t0, max((r["end"] for r in records), default=t0)

    def stats(self) -> dict:
        client = self.client_cls(self.server.host, self.server.port)
        status, body = self.loop.run_until_complete(client.stats())
        if status != 200:
            raise RuntimeError(f"/stats returned {status}")
        return body

    def check(self, records: list[dict]) -> tuple[int, dict[str, str]]:
        """One operation per submission of one server — it failed, was
        refused, was not ``done``, or its rows differ from a local
        in-process run of its spec — plus one for the server-wide
        exact-dedup invariant (one simulation per distinct payload)."""
        from repro.experiments.scenarios import ScenarioSpec
        from repro.experiments.sweep import execute_payload

        bad = {f"submission {r['i']}": r["error"] for r in records if "error" in r}
        by_spec: dict[tuple[bool, int], list[dict]] = {}
        for r in records:
            if "rows" in r:
                by_spec.setdefault((r["warmup"], r["spec"]), []).append(r)
        for (warmup, index), done in sorted(by_spec.items()):
            jobs = ScenarioSpec.from_dict(self.spec(index, warmup)).jobs(self.lookup)
            want = [json.loads(json.dumps(execute_payload(j.runnable_payload()))) for j in jobs]
            for r in done:
                if r["rows"] != want:
                    bad[f"submission {r['i']}"] = "rows differ from a local run of its spec"
        simulated = sum(int(r["job"].get("simulated", 0)) for r in records if "job" in r)
        payloads = sum(len(done[0]["rows"]) for done in by_spec.values())
        if simulated != payloads:
            bad["dedup"] = f"{simulated} simulations for {payloads} distinct payloads"
        return len(records) + 1, bad


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)
    return ordered[max(1, int(rank)) - 1]


def spread(values: list[float]) -> float:
    """How far apart the passes of one run land: (max − min) / median."""
    return (max(values) - min(values)) / median(values) if len(values) > 1 else 0.0


def timed_passes(run_pass, seconds: float, min_passes: int = 3, sampler=None):
    """Warm passes until the next one would overrun ``seconds`` (at
    least ``min_passes``, so the median drops one disturbed pass).  Each
    pass starts from a collected heap.  Returns the outputs, the wall
    seconds and — with a :class:`~speed.SpeedSampler` — the nominal
    seconds of each pass."""
    outputs, walls, nominal = [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        outputs.append(run_pass())
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        nominal.append(sampler.nominal(t0, t1) if sampler is not None else t1 - t0)
        if len(walls) >= min_passes and t1 - start + median(walls) > seconds:
            return outputs, walls, nominal


class Checks:
    """Running tally of checked operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: dict[str, str]) -> None:
        """``failed`` maps each failed operation to what went wrong."""
        self.attempted += attempted
        self.problems.extend(f"{op}: {why}" for op, why in failed.items())

    def report(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.problems),
            "problems": self.problems[:20],
        }


def run_passes(args, setup: SpeedSampler) -> int:
    """paper_sweep and the streams: cold pass, then warm passes."""
    trace = bool(args.trace)
    wl = PaperSweep(args.seed) if args.workload == "paper_sweep" else Stream(
        args.workload, args.seed, trace
    )
    announce_ready(setup)
    if args.probe:
        return 0
    checks = Checks()
    # timings of the end-to-end run are in nominal seconds (speed.py);
    # the traced run reports wall-clock spans and runs no sampler
    sampler = None if trace else SpeedSampler().start()
    t0 = time.perf_counter()
    cold = wl.run_pass()
    t1 = time.perf_counter()
    cold_s = t1 - t0 if sampler is None else sampler.nominal(t0, t1)
    checks.add(*wl.check(cold))
    report: dict = {"cold_s": cold_s, "inputs": wl.inputs()}

    if not trace:
        start = time.perf_counter()
        outputs, walls, nominal = timed_passes(wl.run_pass, args.seconds, sampler=sampler)
        sampler.stop()
        kernels, jobs = (sum(col) for col in zip(*map(wl.units, outputs)))
        pass_ms = [w * 1e3 for w in nominal]
        report["end_to_end"] = {
            "kernels_per_s": kernels / sum(nominal),
            "jobs_per_s": jobs / sum(nominal),
            "latency_p50_ms": median(pass_ms),
            "latency_p95_ms": percentile(pass_ms, 95),
            "peak_rss_mb": peak_rss_mb(),
        }
        report["nominal_pass_s"] = nominal
        report["speed"] = sampler.speed(start, time.perf_counter())
    else:
        from spans import Tracer

        # untraced warm passes first: the baseline of the tracing overhead
        outputs, walls, _ = timed_passes(wl.run_pass, args.seconds / 3, min_passes=1)
        tracer = Tracer().install()
        rows, traced = [], []
        start = time.perf_counter()
        try:
            while not traced or \
                    time.perf_counter() - start + median(traced) <= args.seconds * 2 / 3:
                mark = tracer.mark()
                t = time.perf_counter()
                outputs.append(wl.run_pass())
                traced.append(time.perf_counter() - t)
                row = tracer.window(mark).layer_metrics()
                phases = (getattr(wl, "last_profile", None) or {}).get("phase_ms", {})
                row["engine.fixpoint_ms"] = float(phases.get("fixpoint", 0.0))
                row["engine.events_ms"] = float(phases.get("events", 0.0))
                rows.append(row)
        finally:
            tracer.uninstall()
        layers = {key: median([row[key] for row in rows]) for key in rows[0]}
        layers["trace.overhead_ms"] = (median(traced) - median(walls)) * 1e3
        layers["trace.overhead_ratio"] = median(traced) / median(walls) - 1.0
        layers.update(dict.fromkeys(SERVICE_CLIENT_METRICS, 0.0))
        report.update({
            "per_layer": layers, "traced_s": traced,
            "missing_targets": tracer.missing,
        })
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans_{args.workload}_s{args.seed}.jsonl")

    for output in outputs:
        checks.add(*wl.check(output))
    report.update(checks.report())
    report.update({
        "pass_s": walls, "pass_spread": spread(walls),
        "stamp": stamp(getattr(wl, "backend", None)),
    })
    print(json.dumps(report), flush=True)
    return 0


def run_service(args, setup: SpeedSampler) -> int:
    pin_service_cpu()
    trace = bool(args.trace)
    wl = Service(args.seed)
    checks = Checks()
    speed_file = OUT_DIR / f"speed_server_s{args.seed}.json"
    speed_file.unlink(missing_ok=True)
    try:
        wl.start(speed_out=None if trace else speed_file)
        announce_ready(setup)
        if args.probe:
            return 0
        sampler = None if trace else SpeedSampler().start()
        t0 = time.perf_counter()
        warm = wl.warmup()
        cold = (t0, time.perf_counter())
        report: dict = {"inputs": wl.inputs()}
        if not trace:
            records, start, end = wl.closed_loop(args.seconds)
            # the load generator shares the server's CPU: its own CPU
            # time (without the sampler's) is part of every latency
            client_cpu_s = wl.window_cpu_s - sum(s[1] for s in sampler.window(start, end))
            sampler.stop()
            rss = wl.stop()
            checks.add(*wl.check(warm + records))
            # client and server each sampled the core they share: scale
            # each submission by their speed while it ran
            server_samples = json.loads(speed_file.read_text(encoding="utf-8"))
            profile = SpeedProfile([sampler.samples, server_samples])
            done = [r for r in records if "latency_ms" in r]
            latencies = [r["latency_ms"] * profile.at(r["start"]) for r in done]
            kernels = sum(row["n_kernels"] for r in done for row in r["rows"])
            window = profile.nominal(start, end)
            report["end_to_end"] = {
                "kernels_per_s": kernels / window,
                "jobs_per_s": len(done) / window,
                "latency_p50_ms": median(latencies),
                "latency_p95_ms": percentile(latencies, 95),
                "peak_rss_mb": rss,
            }
            report.update({
                "cold_s": profile.nominal(*cold), "samples": len(latencies),
                "raw_latency_p50_ms": median([r["latency_ms"] for r in done]),
                "client_cpu_s": client_cpu_s,
                "client_cpu_share": client_cpu_s / (end - start),
                "speed": profile.nominal(start, end) / (end - start),
                "speed_client_server": [
                    SpeedProfile([samples]).nominal(start, end) / (end - start)
                    for samples in (sampler.samples, server_samples)
                ],
            })
        else:
            # the sequence's first jobs untraced, then the same jobs on a
            # fresh traced server
            report["cold_s"] = cold[1] - cold[0]
            base, start, end = wl.closed_loop(0.0, n_jobs=SERVICE_TRACE_JOBS)
            base_window = end - start
            wl.stop()
            checks.add(*wl.check(warm + base))
            OUT_DIR.mkdir(exist_ok=True)
            trace_file = OUT_DIR / f"server_s{args.seed}.json"
            wl.start(trace_out=trace_file)
            warm = wl.warmup()
            records, start, end = wl.closed_loop(0.0, n_jobs=SERVICE_TRACE_JOBS)
            stats = wl.stats()
            wl.stop()
            checks.add(*wl.check(warm + records))
            server = json.loads(trace_file.read_text(encoding="utf-8"))
            done = [r for r in records if "latency_ms" in r]
            polls = [len(r["polls"]) for r in done]
            payloads = sum(len(r["rows"]) for r in done)
            hits = sum(int(r["job"].get("store_hits", 0)) for r in done)
            layers = dict(server["per_job"])
            layers.update({
                "service.submit_ms": median([r["submit_ms"] for r in records if "submit_ms" in r]),
                "service.status_ms": median([p for r in done for p in r["polls"]]),
                "service.result_ms": median([p for r in done for p in r["pages"]]),
                "service.polls_per_job": sum(polls) / len(polls) if polls else 0.0,
                "service.store_hit_ratio": hits / payloads if payloads else 0.0,
                "service.coalesced": stats["jobs"]["coalesced"],
                "service.rejected": stats["jobs"]["rejected"],
                "engine.fixpoint_ms": 0.0,
                "engine.events_ms": 0.0,
                "trace.overhead_ms": (end - start - base_window) * 1e3 / max(1, len(records)),
                "trace.overhead_ratio": (end - start) / base_window - 1.0,
            })
            report.update({"per_layer": layers, "missing_targets": server["missing"]})
        seen: set[int] = set()
        repeats = 0
        for r in sorted(records, key=lambda r: r["i"]):
            repeats += r["spec"] in seen
            seen.add(r["spec"])
        report.update(checks.report())
        report.update({
            "repeat_share": repeats / len(records) if records else 0.0,
            "poll_interval_s": SERVICE_POLL_S, "clients": SERVICE_CLIENTS,
            "stamp": stamp(),
        })
    finally:
        wl.close()
    print(json.dumps(report), flush=True)
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("paper_sweep", "service_mixed", *STREAMS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up (one set-up time sample)")
    args = parser.parse_args(argv)
    setup = SpeedSampler().start()
    if args.workload == "service_mixed":
        return run_service(args, setup)
    return run_passes(args, setup)


if __name__ == "__main__":
    sys.exit(main())
