"""Scale benchmark: incremental vs reference simulator inner loop.

Scenario: the 10k-kernel streaming workload of
:func:`repro.experiments.workloads.streaming_scale_workload` on the
12-processor :func:`~repro.experiments.workloads.scale_system` — far
beyond the paper's 46–157-kernel graphs on 3 processors.  Both engines
must produce bit-for-bit identical schedules; the incremental hot path
(`repro.core.simulator`) must beat the pre-refactor loop
(`repro.core.reference`) by ≥ 3× at full scale.

Two modes:

* **smoke** (default, CI): a 1 200-kernel grid.  Fast enough for every
  CI run; asserts schedule equality and that the incremental loop is not
  slower than the reference — a gross hot-path regression fails CI.
* **full** (``REPRO_SCALE_FULL=1``): the 10 000-kernel acceptance
  scenario with the ≥ 3× wall-clock assertion.

Both modes record wall-clock numbers, so the artifact goes to the
*untracked* ``results/local/`` directory (``simulator_scale.txt`` in
full mode, ``simulator_scale_smoke.txt`` in smoke mode) — committed
``results/`` files carry deterministic model quantities only.

``test_bench_array_backend`` gates both engine backends against the
unchanged reference loop on the saturated APT stream: the three engines
run interleaved, and each backend's speedup over the reference may not
fall more than 40 % below the last committed ``BENCH_engine.json``
entry for the scenario (smoke: 1 200 kernels; full: 10 000).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from benchmarks.conftest import write_artifact
from repro.core.reference import ReferenceSimulator
from repro.core.simulator import Simulator
from repro.data.paper_tables import paper_lookup_table
from repro.experiments.workloads import scale_system, streaming_scale_workload
from repro.policies.registry import get_policy

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))
import bench_record  # noqa: E402  (repo tools/, added to path above)


FULL = os.environ.get("REPRO_SCALE_FULL", "") == "1"
N_KERNELS = 10_000 if FULL else 1_200
#: wall-clock gates per policy: full scale must show the 3× win; the smoke
#: grid only guards against the incremental loop regressing below the
#: naive one (small scale has less rebuild work to save, and CI runners
#: are noisy).
GATES = {"apt": 3.0 if FULL else 1.0, "met": 3.0 if FULL else 0.8}
ARTIFACT = "simulator_scale.txt" if FULL else "simulator_scale_smoke.txt"
REPEATS = 2


def _best_of(sim, dfg, policy_name, arrivals) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = sim.run(dfg, get_policy(policy_name), arrivals=arrivals)
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_bench_simulator_scale(local_results_dir):
    dfg, arrivals = streaming_scale_workload(n_kernels=N_KERNELS)
    system = scale_system()
    lookup = paper_lookup_table()

    lines = [
        "Simulator scale benchmark — incremental vs reference inner loop",
        f"mode: {'full' if FULL else 'smoke'}   "
        f"workload: {dfg.name} ({len(dfg)} kernels, {dfg.n_edges} edges)   "
        f"system: {len(system)} processors",
        "",
        f"{'policy':<8} {'incremental s':>14} {'reference s':>12} {'speedup':>8}",
    ]
    speedups: dict[str, float] = {}
    for policy_name in ("apt", "met", "ag"):
        t_new, r_new = _best_of(
            Simulator(system, lookup), dfg, policy_name, arrivals
        )
        t_old, r_old = _best_of(
            ReferenceSimulator(system, lookup), dfg, policy_name, arrivals
        )
        assert list(r_new.schedule) == list(r_old.schedule), (
            f"{policy_name}: schedule divergence between engines"
        )
        speedups[policy_name] = t_old / t_new
        lines.append(
            f"{policy_name:<8} {t_new:>14.3f} {t_old:>12.3f} "
            f"{speedups[policy_name]:>7.2f}x"
        )

    lines += [
        "",
        "Engines are asserted bit-for-bit identical on every run above.",
        f"Gates: {', '.join(f'{p} >= {g}x' for p, g in GATES.items())}",
    ]
    write_artifact(local_results_dir, ARTIFACT, "\n".join(lines))

    for policy_name, gate in GATES.items():
        assert speedups[policy_name] >= gate, (
            f"{policy_name}: speedup {speedups[policy_name]:.2f}x below the "
            f"{gate}x gate (see results/local/{ARTIFACT})"
        )


#: full mode runs the saturated 10k scenario; smoke the CI-sized grid.
BACKEND_N_KERNELS = 10_000 if FULL else 1_200
#: Each backend's speedup over ReferenceSimulator (the unchanged
#: pre-refactor loop, same scenario, measured interleaved with both
#: backends) may not regress more than 40 % below the last committed
#: BENCH_engine.json entry.  Speedup (not wall-ms) is compared so the
#: gate is portable across machines — all engines run on the same box.
#: The margin is wide because the ratio pairs a ~3 s run with a ~0.1 s
#: one: on a 2-vCPU VM whose speed drifts, best-of-5 ratios of one tree
#: spread over 22–28× (array) and 18.5–24.5× (object).
BACKEND_REGRESSION_FRACTION = 0.60
#: committed-entry key per measured backend
BACKEND_SPEEDUP_KEYS = {
    "array": "speedup_vs_reference",
    "object": "object_speedup_vs_reference",
}


def test_bench_array_backend(local_results_dir):
    from repro.core._kernels import resolve_jit

    scenario = bench_record.scenario_name(BACKEND_N_KERNELS)
    # gate against the newest entry measured with the same jit state;
    # a jit leg with no jit entry yet falls back to the fallback-path
    # trajectory (jit is never slower, so the floor stays conservative).
    jit_active = resolve_jit(None)
    committed = bench_record.last_entry_for(
        scenario, jit=jit_active
    ) or bench_record.last_entry_for(scenario)
    best, _ = bench_record.measure(BACKEND_N_KERNELS, REPEATS)
    speedups = {
        backend: best["reference"] / best[backend] for backend in BACKEND_SPEEDUP_KEYS
    }

    lines = [
        "Engine-backend benchmark — both backends vs the reference loop",
        f"scenario: {scenario}   jit: {'on' if jit_active else 'off'}",
        *(f"{name:<9}: {ms:>12.1f} ms" for name, ms in best.items()),
        *(
            f"{backend} speedup vs reference: {s:>6.2f}x"
            for backend, s in speedups.items()
        ),
    ]
    if committed is not None:
        lines.append(
            f"committed trajectory ({committed['git_rev']}): "
            + ", ".join(
                f"{backend} {committed[key]:.2f}x"
                for backend, key in BACKEND_SPEEDUP_KEYS.items()
            )
        )
    write_artifact(
        local_results_dir,
        "engine_backend_full.txt" if FULL else "engine_backend_smoke.txt",
        "\n".join(lines),
    )

    assert committed is not None, (
        f"no committed BENCH_engine.json entry for {scenario}; run "
        f"`python tools/bench_record.py --kernels {BACKEND_N_KERNELS}` and "
        "commit the result"
    )
    for backend, key in BACKEND_SPEEDUP_KEYS.items():
        floor = committed[key] * BACKEND_REGRESSION_FRACTION
        assert speedups[backend] >= floor, (
            f"{backend} backend speedup over the reference regressed: measured "
            f"{speedups[backend]:.2f}x vs committed {committed[key]:.2f}x "
            f"(entry {committed['git_rev']}; >40% below trajectory)"
        )
