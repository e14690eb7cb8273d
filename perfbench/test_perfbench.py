"""Checks that the benchmark itself works (fast; the workloads run only
through ``perfbench/run.py``)."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _traced_sweep_job(suite_seed: int) -> tuple[spans.Tracer, float]:
    """One paper sweep job (decode, simulate, encode) under the tracer."""
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.workloads import paper_suite

    runner = ExperimentRunner(workers=1)
    dfg = paper_suite(2, suite_seed)[0]
    tracer = spans.Tracer().install()
    try:
        t0 = time.perf_counter()
        runner.run_one(0, dfg, "apt", 4.0, alpha=4.0)
        runner.run_one(0, dfg, "heft", 4.0)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return tracer, wall


@pytest.fixture(scope="module")
def traced() -> tuple[spans.Tracer, float]:
    return _traced_sweep_job(worker.PAPER_BASE_SEED)


def test_every_layer_is_wrapped_and_restored(traced):
    tracer, _ = traced
    layers = {s[2] for s in tracer.spans}
    assert {"graphs", "sweep", "engine", "policies", "metrics"} <= layers
    from repro.experiments import sweep

    assert not hasattr(sweep.execute_payload, "__wrapped__")


def test_spans_nest(traced):
    tracer, _ = traced
    by_id = {s[0]: s for s in tracer.spans}
    nested = 0
    for sid, _, _, _, t0, t1, parent, _ in tracer.spans:
        assert t0 <= t1
        if parent is not None:
            p = by_id[parent]
            assert p[4] <= t0 and t1 <= p[5], (sid, parent)
            nested += 1
    assert nested > 0


def test_self_times_sum_within_traced_wall(traced):
    tracer, wall = traced
    total_ms = sum(spans.self_times(tracer.spans).values())
    assert 0 < total_ms <= wall * 1e3


def test_policy_counters_and_no_subclassing(traced):
    tracer, _ = traced
    from repro.core.array_state import driver_is_batchable
    from repro.policies.apt import APT
    from repro.policies.apt_rt import APT_RT

    counts = tracer.counters
    assert counts["policies.select_calls"] > 0
    assert counts["policies.assignments"] > 0
    assert counts["graphs.edges_added"] > 0
    # in-place wrapping leaves the MRO owners, hence the engine path, alone
    again = spans.Tracer().install()
    try:
        assert driver_is_batchable(APT(alpha=4.0))
        assert not driver_is_batchable(APT_RT(alpha=4.0))
    finally:
        again.uninstall()


def test_every_metric_is_reported_with_its_unit():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {e["name"]: e["unit"] for e in SPEC[key]}
        report = {"cold_s": 1.0, "attempted": 3, "failed": 0, key: dict.fromkeys(units, 1.0)}
        args = argparse.Namespace(workload="paper_sweep", seed=0, trace=trace)
        _, result = run.build_result(SPEC, report, [0.5, 0.4, 0.6], args)
        assert result["correct"]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units
        if not trace:  # the median set-up sample plus the cold pass
            assert result["metrics"]["setup_s"]["value"] == pytest.approx(1.5)


def test_missing_metric_makes_the_run_incorrect():
    report = {"cold_s": 1.0, "attempted": 1, "failed": 0, "end_to_end": {}}
    args = argparse.Namespace(workload="paper_sweep", seed=0, trace=0)
    details, result = run.build_result(SPEC, report, [0.5], args)
    assert not result["correct"]
    assert "kernels_per_s" in details["unreported_metrics"]


def test_unwrapped_target_makes_the_traced_run_incorrect(monkeypatch):
    from repro.graphs import serialization

    monkeypatch.delattr(serialization, "dfg_from_dict")  # as after a rename
    tracer = spans.Tracer().install()
    tracer.uninstall()
    assert tracer.missing == ["repro.graphs.serialization:dfg_from_dict"]
    report = {
        "cold_s": 1.0, "attempted": 1, "failed": 0,
        "per_layer": {e["name"]: 1.0 for e in SPEC["per_layer"]},
        "missing_targets": tracer.missing,
    }
    args = argparse.Namespace(workload="paper_sweep", seed=0, trace=1)
    _, result = run.build_result(SPEC, report, [0.5], args)
    assert not result["correct"]


def test_ready_line_reports_set_up_speed(capsys):
    sampler = speed.SpeedSampler().start()
    worker.announce_ready(sampler)
    word, speed_factor, busy = capsys.readouterr().out.split()
    assert word == "READY"
    assert float(speed_factor) > 0 and float(busy) > 0


def test_layer_metrics_cover_the_per_layer_names(traced):
    tracer, _ = traced
    row = spans.Window(tracer.spans, dict(tracer.counters), dict(tracer.peaks)).layer_metrics()
    added_by_worker = {
        "engine.fixpoint_ms", "engine.events_ms", "trace.overhead_ms",
        "trace.overhead_ratio", *worker.SERVICE_CLIENT_METRICS,
    }
    assert set(row) | added_by_worker == {e["name"] for e in SPEC["per_layer"]}


def test_changed_seed_changes_inputs_not_metric_names():
    assert worker.PaperSweep(0, recorded=False).inputs() != \
        worker.PaperSweep(1, recorded=False).inputs()
    streams = [worker.Stream("stream_light", s, False, recorded=False).inputs() for s in (0, 1)]
    assert streams[0] != streams[1]
    assert worker.service_sequence(0, 50) != worker.service_sequence(1, 50)
    assert worker.service_spec(0, 0) != worker.service_spec(1, 0)
    rows = []
    for suite_seed in (worker.PAPER_BASE_SEED, worker.PAPER_BASE_SEED + 1):
        tracer, _ = _traced_sweep_job(suite_seed)
        rows.append(spans.Window(tracer.spans, dict(tracer.counters), {}).layer_metrics())
    assert set(rows[0]) == set(rows[1])


def test_service_sequence_repeats_about_half():
    seq = worker.service_sequence(3, 2000)
    seen: set[int] = set()
    repeats = 0
    for index in seq:
        repeats += index in seen
        seen.add(index)
    assert 0.4 < repeats / len(seq) < 0.6
    assert seq[0] == 0


def test_every_recorded_seed_slot_exists():
    recorded = json.loads(worker.EXPECTED_FILE.read_text(encoding="utf-8"))
    for name in ("paper_sweep", *worker.STREAMS):
        assert sorted(map(int, recorded[name])) == list(range(worker.SEED_POOL))


def test_speed_sampler_samples_its_core():
    sampler = speed.SpeedSampler().start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.4:
            speed.calibrate()
        t1 = time.perf_counter()
    finally:
        sampler.stop()
    samples = sampler.window(t0, t1)
    assert len(samples) >= 3
    busy = sum(s[1] for s in samples)
    assert sampler.nominal(t0, t1) == pytest.approx((t1 - t0 - busy) * sampler.speed(t0, t1))


def test_speed_profile_averages_processes_per_bucket():
    nominal = speed.NOMINAL_CALIBRATION_S
    client = [(0.2, 0.001, nominal), (1.5, 0.001, nominal)]  # full speed
    server = [(0.7, 0.001, 2 * nominal)]  # half speed, first bucket only
    profile = speed.SpeedProfile([client, server])
    assert profile.at(0.5) == pytest.approx(0.75)
    assert profile.at(1.2) == pytest.approx(1.0)
    assert profile.nominal(0.5, 1.5) == pytest.approx(0.5 * 0.75 + 0.5 * 1.0)
