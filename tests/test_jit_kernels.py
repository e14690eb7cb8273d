"""The compiled kernel layer: registry contract, jit resolution, twins.

The jit sources in :mod:`repro.core._kernels` are plain Python, so the
pairwise fallback-vs-source differential tests here run (and can fail)
*without* numba — numba only changes how fast the source twin runs,
never what it computes.  End-to-end jit parity is pinned by the
equivalence suite and the differential fuzzer; this file pins the twins
directly on adversarial inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import _kernels
from repro.core._kernels import (
    JIT_ENV_VAR,
    KERNELS,
    KernelSet,
    get_kernels,
    jit_status,
    numba_available,
    resolve_jit,
)


# ----------------------------------------------------------------------
# registry contract (runtime side of the jit-kernel-pairs checks rule)
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_entry_is_a_defined_twin_pair(self):
        for name, (fallback, src) in KERNELS.items():
            assert fallback is getattr(_kernels, f"{name}_py")
            assert src is getattr(_kernels, f"_{name}_src")

    def test_no_orphan_jit_sources(self):
        registered = {fns[1].__name__ for fns in KERNELS.values()}
        orphans = [
            n
            for n in dir(_kernels)
            if n.startswith("_") and n.endswith("_src") and n not in registered
        ]
        assert not orphans, f"jit sources outside the KERNELS registry: {orphans}"

    def test_kernel_set_covers_the_registry(self):
        ks = get_kernels(False)
        assert ks.jit is False
        for name in KERNELS:
            assert callable(getattr(ks, name))
        # singleton: the fallback set is built once
        assert get_kernels(False) is ks

    def test_jitted_set_degrades_to_fallback_without_numba(self):
        ks = get_kernels(True)
        if numba_available():
            assert ks.jit is True
        else:
            assert ks is get_kernels(False)

    def test_kernel_set_slots_match_registry(self):
        assert set(KernelSet.__slots__) == {"jit", *KERNELS}


# ----------------------------------------------------------------------
# jit resolution
# ----------------------------------------------------------------------
class TestResolveJit:
    def test_falsey_selectors_force_fallback(self, monkeypatch):
        monkeypatch.delenv(JIT_ENV_VAR, raising=False)
        for selector in ("0", "off", "false", "no", False):
            assert resolve_jit(selector) is False

    def test_truey_and_auto_follow_numba_availability(self, monkeypatch):
        monkeypatch.delenv(JIT_ENV_VAR, raising=False)
        expected = numba_available()
        for selector in ("1", "on", "true", "yes", "auto", True, None):
            assert resolve_jit(selector) is expected

    def test_env_var_is_the_default(self, monkeypatch):
        monkeypatch.setenv(JIT_ENV_VAR, "off")
        assert resolve_jit(None) is False
        monkeypatch.setenv(JIT_ENV_VAR, "on")
        assert resolve_jit(None) is numba_available()

    def test_explicit_selector_beats_env(self, monkeypatch):
        monkeypatch.setenv(JIT_ENV_VAR, "on")
        assert resolve_jit("off") is False

    def test_unknown_selector_raises(self):
        with pytest.raises(ValueError, match="jit selector"):
            resolve_jit("fastpls")

    def test_status_reports_request_and_resolution(self, monkeypatch):
        monkeypatch.setenv(JIT_ENV_VAR, "off")
        status = jit_status()
        assert status["requested"] == "off"
        assert status["active"] is False
        assert status["numba_available"] is numba_available()
        assert jit_status("on")["requested"] == "on"


# ----------------------------------------------------------------------
# differential twins: fallback vs jit source on seeded random inputs
# ----------------------------------------------------------------------
def _twins(name):
    fallback, src = KERNELS[name]
    return fallback, src


class TestCsrPropagateTwins:
    @pytest.mark.parametrize("n_succs", [0, 1, 7, 31, 32, 200, 1000])
    def test_twins_agree(self, n_succs):
        fallback, src = _twins("csr_propagate")
        rng = np.random.default_rng(n_succs)
        n_kernels = 64
        succs = rng.integers(0, n_kernels, size=n_succs).astype(np.int64)
        # counts >= occurrence count so nothing goes negative; some hit 0
        base = np.zeros(n_kernels, dtype=np.int32)
        np.add.at(base, succs, 1)
        extra = rng.integers(0, 2, size=n_kernels).astype(np.int32)
        rp_a = (base + extra).copy()
        rp_b = rp_a.copy()
        out_a = fallback(rp_a, succs)
        out_b = src(rp_b, succs)
        assert np.array_equal(rp_a, rp_b)
        assert list(out_a) == list(out_b)
        # emission order == last-occurrence order of the zero-hitters
        assert len(set(out_a.tolist())) == len(out_a)

    def test_duplicate_successor_emits_once_at_last_occurrence(self):
        fallback, src = _twins("csr_propagate")
        # kernel 5 appears 40 times; rp starts at 40 so it zeroes at the
        # last occurrence — both twins must emit it exactly once.
        succs = np.array([5] * 40 + [3], dtype=np.int64)
        rp_a = np.zeros(8, dtype=np.int32)
        rp_a[5], rp_a[3] = 40, 1
        rp_b = rp_a.copy()
        assert list(fallback(rp_a, succs)) == [5, 3]
        assert list(src(rp_b, succs)) == [5, 3]
        assert np.array_equal(rp_a, rp_b)


# ----------------------------------------------------------------------
# numba parity (runs only where numba is installed — the CI jit leg)
# ----------------------------------------------------------------------
@pytest.mark.skipif(not numba_available(), reason="numba not installed")
class TestCompiledParity:
    def test_compiled_csr_propagate_matches_fallback(self):
        ks = get_kernels(True)
        fallback = KERNELS["csr_propagate"][0]
        rng = np.random.default_rng(99)
        succs = rng.integers(0, 50, size=500).astype(np.int64)
        rp_a = np.zeros(50, dtype=np.int32)
        np.add.at(rp_a, succs, 1)
        rp_b = rp_a.copy()
        assert list(fallback(rp_a, succs)) == list(ks.csr_propagate(rp_b, succs))
        assert np.array_equal(rp_a, rp_b)


# ----------------------------------------------------------------------
# engine integration: profiler counters + jit plumbed through Simulator
# ----------------------------------------------------------------------
class TestProfileCounters:
    def _run(self, **sim_kwargs):
        from repro.core.simulator import Simulator
        from repro.core.system import CPU_GPU_FPGA
        from repro.data.paper_tables import paper_lookup_table
        from repro.graphs.generators import make_type1_dfg
        from repro.policies.registry import get_policy

        dfg = make_type1_dfg(30, rng=np.random.default_rng(3))
        sim = Simulator(
            CPU_GPU_FPGA(), paper_lookup_table(), backend="array", **sim_kwargs
        )
        result = sim.run(dfg, get_policy("apt"))
        return sim, result, len(dfg)

    def test_counters_shape(self):
        sim, _result, n = self._run()
        prof = sim.last_profile
        assert prof is not None
        assert prof["backend"] == "array"
        assert prof["n_completed"] == n
        assert prof["n_epochs"] >= 1
        assert prof["n_events"] >= prof["n_epochs"]
        assert prof["events_per_epoch"] >= 1.0
        assert prof["jit_active"] is resolve_jit(None)
        # submitted-at-once run: nothing retires, every row stays live
        assert prof["rows_in_use"] == n
        assert prof["rows_released"] == 0
        assert "phase_ms" not in prof  # no profiler attached

    def test_profile_flag_adds_phase_wallclock(self):
        sim, _result, _n = self._run(profile=True)
        prof = sim.last_profile
        assert prof is not None and "phase_ms" in prof
        assert set(prof["phase_ms"]) <= {"fixpoint", "events"}

    def test_jit_flag_is_recorded(self):
        sim, _result, _n = self._run(jit="off")
        assert sim.last_profile["jit_active"] is False

    def test_process_totals_accumulate(self):
        from repro import profiling

        profiling.reset_engine_totals()
        self._run()
        totals = profiling.engine_totals()
        assert totals["runs"] == 1
        assert totals["n_completed"] == 30
        self._run()
        assert profiling.engine_totals()["runs"] == 2
