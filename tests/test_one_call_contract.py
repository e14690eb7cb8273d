"""The one-call contract the engine relies on, tested directly.

For a driver that declares :attr:`~repro.policies.base.Policy.batchable`
the engine calls ``select`` once per scheduling instant instead of
iterating it to a fixpoint, and it builds processor views lazily.  Both
shortcuts rest on properties of the code, not of any one input, so this
module checks the properties themselves on a *checking engine*:

* after the engine applied a one-call answer, asking the driver again at
  the same instant returns ``[]`` (otherwise the engine would have lost
  assignments);
* at every ``select``, the lazily maintained views equal views built
  eagerly from ``engine.procs`` at the current time.

Hypothesis draws the systems (flat, star, contended star), workloads
(closed graphs with staggered arrivals, open streams), noise and the
fault / preemption layers.  The structural guard
:func:`~repro.policies.base.driver_is_batchable` and the engine's work
counters are pinned beside them.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import profiling
from repro.core import engine as engine_module
from repro.core import simulator as simulator_module
from repro.core.dynamics import DynamicsSpec
from repro.core.engine import EngineCore
from repro.core.simulator import Simulator
from repro.core.system import Processor, ProcessorType, SystemConfig
from repro.core.topology import star_topology
from repro.data.paper_tables import paper_lookup_table
from repro.experiments.ablations import APTLongestFirst
from repro.experiments.workloads import paper_suite, scale_system, streaming_scale_source
from repro.graphs.generators import (
    make_chain_dfg,
    make_fork_join_dfg,
    make_layered_dfg,
    make_pipeline_dfg,
    make_type1_dfg,
)
from repro.graphs.streams import ApplicationArrival, ApplicationStream
from repro.policies.apt import APT
from repro.policies.apt_rt import APT_RT
from repro.policies.base import (
    Assignment,
    DynamicPolicy,
    ProcessorView,
    StaticPlan,
    driver_is_batchable,
)
from repro.policies.met import MET
from repro.policies.olb import OLB
from repro.policies.plan import PlanDispatcher
from repro.policies.registry import available_policies, get_policy
from repro.policies.spn import SPN
from repro.policies.ss import SS

LOOKUP = paper_lookup_table()

#: every policy whose driver the engine calls once per instant; the
#: static ones run through PlanDispatcher
ONE_CALL_POLICIES = {
    "apt": lambda alpha: APT(alpha=alpha),
    "apt_longest_first": lambda alpha: APTLongestFirst(alpha=alpha),
    "met": lambda alpha: MET(),
    "spn": lambda alpha: SPN(),
    "ss": lambda alpha: SS(),
    "olb": lambda alpha: OLB(),
    "heft": lambda alpha: get_policy("heft"),
    "peft": lambda alpha: get_policy("peft"),
    "cpop": lambda alpha: get_policy("cpop"),
}

DYNAMICS_COMBOS = {
    "none": (),
    "fault": ("fault",),
    "preempt": ("preempt",),
    "fault+preempt": ("fault", "preempt"),
}


def eager_views(engine: EngineCore) -> dict[str, ProcessorView]:
    """Views built from the processors' current state at the current time."""
    now = engine.now
    return {
        name: ProcessorView(
            engine.system[name],
            st.running is not None,
            max(st.free_at, now),
            len(st.queue),
            st.running,
            not (st.faulted or st.penalized),
        )
        for name, st in engine.procs.items()
    }


class CheckedEngine(EngineCore):
    """The engine, re-asking a one-call driver after each applied answer
    and comparing its lazy views with eager ones at every context."""

    last: "CheckedEngine | None" = None

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.second_calls = 0
        self.view_checks = 0
        CheckedEngine.last = self

    def make_context(self):
        ctx = super().make_context()
        assert self.views == eager_views(self), f"stale view at t={self.now}"
        self.view_checks += 1
        return ctx

    def _fixpoint(self) -> None:
        selects, version = self.n_selects, self.state_version
        super()._fixpoint()
        applied = self.n_selects > selects and self.state_version != version
        if self._one_call and applied and self.ready:
            again = list(self.driver.select(self.make_context()))
            self.ready.added.clear()
            assert again == [], (
                f"{self.policy.name}: a second select at t={self.now} "
                f"still assigned {again}"
            )
            self.second_calls += 1


def checked():
    """Within this context every simulator builds a :class:`CheckedEngine`."""
    CheckedEngine.last = None
    return mock.patch.object(simulator_module, "EngineCore", CheckedEngine)


def looped():
    """Within this context the engine iterates every policy to a fixpoint."""
    return mock.patch.object(engine_module, "driver_is_batchable", lambda d: False)


def with_evictions(policy, evict_mod: int):
    """``policy``, also requesting one preemption of every running kernel
    whose id is divisible by ``evict_mod`` (only dynamic drivers are
    asked; a static plan's dispatcher never preempts).  The subclass adds
    only ``preempt``, so the one-call guard still trusts its ``select``."""
    if not policy.is_dynamic:
        return policy
    base = type(policy)

    def preempt(self, ctx):
        out = []
        for p in ctx.system:
            kid = ctx.views[p.name].running_kernel
            if kid is not None and kid % evict_mod == 0 and kid not in self.evicted:
                self.evicted.add(kid)
                out.append(p.name)
        return out

    policy.__class__ = type(f"Evicting{base.__name__}", (base,), {"preempt": preempt})
    policy.evicted = set()
    return policy


def build_system(n_cpu: int, n_gpu: int, n_fpga: int, topology: str) -> SystemConfig:
    procs = (
        [Processor(f"cpu{i}", ProcessorType.CPU) for i in range(n_cpu)]
        + [Processor(f"gpu{i}", ProcessorType.GPU) for i in range(n_gpu)]
        + [Processor(f"fpga{i}", ProcessorType.FPGA) for i in range(n_fpga)]
    )
    if topology == "flat":
        return SystemConfig(procs, transfer_rate_gbps=4.0)
    return SystemConfig(
        procs,
        topology=star_topology(
            [p.name for p in procs],
            rate_gbps=4.0,
            contention=(topology == "star_contended"),
        ),
    )


def build_dynamics(combo: str, seed: int) -> list[DynamicsSpec]:
    specs = []
    for kind in DYNAMICS_COMBOS[combo]:
        if kind == "fault":
            specs.append(
                DynamicsSpec("fault", {"mttf_ms": 60000.0, "mttr_ms": 4000.0, "seed": seed})
            )
        else:
            specs.append(DynamicsSpec("preempt", {"penalty_ms": 2.0}))
    return specs


def build_dfg(shape: str, n: int, rng: np.random.Generator):
    if shape == "type1":
        return make_type1_dfg(max(n, 2), rng=rng)
    if shape == "forkjoin":
        return make_fork_join_dfg(max(n - 2, 1), rng=rng)
    if shape == "pipeline":
        return make_pipeline_dfg(n, rng=rng, stage_width=3)
    if shape == "chain":
        return make_chain_dfg(n, rng=rng)
    return make_layered_dfg(n, min(4, n), rng=rng)


SHAPES = ["type1", "forkjoin", "pipeline", "chain", "layered"]

scenarios = st.fixed_dictionaries(
    {
        "n_cpu": st.integers(min_value=1, max_value=2),
        "n_gpu": st.integers(min_value=1, max_value=3),
        "n_fpga": st.integers(min_value=0, max_value=2),
        "topology": st.sampled_from(["flat", "star", "star_contended"]),
        "alpha": st.floats(min_value=1.0, max_value=16.0),
        "noise": st.booleans(),
        "dynamics": st.sampled_from(sorted(DYNAMICS_COMBOS)),
        "dynamics_seed": st.integers(min_value=0, max_value=7),
        "evict_mod": st.integers(min_value=2, max_value=5),
        "graph_seed": st.integers(min_value=0, max_value=2**16),
        "shapes": st.lists(st.sampled_from(SHAPES), min_size=1, max_size=4),
        "n": st.integers(min_value=4, max_value=20),
        "gap_ms": st.sampled_from([0.0, 50.0, 500.0, 3000.0]),
    }
)


def run_scenario(make_policy, sc: dict, stream: bool):
    """One checked run of ``make_policy(alpha)``; returns (result, engine)."""
    system = build_system(sc["n_cpu"], sc["n_gpu"], sc["n_fpga"], sc["topology"])
    rng = np.random.default_rng(sc["graph_seed"])
    apps, t = [], 0.0
    for shape in sc["shapes"]:
        apps.append(ApplicationArrival(build_dfg(shape, sc["n"], rng), t))
        t += float(rng.exponential(sc["gap_ms"])) if sc["gap_ms"] else 0.0
    policy = with_evictions(make_policy(sc["alpha"]), sc["evict_mod"])
    sim = Simulator(
        system,
        LOOKUP,
        exec_noise_sigma=0.25 if sc["noise"] else 0.0,
        noise_seed=13,
        dynamics=build_dynamics(sc["dynamics"], sc["dynamics_seed"]) or None,
    )
    with checked():
        if stream:
            result = sim.run_stream(ApplicationStream(apps), policy)
        else:
            merged, arrivals = ApplicationStream(apps).merged(name="checked")
            result = sim.run(merged, policy, arrivals=arrivals)
    engine = CheckedEngine.last
    assert engine is not None and engine._one_call
    assert engine.view_checks > 0
    return result, engine


class TestSecondCallIsEmpty:
    """Every one-call driver, on random systems, workloads and layers."""

    @pytest.mark.parametrize("policy_key", sorted(ONE_CALL_POLICIES))
    @settings(max_examples=25, deadline=None)
    @given(sc=scenarios)
    def test_closed_workloads(self, policy_key, sc):
        run_scenario(ONE_CALL_POLICIES[policy_key], sc, stream=False)

    @pytest.mark.parametrize("policy_key", sorted(ONE_CALL_POLICIES))
    @settings(max_examples=15, deadline=None)
    @given(sc=scenarios)
    def test_open_streams(self, policy_key, sc):
        run_scenario(ONE_CALL_POLICIES[policy_key], sc, stream=True)


class CheckedMET(MET):
    """MET whose every indexed call is checked against the literal scan
    on the same context (the subclass restates the one-call flag)."""

    batchable = True

    def reset(self) -> None:
        super().reset()
        self.checked_calls = 0

    def select(self, ctx):
        expected = self.scan(ctx)
        got = super().select(ctx)
        assert got == expected, f"index {got} != scan {expected} at t={ctx.time}"
        self.checked_calls += 1
        return got


class TestMetIndexMatchesScan:
    """MET's per-category FCFS heaps pick exactly what the FCFS walk
    picks, call by call, including the re-adds of aborts."""

    @settings(max_examples=60, deadline=None)
    @given(sc=scenarios, stream=st.booleans())
    def test_every_call_agrees(self, sc, stream):
        _, engine = run_scenario(lambda alpha: CheckedMET(), sc, stream=stream)
        assert engine.driver.checked_calls > 0

    def test_an_unapplied_answer_changes_nothing(self):
        """``select`` is idempotent on an unchanged context: asking twice
        without applying returns the same assignments."""
        sim = Simulator(build_system(1, 2, 1, "flat"), LOOKUP)
        seen = []

        class Twice(MET):
            batchable = True

            def select(self, ctx):
                first = super().select(ctx)
                seen.append(first == super().select(ctx))
                return first

        sim.run(paper_suite(1)[4], Twice())
        assert seen and all(seen)


class TestOneCallSavesCalls:
    """On a saturated stream the second calls really happen (the check
    above is not vacuous), the schedule equals the looping engine's, and
    the one-call engine makes fewer ``select`` calls."""

    @pytest.mark.parametrize("policy_key", sorted(ONE_CALL_POLICIES))
    def test_saturated_stream(self, policy_key):
        stream = streaming_scale_source(
            400, seed=3, mean_interarrival_ms=300.0
        ).materialize()
        system = scale_system()
        runs = []
        for mode in (checked(), looped()):
            sim = Simulator(system, LOOKUP)
            with mode:
                result = sim.run_stream(stream, ONE_CALL_POLICIES[policy_key](4.0))
            runs.append((result, sim.last_profile))
        (once, once_prof), (loop, loop_prof) = runs
        assert CheckedEngine.last is not None
        assert CheckedEngine.last.second_calls > 0
        assert list(once.schedule) == list(loop.schedule)
        assert once.policy_stats == loop.policy_stats
        assert once_prof["n_selects"] < loop_prof["n_selects"]


class TestLazyViews:
    """Every registered policy — one-call or looping — under every layer
    combination sees views equal to eager ones at every ``select``."""

    @pytest.mark.parametrize("dynamics", sorted(DYNAMICS_COMBOS))
    @pytest.mark.parametrize("policy_name", available_policies())
    def test_views_match_eager_build(self, policy_name, dynamics):
        dfg = paper_suite(2)[3]
        system = build_system(1, 2, 1, "flat")
        policy = with_evictions(get_policy(policy_name), evict_mod=3)
        sim = Simulator(system, LOOKUP, dynamics=build_dynamics(dynamics, 5) or None)
        with checked():
            result = sim.run(dfg, policy)
        result.schedule.validate(dfg)
        engine = CheckedEngine.last
        assert engine is not None
        assert engine.view_checks >= sim.last_profile["n_selects"] > 0
        # AG queues every ready kernel at once, so the preemption layer
        # (consulted only while kernels wait) rarely sees one running
        if "preempt" in dynamics and policy.is_dynamic and policy_name != "ag":
            assert result.dynamics_stats["preemption"]["n_preemptions"] > 0


# ----------------------------------------------------------------------
# the structural guard
# ----------------------------------------------------------------------
class _OverridesSelect(APT):
    def select(self, ctx):
        return super().select(ctx)


class _RestatesFlag(APT):
    batchable = True

    def select(self, ctx):
        return super().select(ctx)


class _PreemptOnly(APT):
    def preempt(self, ctx):
        return ()


class _LoopingPolicy(DynamicPolicy):
    name = "looping"

    def select(self, ctx):
        return [Assignment(kid, v.name) for kid, v in zip(ctx.ready, ctx.idle_processors())]


def _instance_flagged() -> DynamicPolicy:
    policy = _LoopingPolicy()
    policy.batchable = True  # an instance flag with no class declaring it
    return policy


GUARD_CASES = {
    "apt": (lambda: APT(), True),
    "apt_longest_first": (lambda: APTLongestFirst(), True),
    "met": (lambda: MET(), True),
    "met_seeded": (lambda: MET(rng=np.random.default_rng(0)), False),
    "olb": (lambda: OLB(), True),
    "spn": (lambda: SPN(), True),
    "ss": (lambda: SS(), True),
    "plan_dispatcher": (lambda: PlanDispatcher(StaticPlan({}, {})), True),
    "apt_rt": (lambda: APT_RT(), False),
    "ag": (lambda: get_policy("ag"), False),
    "random": (lambda: get_policy("random"), False),
    "minmin": (lambda: get_policy("minmin"), False),
    "maxmin": (lambda: get_policy("maxmin"), False),
    "sufferage": (lambda: get_policy("sufferage"), False),
    "subclass_overrides_select": (lambda: _OverridesSelect(), False),
    "subclass_restates_flag": (lambda: _RestatesFlag(), True),
    "subclass_adds_preempt_only": (lambda: _PreemptOnly(), True),
    "instance_flag_only": (_instance_flagged, False),
}


@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_driver_is_batchable(case):
    make, expected = GUARD_CASES[case]
    assert driver_is_batchable(make()) is expected


def test_engine_reads_the_guard_once_per_run():
    sim = Simulator(build_system(1, 1, 1, "flat"), LOOKUP)
    dfg = paper_suite(1)[0]
    with checked():
        sim.run(dfg, APT_RT())
    assert CheckedEngine.last is not None and not CheckedEngine.last._one_call
    with checked():
        sim.run(dfg, APT())
    assert CheckedEngine.last is not None and CheckedEngine.last._one_call


# ----------------------------------------------------------------------
# work counters and the phase profiler
# ----------------------------------------------------------------------
COUNTER_KEYS = {"n_epochs", "n_events", "n_selects", "n_completed", "events_per_epoch"}


def test_every_run_reports_counters_without_a_profiler():
    dfg = paper_suite(1)[1]
    sim = Simulator(build_system(1, 1, 1, "flat"), LOOKUP)
    sim.run(dfg, APT())
    prof = sim.last_profile
    assert prof is not None and set(prof) == COUNTER_KEYS
    assert prof["n_completed"] == len(dfg)
    assert prof["n_events"] >= prof["n_epochs"] > 0
    assert prof["events_per_epoch"] >= 1.0
    # APT is called at most once per instant, plus the first instant
    assert 0 < prof["n_selects"] <= prof["n_epochs"] + 1


def test_profiled_runs_add_phase_milliseconds():
    sim = Simulator(build_system(1, 1, 1, "flat"), LOOKUP, profile=True)
    sim.run(paper_suite(1)[1], APT())
    prof = sim.last_profile
    assert prof is not None and set(prof) == COUNTER_KEYS | {"phase_ms"}
    assert set(prof["phase_ms"]) == {"fixpoint", "events"}
    assert prof["phase_ms"]["fixpoint"] > 0.0


def test_unprofiled_runs_build_no_profiler():
    with mock.patch("repro.profiling.PhaseProfiler", side_effect=AssertionError):
        sim = Simulator(build_system(1, 1, 1, "flat"), LOOKUP)
        sim.run(paper_suite(1)[1], APT())
    assert "phase_ms" not in sim.last_profile


@pytest.mark.parametrize("mode", ["run", "run_stream"])
def test_every_run_feeds_the_process_totals(mode):
    profiling.reset_engine_totals()
    sim = Simulator(build_system(1, 1, 1, "flat"), LOOKUP)
    selects = 0
    for seed in (1, 2):
        stream = ApplicationStream(
            [ApplicationArrival(make_type1_dfg(6, rng=np.random.default_rng(seed)), 0.0)]
        )
        if mode == "run":
            merged, arrivals = stream.merged(name="totals")
            sim.run(merged, MET(), arrivals=arrivals)
        else:
            sim.run_stream(stream, MET())
        selects += sim.last_profile["n_selects"]
    totals = profiling.engine_totals()
    assert totals["runs"] == 2
    assert totals["n_selects"] == selects
    assert totals["n_completed"] == 12


def test_select_counter_counts_every_call():
    """``n_selects`` counts the driver's calls.  Both modes make the same
    productive calls; the loop adds an empty one after each productive
    instant that leaves kernels waiting, which one call per instant
    never makes."""
    counts = {}
    for name, mode in (("one_call", contextlib.nullcontext()), ("loop", looped())):
        calls: list[bool] = []

        class Counting(MET):
            batchable = True

            def select(self, ctx):
                out = super().select(ctx)
                calls.append(bool(out))
                return out

        sim = Simulator(build_system(1, 1, 1, "flat"), LOOKUP)
        with mode:
            sim.run(paper_suite(1)[2], Counting())
        assert sim.last_profile["n_selects"] == len(calls)
        counts[name] = (calls.count(True), len(calls))
    assert counts["one_call"][0] == counts["loop"][0] > 0
    assert counts["one_call"][1] < counts["loop"][1]

