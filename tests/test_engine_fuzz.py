"""Differential fuzzing of the engine.

Hypothesis generates random scenarios — graph shape, system size,
topology, policy, noise, runtime dynamics, arrival pattern — and every
example requires the engine to agree **bit for bit**, on the schedule,
the metrics and the policy stats, with the same engine forced to iterate
every policy to a fixpoint (no one-call instants).  Where the
pre-refactor :class:`~repro.core.reference.ReferenceSimulator` is
applicable (no dynamics, uncontended), it joins as a third oracle.

Every strategy draw is a plain scalar, so the falsifying example
hypothesis prints on failure *is* the replay recipe: paste the printed
kwargs into a direct call of the test function (or re-run with the
printed ``@reproduce_failure`` / ``--hypothesis-seed`` line) to get the
exact same scenario back after shrinking.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import engine as engine_module
from repro.core.dynamics import DynamicsSpec
from repro.core.reference import ReferenceSimulator
from repro.core.simulator import Simulator
from repro.core.system import Processor, ProcessorType, SystemConfig
from repro.core.topology import star_topology
from repro.data.paper_tables import paper_lookup_table
from repro.graphs.generators import (
    make_chain_dfg,
    make_fork_join_dfg,
    make_independent_dfg,
    make_layered_dfg,
    make_pipeline_dfg,
    make_type1_dfg,
    make_type2_dfg,
)
from repro.graphs.streams import ApplicationArrival, ApplicationStream
from repro.policies.registry import available_policies, get_policy

LOOKUP = paper_lookup_table()

#: fault parameters far from the starvation regime (mttf ≫ service times)
FAULT_PARAMS = {"mttf_ms": 60000.0, "mttr_ms": 4000.0}

DYNAMICS_COMBOS = {
    "none": (),
    "fault": ("fault",),
    "preempt": ("preempt",),
    "fault+preempt": ("fault", "preempt"),
}


def build_dfg(shape: str, n: int, graph_seed: int):
    rng = np.random.default_rng(graph_seed)
    if shape == "type1":
        return make_type1_dfg(max(n, 2), rng=rng)
    if shape == "type2":
        return make_type2_dfg(max(n, 13), rng=rng)
    if shape == "independent":
        return make_independent_dfg(n, rng=rng)
    if shape == "chain":
        return make_chain_dfg(n, rng=rng)
    if shape == "forkjoin":
        return make_fork_join_dfg(max(n - 2, 1), rng=rng)
    if shape == "pipeline":
        return make_pipeline_dfg(n, rng=rng, stage_width=3)
    assert shape == "layered"
    return make_layered_dfg(n, min(4, n), rng=rng)


def build_system(n_cpu: int, n_gpu: int, n_fpga: int, topology: str):
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


def build_dynamics(combo: str, seed: int):
    specs = []
    for kind in DYNAMICS_COMBOS[combo]:
        if kind == "fault":
            specs.append(DynamicsSpec("fault", {**FAULT_PARAMS, "seed": seed}))
        else:
            specs.append(DynamicsSpec("preempt", {"penalty_ms": 2.0}))
    return specs


def looped():
    """Within this context the engine iterates every policy to a fixpoint."""
    return mock.patch.object(engine_module, "driver_is_batchable", lambda d: False)


def run_one(sim_cls, system, dfg, policy_name, *, noise: bool, dynamics, arrivals):
    sim = sim_cls(
        system,
        LOOKUP,
        exec_noise_sigma=0.25 if noise else 0.0,
        noise_seed=13,
        dynamics=list(dynamics) or None,
    )
    return sim.run(dfg, get_policy(policy_name), arrivals=arrivals or None)


def assert_same_run(a, b, label: str) -> None:
    assert list(a.schedule) == list(b.schedule), f"schedule divergence ({label})"
    assert a.metrics == b.metrics, f"metrics divergence ({label})"
    assert a.policy_stats == b.policy_stats, f"policy-stats divergence ({label})"


class TestEngineFuzz:
    @settings(max_examples=50, deadline=None)
    @given(
        shape=st.sampled_from(
            ["type1", "type2", "independent", "chain", "forkjoin", "pipeline",
             "layered"]
        ),
        n=st.integers(min_value=4, max_value=24),
        graph_seed=st.integers(min_value=0, max_value=2**16),
        n_cpu=st.integers(min_value=1, max_value=2),
        n_gpu=st.integers(min_value=1, max_value=2),
        n_fpga=st.integers(min_value=1, max_value=2),
        topology=st.sampled_from(["flat", "star", "star_contended"]),
        policy_name=st.sampled_from(sorted(available_policies())),
        noise=st.booleans(),
        dynamics_combo=st.sampled_from(sorted(DYNAMICS_COMBOS)),
        dynamics_seed=st.integers(min_value=0, max_value=7),
        arrival_seed=st.integers(min_value=0, max_value=2**16),
        staggered=st.booleans(),
    )
    def test_one_call_loop_reference_agree(
        self, shape, n, graph_seed, n_cpu, n_gpu, n_fpga, topology,
        policy_name, noise, dynamics_combo, dynamics_seed, arrival_seed,
        staggered,
    ):
        dfg = build_dfg(shape, n, graph_seed)
        system = build_system(n_cpu, n_gpu, n_fpga, topology)
        dynamics = build_dynamics(dynamics_combo, dynamics_seed)
        arrivals = {}
        if staggered:
            rng = np.random.default_rng(arrival_seed)
            arrivals = {
                kid: float(rng.exponential(500.0)) for kid in dfg.entry_kernels()
            }
        obj = run_one(Simulator, system, dfg, policy_name,
                      noise=noise, dynamics=dynamics, arrivals=arrivals)
        with looped():
            loop = run_one(Simulator, system, dfg, policy_name,
                           noise=noise, dynamics=dynamics, arrivals=arrivals)
        assert_same_run(obj, loop, "one call vs loop")
        # the pre-refactor oracle predates dynamics and contention
        if not dynamics and topology != "star_contended":
            ref = run_one(ReferenceSimulator, system, dfg, policy_name,
                          noise=noise, dynamics=(), arrivals=arrivals)
            assert_same_run(obj, ref, "engine vs reference")

    @settings(max_examples=25, deadline=None)
    @given(
        n_apps=st.integers(min_value=1, max_value=5),
        shapes=st.lists(
            st.sampled_from(["type1", "forkjoin", "pipeline", "chain"]),
            min_size=5, max_size=5,
        ),
        graph_seed=st.integers(min_value=0, max_value=2**16),
        arrival_seed=st.integers(min_value=0, max_value=2**16),
        policy_name=st.sampled_from(sorted(available_policies())),
        dynamics_combo=st.sampled_from(sorted(DYNAMICS_COMBOS)),
    )
    def test_streaming_one_call_and_loop_agree(
        self, n_apps, shapes, graph_seed, arrival_seed, policy_name,
        dynamics_combo,
    ):
        """run_stream (admission + retirement) must also match with and
        without one-call instants — including service metrics — on random
        app streams."""
        rng = np.random.default_rng(arrival_seed)
        t = 0.0
        apps = []
        for i in range(n_apps):
            dfg = build_dfg(shapes[i], 6, graph_seed + i)
            apps.append(ApplicationArrival(dfg, t))
            t += float(rng.exponential(2000.0))
        dynamics = build_dynamics(dynamics_combo, 1)

        def run():
            sim = Simulator(
                build_system(2, 1, 1, "flat"),
                LOOKUP,
                dynamics=list(dynamics) or None,
            )
            return sim.run_stream(
                ApplicationStream(list(apps)), get_policy(policy_name)
            )

        obj = run()
        with looped():
            loop = run()
        assert_same_run(obj, loop, "stream one call vs loop")
        assert obj.service == loop.service


if __name__ == "__main__":  # pragma: no cover - manual replay helper
    import sys

    sys.exit(pytest.main([__file__, "-v", *sys.argv[1:]]))
