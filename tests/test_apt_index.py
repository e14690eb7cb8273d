"""APT's incremental ready index against the literal Algorithm 1 scan.

Both engines drive APT through :class:`~repro.policies.apt.ReadyIndex`;
:meth:`~repro.policies.apt.APT.scan` is the paper's walk over the whole
FCFS ready set.  ``CheckedAPT`` runs the scan on the very context of
every call and then the index, and asserts both return the same
assignment list — so every scheduling instant of every example is a
differential check, including the re-adds that fault aborts and
preemptions produce.  (APT assigns only to idle processors, so a fault's
queue flush never has anything to return to the ready set.)
``TestSingleInstants`` makes the same check call by call on hand-built
contexts over either engine's ready queue, and
``TestReadyQueueSequence`` pins the sequence numbers the index keys on.

The work-counter gate pins the index's heap pushes and stale pops on the
1 200-kernel saturated APT stream.  Unlike a wall-clock ratio it cannot
flake on a busy machine: the counts are a pure function of the run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array_state import ArrayReadyQueue
from repro.core.dynamics import DynamicsSpec
from repro.core.engine import _ReadyQueue
from repro.core.simulator import Simulator
from repro.core.system import Processor, ProcessorType, SystemConfig
from repro.data.paper_tables import paper_lookup_table
from repro.experiments.ablations import APTLongestFirst
from repro.experiments.workloads import scale_system, streaming_scale_source
from repro.graphs.dfg import DFG, KernelSpec
from repro.graphs.generators import (
    make_chain_dfg,
    make_fork_join_dfg,
    make_layered_dfg,
    make_pipeline_dfg,
    make_type1_dfg,
)
from repro.graphs.streams import ApplicationArrival, ApplicationStream
from repro.policies.apt import APT
from repro.policies.base import ProcessorView, SchedulingContext

LOOKUP = paper_lookup_table()
BACKENDS = ("object", "array")


class CheckedAPT(APT):
    """APT whose every call is checked against the literal scan.

    ``evict_mod`` > 0 also requests preemptions: a running kernel whose
    id is divisible by it is evicted once, so a preemption layer aborts
    it and it re-enters the ready set under a new sequence number.
    """

    def __init__(
        self, alpha: float = 4.0, include_transfer: bool = True, evict_mod: int = 0
    ) -> None:
        super().__init__(alpha=alpha, include_transfer=include_transfer)
        self.evict_mod = evict_mod

    def reset(self) -> None:
        super().reset()
        self.checked_calls = 0
        self._evicted: set[int] = set()

    def select(self, ctx):
        expected = self.scan(ctx)
        got = super().select(ctx)
        assert got == expected, f"index {got} != scan {expected} at t={ctx.time}"
        self.checked_calls += 1
        return got

    def select_batch(self, batch):
        # the scan needs processor views: take the engine's own context
        ctx = batch._e.make_context()
        expected = self.scan(ctx)
        got = super().select_batch(batch)
        assert got == expected, f"index {got} != scan {expected} at t={ctx.time}"
        self.checked_calls += 1
        return got

    def preempt(self, ctx):
        if not self.evict_mod:
            return ()
        out = []
        for p in ctx.system:
            kid = ctx.views[p.name].running_kernel
            if kid is not None and kid % self.evict_mod == 0 and kid not in self._evicted:
                self._evicted.add(kid)
                out.append(p.name)
        return out


class CheckedLongestFirst(CheckedAPT, APTLongestFirst):
    """The longest-first ablation (order key ``(-x, kid)``), checked."""


def build_system(types: list[str], rate_gbps: float = 4.0) -> SystemConfig:
    return SystemConfig(
        [Processor(f"{t}{i}", ProcessorType(t)) for i, t in enumerate(types)],
        transfer_rate_gbps=rate_gbps,
    )


def build_stream(shapes: list[str], graph_seed: int, gap_ms: float):
    rng = np.random.default_rng(graph_seed)
    makers = {
        "type1": lambda: make_type1_dfg(8, rng=rng),
        "forkjoin": lambda: make_fork_join_dfg(5, rng=rng),
        "pipeline": lambda: make_pipeline_dfg(8, rng=rng, stage_width=3),
        "chain": lambda: make_chain_dfg(5, rng=rng),
    }
    t = 0.0
    apps = []
    for shape in shapes:
        apps.append(ApplicationArrival(makers[shape](), t))
        t += float(rng.exponential(gap_ms))
    return ApplicationStream(apps)


def run_checked(policy, types, stream, dynamics, backend, rate_gbps=4.0):
    sim = Simulator(
        build_system(types, rate_gbps),
        LOOKUP,
        dynamics=list(dynamics) or None,
        backend=backend,
    )
    return sim.run_stream(stream, policy)


DYNAMICS = {
    "none": (),
    "fault": ("fault",),
    "preempt": ("preempt",),
    "fault+preempt": ("fault", "preempt"),
}


def build_dynamics(combo: str, seed: int, mttf_ms: float = 1500.0) -> list[DynamicsSpec]:
    specs = []
    for kind in DYNAMICS[combo]:
        if kind == "fault":
            specs.append(
                DynamicsSpec("fault", {"mttf_ms": mttf_ms, "mttr_ms": 300.0, "seed": seed})
            )
        else:
            specs.append(DynamicsSpec("preempt", {"penalty_ms": 2.0}))
    return specs


class TestIndexMatchesScan:
    @settings(max_examples=150, deadline=None)
    @given(
        # 1–12 processors over any subset of the categories, so a
        # kernel's lookup-table best category may be absent
        types=st.lists(st.sampled_from(["cpu", "gpu", "fpga"]), min_size=1, max_size=12),
        alpha=st.floats(min_value=1.0, max_value=16.0),
        include_transfer=st.booleans(),
        # slow links make the transfer term decide qualification
        rate_gbps=st.sampled_from([0.05, 0.5, 4.0]),
        shapes=st.lists(
            st.sampled_from(["type1", "forkjoin", "pipeline", "chain"]),
            min_size=2, max_size=8,
        ),
        graph_seed=st.integers(min_value=0, max_value=2**16),
        gap_ms=st.sampled_from([50.0, 500.0, 3000.0]),
        dynamics=st.sampled_from(sorted(DYNAMICS)),
        dynamics_seed=st.integers(min_value=0, max_value=7),
        evict_mod=st.integers(min_value=2, max_value=5),
        longest_first=st.booleans(),
    )
    def test_every_call_agrees(
        self, types, alpha, include_transfer, rate_gbps, shapes, graph_seed,
        gap_ms, dynamics, dynamics_seed, evict_mod, longest_first,
    ):
        cls = CheckedLongestFirst if longest_first else CheckedAPT
        stream = build_stream(shapes, graph_seed, gap_ms)
        # Outages as frequent as progress allows: an alternative runs for
        # at most α·x, so a mean time to failure of twice the largest α·x
        # keeps every kernel likely to finish between two outages.
        present = tuple(dict.fromkeys(ProcessorType(t) for t in types))
        longest = max(
            alpha * LOOKUP.best_processor(spec.kernel, spec.data_size, present)[1]
            for app in stream
            for spec in (app.dfg.spec(k) for k in app.dfg.kernel_ids())
        )
        specs = build_dynamics(dynamics, dynamics_seed, mttf_ms=max(1500.0, 2 * longest))
        results = []
        for backend in BACKENDS:
            policy = cls(alpha, include_transfer, evict_mod=evict_mod)
            results.append(
                run_checked(policy, types, stream, specs, backend, rate_gbps)
            )
            assert policy.checked_calls > 0
        obj, arr = results
        assert list(obj.schedule) == list(arr.schedule)
        assert obj.policy_stats == arr.policy_stats

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_aborts_are_exercised(self, backend):
        """A fixed scenario where faults abort and preemptions evict: the
        re-added kernels go through the checked calls."""
        stream = build_stream(["type1", "pipeline", "forkjoin", "type1"] * 2, 5, 50.0)
        specs = build_dynamics("fault+preempt", 3)
        policy = CheckedAPT(4.0, True, evict_mod=3)
        out = run_checked(policy, ["cpu", "gpu", "gpu", "fpga"], stream, specs, backend)
        stats = out.dynamics_stats
        assert stats["fault"]["n_aborted"] > 0
        assert stats["preemption"]["n_preemptions"] > 0
        assert policy.checked_calls > 0


#: Committed ceilings for the ready index's work on the 1 200-kernel
#: saturated APT stream (the BENCH_engine.json n1200 scenario).  Both
#: backends make the same calls on the same ready queue, so both must
#: report the same counts.  Lower the ceilings when the index gets
#: cheaper; raising them needs a reason in CHANGES.md.
INDEX_WORK_CEILINGS = {"pushes": 5029, "stale_pops": 5022}


def test_index_work_counters_stay_under_committed_ceilings():
    counts = []
    for backend in BACKENDS:
        policy = APT(alpha=4.0)
        source = streaming_scale_source(1200, seed=42, mean_interarrival_ms=300.0)
        Simulator(scale_system(), LOOKUP, backend=backend).run_stream(
            source, policy, retain_schedule=False
        )
        counts.append(policy.index_counters())
    assert counts[0] == counts[1], f"backends disagree: {counts}"
    for key, ceiling in INDEX_WORK_CEILINGS.items():
        assert counts[0][key] <= ceiling, (
            f"ready index {key} {counts[0][key]} above the committed ceiling {ceiling}"
        )


# ----------------------------------------------------------------------
# single scheduling instants on hand-built contexts
# ----------------------------------------------------------------------
def make_queue(kind: str, kids=()):
    """An empty ready queue of either engine's class."""
    if kind == "object":
        return _ReadyQueue(tuple(kids))
    row_of: dict[int, int] = {}

    def ensure_row(kid: int) -> None:
        row_of.setdefault(kid, len(row_of))

    return ArrayReadyQueue(ensure_row, row_of, kids)


def instant_context(system, dfg, queue, idle, assignment_of, completed, ready=None):
    """A context over ``queue`` (``ready=None``) or over a plain ``ready``
    tuple with no live queue, which sends APT down the literal scan."""
    views = {
        p.name: ProcessorView(
            processor=p,
            busy=p.name not in idle,
            free_at=0.0 if p.name in idle else 50.0,
            queue_length=0,
            running_kernel=None,
        )
        for p in system
    }
    return SchedulingContext(
        time=0.0,
        ready=ready,
        ready_queue=None if ready is not None else queue,
        dfg=dfg,
        system=system,
        lookup=LOOKUP,
        views=views,
        assignment_of=assignment_of,
        completed=frozenset(completed),
    )


class TestSingleInstants:
    """Random instants, checked call by call against the literal scan.

    Each seed draws a system, a layered graph and a completed prefix of
    its topological order, placed on random processors; the ready set is
    the frontier, in shuffled FCFS order.  Several calls then run on one
    queue: between calls the assigned kernels leave the ready set, some
    come back (an abort's re-add, under a new sequence number) and the
    idle set is redrawn, so the index works incrementally over stale
    entries as it does inside an engine.
    """

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("queue_kind", BACKENDS)
    def test_index_matches_scan(self, seed, queue_kind):
        rng = np.random.default_rng(seed)
        types = list(rng.choice(["cpu", "gpu", "fpga"], size=int(rng.integers(1, 10))))
        system = build_system(types, float(rng.choice([0.05, 0.5, 4.0])))
        names = [p.name for p in system]
        dfg = make_layered_dfg(int(rng.integers(8, 30)), int(rng.integers(2, 5)), rng)
        order = dfg.topological_order()
        done = set(order[: int(rng.integers(len(order) // 4, len(order)))])
        placed = {kid: names[int(rng.integers(len(names)))] for kid in done}
        frontier = [
            kid for kid in order
            if kid not in done and all(p in done for p in dfg.predecessors(kid))
        ]
        rng.shuffle(frontier)
        alpha = float(rng.uniform(1.0, 16.0))
        include_transfer = bool(rng.random() < 0.75)
        busy_first: set[str] = set()
        probe = instant_context(system, dfg, None, set(), placed, done, ready=())
        gaps = [
            (kid, name, t)
            for kid in frontier
            for name in names
            for t in [probe.transfer_time(kid, name)]
            if t > 0
        ]
        if gaps and include_transfer and rng.random() < 0.7:
            # α between some ready kernel's exec time on a processor and
            # its exec + inbound transfer there, so only the transfer term
            # disqualifies that processor; its p_min instances start busy
            kid, name, t = gaps[int(rng.integers(len(gaps)))]
            pmin, x = probe.best_processor_type(kid)
            e = probe.exec_time(kid, system[name].ptype)
            alpha = max(1.0, (e + float(rng.uniform(0.0, 1.0)) * t) / x)
            busy_first = {p.name for p in system if p.ptype == pmin and p.name != name}
        cls = APTLongestFirst if seed % 3 == 0 else APT
        policy = cls(alpha, include_transfer)
        queue = make_queue(queue_kind, frontier)
        for call in range(4):
            idle = {n for n in names if rng.random() < 0.6}
            if call == 0 and busy_first:
                idle = set(names) - busy_first
            ctx = instant_context(system, dfg, queue, idle, placed, done)
            literal = instant_context(
                system, dfg, None, idle, placed, done, ready=queue.as_tuple()
            )
            expected = policy.scan(literal)
            got = policy.select(ctx)
            assert got == expected
            queue.added.clear()  # what the engine does after every call
            for a in got:
                queue.remove(a.kernel_id)
            # aborts: some assigned kernels return; a waiting one re-queues
            for a in got:
                if rng.random() < 0.4:
                    queue.add(a.kernel_id)
            if len(queue) and rng.random() < 0.5:
                kid = queue.as_tuple()[int(rng.integers(len(queue)))]
                queue.remove(kid)
                queue.add(kid)

    @pytest.mark.parametrize("queue_kind", BACKENDS)
    def test_equal_cost_alternatives_keep_declaration_order(self, queue_kind):
        """Two idle alternatives of one category cost the same: strict
        ``<`` must take the first-declared one, like the scan."""
        dfg = DFG("ties")
        kid = dfg.add_kernel(KernelSpec("matmul", 1000))
        all_types = tuple(ProcessorType(t) for t in ("cpu", "gpu", "fpga"))
        best = LOOKUP.best_processor("matmul", 1000, all_types)[0]
        alt = next(t for t in all_types if t != best)
        system = build_system([alt.value, alt.value, best.value])
        # p_min (declared last) is busy; the two alternatives are idle
        idle = {p.name for p in system if p.ptype == alt}
        ctx = instant_context(system, dfg, make_queue(queue_kind, [kid]), idle, {}, ())
        got = APT(alpha=1000.0).select(ctx)
        first_alt = next(p.name for p in system if p.ptype == alt)
        assert [(a.kernel_id, a.processor, a.alternative) for a in got] == [
            (kid, first_alt, True)
        ]

    @pytest.mark.parametrize("queue_kind", BACKENDS)
    def test_pmin_is_the_best_category_present(self, queue_kind):
        """Without the lookup's overall best category in the system, p_min
        is the best category present: the kernel takes it as a plain
        assignment, and with it busy and α = 1 it waits."""
        dfg = DFG("absent")
        kid = dfg.add_kernel(KernelSpec("matmul", 1000))
        all_types = tuple(ProcessorType(t) for t in ("cpu", "gpu", "fpga"))
        best = LOOKUP.best_processor("matmul", 1000, all_types)[0]
        others = tuple(t for t in all_types if t != best)
        present_best = LOOKUP.best_processor("matmul", 1000, others)[0]
        system = build_system([t.value for t in others])
        idle = {p.name for p in system}
        ctx = instant_context(system, dfg, make_queue(queue_kind, [kid]), idle, {}, ())
        got = APT(alpha=4.0).select(ctx)
        target = next(p.name for p in system if p.ptype == present_best)
        assert [(a.processor, a.alternative) for a in got] == [(target, False)]
        idle.discard(target)
        ctx = instant_context(system, dfg, make_queue(queue_kind, [kid]), idle, {}, ())
        assert APT(alpha=1.0).select(ctx) == []

    def test_counters_start_at_zero_and_reset(self):
        policy = APT()
        assert policy.index_counters() == {"pushes": 0, "stale_pops": 0}
        dfg = DFG("one")
        kid = dfg.add_kernel(KernelSpec("matmul", 1000))
        system = build_system(["cpu", "gpu", "fpga"])
        idle = {p.name for p in system}
        policy.select(instant_context(system, dfg, make_queue("object", [kid]), idle, {}, ()))
        assert policy.index_counters()["pushes"] > 0
        policy.reset()
        assert policy.index_counters() == {"pushes": 0, "stale_pops": 0}


# ----------------------------------------------------------------------
# the ready queues' sequence numbers (the index's FCFS key)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("queue_kind", BACKENDS)
class TestReadyQueueSequence:
    def test_insertions_are_stamped_in_rising_order(self, queue_kind):
        queue = make_queue(queue_kind)
        for kid in (7, 3, 9):
            assert queue.add(kid)
        assert queue.added == [1, 2, 3]
        assert queue.kid_at == {1: 7, 2: 3, 3: 9}
        assert list(queue) == [7, 3, 9]

    def test_readd_gets_a_new_number_and_moves_to_the_back(self, queue_kind):
        queue = make_queue(queue_kind, [7, 3, 9])
        queue.added.clear()
        queue.remove(7)
        assert queue.add(7)
        assert queue.added == [4]
        assert queue.kid_at == {2: 3, 3: 9, 4: 7}
        assert queue.as_tuple() == (3, 9, 7)

    def test_adding_a_present_kernel_stamps_nothing(self, queue_kind):
        queue = make_queue(queue_kind, [7, 3])
        assert not queue.add(7)
        assert queue.added == [1, 2]
        assert queue.as_tuple() == (7, 3)

    def test_tuple_is_rebuilt_after_every_change(self, queue_kind):
        queue = make_queue(queue_kind, [1, 2])
        first = queue.as_tuple()
        assert queue.as_tuple() is first  # cached between changes
        queue.add(3)
        assert queue.as_tuple() == (1, 2, 3)
        queue.remove(1)
        assert queue.as_tuple() == (2, 3)
        assert len(queue) == 2 and 1 not in queue and 3 in queue

    def test_context_ready_is_built_from_the_queue(self, queue_kind):
        queue = make_queue(queue_kind, [5, 4])
        dfg = DFG("ctx")
        for _ in range(6):
            dfg.add_kernel(KernelSpec("matmul", 1000))
        system = build_system(["cpu"])
        ctx = instant_context(system, dfg, queue, set(), {}, ())
        assert ctx.ready_queue is queue
        assert ctx.ready == (5, 4)


@pytest.mark.parametrize("backend", BACKENDS)
def test_engine_clears_the_insertion_list_after_every_call(backend):
    """Each call sees only the numbers stamped since the previous one, and
    every one of them is newer than anything an earlier call saw."""

    class Watched(APT):
        def reset(self) -> None:
            super().reset()
            self.calls = 0
            self.newest = 0

        def _indexed(self, view):
            added = list(view.ready_queue.added)
            assert added == sorted(added)
            assert not added or added[0] > self.newest
            if added:
                self.newest = added[-1]
            self.calls += 1
            return super()._indexed(view)

    policy = Watched(alpha=4.0)
    stream = build_stream(["type1", "pipeline", "forkjoin", "chain"], 11, 50.0)
    run_checked(policy, ["cpu", "gpu", "fpga"], stream, (), backend)
    assert policy.calls > 1
