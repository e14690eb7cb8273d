"""Unit tests for the DFG container."""

import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.dfg import DFG, KernelSpec


def k(name="k", size=100) -> KernelSpec:
    return KernelSpec(name, size)


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("", 10)
        with pytest.raises(ValueError):
            KernelSpec("k", 0)

    def test_frozen_and_hashable(self):
        s = k()
        assert hash(s) == hash(KernelSpec("k", 100))
        with pytest.raises(AttributeError):
            s.kernel = "other"


class TestConstruction:
    def test_sequential_ids(self):
        dfg = DFG()
        assert dfg.add_kernel(k()) == 0
        assert dfg.add_kernel(k()) == 1

    def test_explicit_ids(self):
        dfg = DFG()
        assert dfg.add_kernel(k(), kid=7) == 7
        # sequential allocation continues after the explicit id
        assert dfg.add_kernel(k()) == 8

    def test_duplicate_id_rejected(self):
        dfg = DFG()
        dfg.add_kernel(k(), kid=0)
        with pytest.raises(ValueError):
            dfg.add_kernel(k(), kid=0)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            DFG().add_kernel(k(), kid=-1)

    def test_dependency_endpoints_must_exist(self):
        dfg = DFG()
        dfg.add_kernel(k())
        with pytest.raises(KeyError):
            dfg.add_dependency(0, 99)

    def test_self_dependency_rejected(self):
        dfg = DFG()
        dfg.add_kernel(k())
        with pytest.raises(ValueError):
            dfg.add_dependency(0, 0)

    def test_cycle_rejected_and_rolled_back(self):
        dfg = DFG()
        for _ in range(3):
            dfg.add_kernel(k())
        dfg.add_dependency(0, 1)
        dfg.add_dependency(1, 2)
        with pytest.raises(ValueError, match="cycle"):
            dfg.add_dependency(2, 0)
        # the offending edge was rolled back
        assert (2, 0) not in dfg.edges()
        dfg.validate()

    def test_from_kernels_constructor(self):
        dfg = DFG.from_kernels([k("a"), k("b")], dependencies=[(0, 1)], name="x")
        assert len(dfg) == 2
        assert dfg.edges() == [(0, 1)]
        assert dfg.name == "x"


class TestQueries:
    @pytest.fixture
    def diamond(self) -> DFG:
        #   0
        #  / \
        # 1   2
        #  \ /
        #   3
        return DFG.from_kernels(
            [k("a"), k("b"), k("c"), k("d")],
            dependencies=[(0, 1), (0, 2), (1, 3), (2, 3)],
        )

    def test_entry_and_exit(self, diamond):
        assert diamond.entry_kernels() == [0]
        assert diamond.exit_kernels() == [3]

    def test_predecessors_successors(self, diamond):
        assert diamond.predecessors(3) == [1, 2]
        assert diamond.successors(0) == [1, 2]
        assert diamond.predecessors(0) == []

    def test_topological_order_respects_edges(self, diamond):
        order = diamond.topological_order()
        pos = {kid: i for i, kid in enumerate(order)}
        for u, v in diamond.edges():
            assert pos[u] < pos[v]

    def test_iteration_in_id_order(self, diamond):
        assert list(diamond) == [0, 1, 2, 3]

    def test_contains_and_len(self, diamond):
        assert 2 in diamond
        assert 9 not in diamond
        assert len(diamond) == 4
        assert diamond.n_edges == 4

    def test_spec_retrieval(self, diamond):
        assert diamond.spec(1).kernel == "b"

    def test_subgraph_counts(self):
        dfg = DFG.from_kernels([k("x"), k("x"), k("y")])
        assert dfg.subgraph_counts() == {"x": 2, "y": 1}

    def test_copy_is_independent(self, diamond):
        dup = diamond.copy()
        dup.add_kernel(k("extra"))
        assert len(dup) == 5
        assert len(diamond) == 4
        assert dup.edges() == diamond.edges()

    def test_as_networkx_returns_copy(self, diamond):
        g = diamond.as_networkx()
        g.remove_node(0)
        assert 0 in diamond

    def test_empty_dfg(self):
        dfg = DFG()
        assert dfg.is_empty()
        assert dfg.entry_kernels() == []
        dfg.validate()


class TestBulkDependencies:
    def test_bulk_matches_per_edge(self):
        specs = [KernelSpec("k", 10) for _ in range(5)]
        a = DFG.from_kernels(specs)
        b = DFG.from_kernels(specs)
        edges = [(0, 2), (1, 2), (2, 3), (2, 4)]
        for u, v in edges:
            a.add_dependency(u, v)
        b.add_dependencies(edges)
        assert a.edges() == b.edges()

    def test_bulk_rejects_cycle_and_rolls_back(self):
        dfg = DFG.from_kernels([KernelSpec("k", 10) for _ in range(3)])
        dfg.add_dependency(0, 1)
        with pytest.raises(ValueError, match="cycle"):
            dfg.add_dependencies([(1, 2), (2, 0)])
        assert dfg.edges() == [(0, 1)]

    def test_bulk_rejects_unknown_endpoint(self):
        dfg = DFG.from_kernels([KernelSpec("k", 10)])
        with pytest.raises(KeyError):
            dfg.add_dependencies([(0, 99)])

    def test_bulk_rejects_self_dependency(self):
        dfg = DFG.from_kernels([KernelSpec("k", 10) for _ in range(2)])
        with pytest.raises(ValueError, match="self-dependency"):
            dfg.add_dependencies([(1, 1)])


@st.composite
def edge_programs(draw):
    """A kernel count plus a sequence of single-edge and batch insertions."""
    n = draw(st.integers(1, 8))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    ops = draw(
        st.lists(
            st.one_of(edge, st.lists(edge, max_size=5)),
            max_size=25,
        )
    )
    return n, ops


class TestMatchesNetworkxOracle:
    """The DFG against a networkx ``DiGraph`` fed the same insertions."""

    @staticmethod
    def assert_same(dfg: DFG, g: nx.DiGraph) -> None:
        assert dfg.edges() == sorted(g.edges)
        assert dfg.n_edges == g.number_of_edges()
        assert dfg.entry_kernels() == sorted(v for v in g if g.in_degree(v) == 0)
        assert dfg.exit_kernels() == sorted(v for v in g if g.out_degree(v) == 0)
        for v in g:
            assert dfg.predecessors(v) == sorted(g.predecessors(v))
            assert dfg.successors(v) == sorted(g.successors(v))
        assert dfg.topological_order() == list(nx.lexicographical_topological_sort(g))
        assert sorted(dfg.as_networkx().edges) == sorted(g.edges)

    @given(edge_programs())
    @settings(max_examples=200, deadline=None)
    def test_insertions_match_oracle(self, program):
        n, ops = program
        dfg = DFG.from_kernels([k() for _ in range(n)])
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        for op in ops:
            batch = op if isinstance(op, list) else [op]
            trial = g.copy()
            trial.add_edges_from(batch)
            ok = nx.is_directed_acyclic_graph(trial)  # a self-loop is a cycle
            try:
                if isinstance(op, list):
                    dfg.add_dependencies(op)
                else:
                    dfg.add_dependency(*op)
            except ValueError:
                assert not ok
            else:
                assert ok
                g = trial
            self.assert_same(dfg, g)
        dfg.validate()


def test_reversed_chain_decodes_in_one_pass():
    """A long chain listed tail-first decodes through one bulk check."""
    from repro.graphs.serialization import dfg_from_dict

    n = 20_000
    data = {
        "kernels": [{"id": i, "kernel": "k", "data_size": 1} for i in range(n)],
        "dependencies": [[i - 1, i] for i in range(n - 1, 0, -1)],
    }
    dfg = dfg_from_dict(data)
    assert dfg.n_edges == n - 1
    assert dfg.topological_order() == list(range(n))


def test_runtime_path_does_not_import_networkx():
    """A simulation, a sweep job and a stream run never load networkx."""
    script = """
import sys
import numpy as np
from repro.core.simulator import Simulator
from repro.core.system import CPU_GPU_FPGA
from repro.data.paper_tables import paper_lookup_table
from repro.experiments.sweep import PolicySpec, execute_payload, make_job
from repro.graphs.generators import make_type1_dfg, make_type2_dfg
from repro.graphs.streams import periodic_stream
from repro.policies.registry import get_policy

system, lookup = CPU_GPU_FPGA(transfer_rate_gbps=4.0), paper_lookup_table()
sim = Simulator(system, lookup)
sim.run(make_type2_dfg(20, rng=np.random.default_rng(0)), get_policy("apt", alpha=4.0))
job = make_job(make_type1_dfg(10, rng=np.random.default_rng(1)),
               PolicySpec.of("met"), system, lookup)
execute_payload(job.runnable_payload())
stream = periodic_stream(5, 1.0, lambda i, rng: make_type1_dfg(4, rng=rng),
                         np.random.default_rng(2))
sim.run_stream(stream, get_policy("apt", alpha=4.0))
print("networkx" in sys.modules)
"""
    src_dir = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src_dir), "PATH": "/usr/bin:/bin"},
        check=True,
    )
    assert out.stdout.strip() == "False", out.stderr
