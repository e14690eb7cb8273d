"""The kernel dataflow graph (DFG).

The paper models an application stream as ``G = (V, E)`` where ``V`` is a
set of kernels — each with a kernel type (e.g. ``"bfs"``) and a data size —
and ``E`` captures data/computational dependencies (§2.5.1).  Kernel ids
double as arrival order: dynamic schedulers fill their ready queue
"on [a] first-come, first-serve basis" (§3.1), which we realize as
ascending kernel id.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Iterable, Iterator

if TYPE_CHECKING:  # networkx is only needed by DFG.as_networkx()
    import networkx as nx


@dataclass(frozen=True)
class KernelSpec:
    """One kernel instance in a DFG.

    Parameters
    ----------
    kernel:
        Kernel type name; must match a lookup-table kernel (e.g. ``"bfs"``,
        ``"matmul"``).
    data_size:
        Problem size in elements; used both for the lookup-table query and
        for transfer-time computation (bytes = size × element_size).
    """

    kernel: str
    data_size: int

    def __post_init__(self) -> None:
        if not self.kernel:
            raise ValueError("kernel name must be non-empty")
        if self.data_size <= 0:
            raise ValueError(f"data_size must be positive, got {self.data_size}")


class DFG:
    """A directed acyclic graph of kernels.

    Nodes are integer kernel ids (arrival order); each carries a
    :class:`KernelSpec`.  Edges are dependencies: ``u -> v`` means ``v``
    consumes ``u``'s output and cannot start before ``u`` completes.

    Adjacency is kept in insertion-ordered ``dict[int, dict[int, None]]``
    maps (successors and predecessors).  Every insertion keeps the graph
    acyclic, and a cycle check only walks the kernels reachable from the
    new edges' heads, so an edge into a kernel without successors (how
    the generators and the decoder build graphs) costs O(1).
    """

    def __init__(self, name: str = "dfg") -> None:
        self.name = name
        self._specs: dict[int, KernelSpec] = {}
        self._succ: dict[int, dict[int, None]] = {}
        self._pred: dict[int, dict[int, None]] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_kernel(self, spec: KernelSpec, kid: int | None = None) -> int:
        """Add a kernel; returns its id.

        If ``kid`` is omitted, ids are assigned sequentially (arrival
        order).  Explicit ids must not collide with existing nodes.
        """
        if kid is None:
            kid = self._next_id
        if kid in self._specs:
            raise ValueError(f"kernel id {kid} already present")
        if kid < 0:
            raise ValueError(f"kernel ids must be non-negative, got {kid}")
        self._specs[kid] = spec
        self._succ[kid] = {}
        self._pred[kid] = {}
        self._next_id = max(self._next_id, kid + 1)
        return kid

    def add_dependency(self, src: int, dst: int) -> None:
        """Declare that ``dst`` depends on (consumes output of) ``src``."""
        self._check_endpoints(src, dst)
        if dst in self._succ[src]:
            return
        if src in self._reach((dst,)):
            raise ValueError(f"edge {(src, dst)} would create a cycle")
        self._link(src, dst)

    def add_dependencies(self, edges: Iterable[tuple[int, int]]) -> None:
        """Bulk edge insertion with a single acyclicity check.

        One Kahn pass over the kernels reachable from the batch replaces
        a reachability probe per edge, so a batch listed in any order
        costs O(V+E); a batch that would close a cycle is rolled back.
        """
        batch = [(src, dst) for src, dst in edges]
        for src, dst in batch:
            self._check_endpoints(src, dst)
        fresh = [(u, v) for u, v in dict.fromkeys(batch) if v not in self._succ[u]]
        for u, v in fresh:
            self._link(u, v)
        if not self._is_acyclic(self._reach(v for _, v in fresh)):
            for u, v in fresh:
                del self._succ[u][v]
                del self._pred[v][u]
            raise ValueError("edge batch would create a cycle")

    def _check_endpoints(self, src: int, dst: int) -> None:
        if src not in self._specs or dst not in self._specs:
            raise KeyError(f"both endpoints must exist: {(src, dst)}")
        if src == dst:
            raise ValueError(f"self-dependency on kernel {src}")

    def _link(self, src: int, dst: int) -> None:
        self._succ[src][dst] = None
        self._pred[dst][src] = None

    def _reach(self, starts: Iterable[int]) -> dict[int, None]:
        """``starts`` plus every kernel reachable from them (DFS)."""
        succ = self._succ
        seen = dict.fromkeys(starts)
        stack = list(seen)
        while stack:
            for v in succ[stack.pop()]:
                if v not in seen:
                    seen[v] = None
                    stack.append(v)
        return seen

    def _is_acyclic(self, nodes: Collection[int]) -> bool:
        """Kahn's algorithm on the subgraph induced by ``nodes``, which
        must be closed under successors."""
        pred = self._pred
        indeg = {v: sum(u in nodes for u in pred[v]) for v in nodes}
        ready = [v for v, d in indeg.items() if d == 0]
        done = 0
        while ready:
            done += 1
            for v in self._succ[ready.pop()]:
                indeg[v] -= 1
                if not indeg[v]:
                    ready.append(v)
        return done == len(nodes)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def spec(self, kid: int) -> KernelSpec:
        return self._specs[kid]

    def kernel_ids(self) -> list[int]:
        """All kernel ids in arrival (ascending id) order."""
        return sorted(self._specs)

    def predecessors(self, kid: int) -> list[int]:
        return sorted(self._pred[kid])

    def successors(self, kid: int) -> list[int]:
        return sorted(self._succ[kid])

    def edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u, succ in self._succ.items() for v in succ)

    def entry_kernels(self) -> list[int]:
        """Kernels with no dependencies (ready at time zero)."""
        return sorted(k for k, pred in self._pred.items() if not pred)

    def exit_kernels(self) -> list[int]:
        """Kernels nothing depends on."""
        return sorted(k for k, succ in self._succ.items() if not succ)

    def topological_order(self) -> list[int]:
        """A deterministic topological order (lexicographic tie-break)."""
        indeg = {v: len(pred) for v, pred in self._pred.items()}
        heap = [v for v, d in indeg.items() if d == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            u = heapq.heappop(heap)
            order.append(u)
            for v in self._succ[u]:
                indeg[v] -= 1
                if not indeg[v]:
                    heapq.heappush(heap, v)
        return order

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, kid: int) -> bool:
        return kid in self._specs

    def __iter__(self) -> Iterator[int]:
        return iter(self.kernel_ids())

    @property
    def n_edges(self) -> int:
        return sum(map(len, self._succ.values()))

    def is_empty(self) -> bool:
        return len(self) == 0

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        if not self._is_acyclic(self._specs.keys()):
            raise ValueError("DFG contains a cycle")

    def as_networkx(self) -> "nx.DiGraph":
        """A networkx copy of the graph; each node carries its ``spec``.

        networkx is imported here, on demand: nothing else needs it.
        """
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from((kid, {"spec": spec}) for kid, spec in self._specs.items())
        g.add_edges_from(self.edges())
        return g

    # ------------------------------------------------------------------
    def subgraph_counts(self) -> dict[str, int]:
        """Count kernel instances by kernel type (for workload summaries)."""
        counts: dict[str, int] = {}
        for spec in self._specs.values():
            counts[spec.kernel] = counts.get(spec.kernel, 0) + 1
        return dict(sorted(counts.items()))

    def copy(self, name: str | None = None) -> "DFG":
        out = DFG(name or self.name)
        for kid in self.kernel_ids():
            out.add_kernel(self.spec(kid), kid=kid)
        out.add_dependencies(self.edges())
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DFG({self.name!r}, kernels={len(self)}, edges={self.n_edges})"

    # ------------------------------------------------------------------
    @classmethod
    def from_kernels(
        cls,
        specs: Iterable[KernelSpec],
        dependencies: Iterable[tuple[int, int]] = (),
        name: str = "dfg",
    ) -> "DFG":
        """Convenience constructor: kernels in arrival order plus edges."""
        dfg = cls(name)
        for spec in specs:
            dfg.add_kernel(spec)
        dfg.add_dependencies(dependencies)
        return dfg
