"""MET — Minimum Execution Time / "best only" (Braun et al., 2001).

MET assigns each kernel to the processor with the lowest execution time
for it, *waiting* for that processor if it is busy (§2.5.3): "if the best
suited processor for the kernel is not currently available, [the] policy
decides to wait for the best processor to become available".  A processor
can therefore sit idle while suitable work waits for a different device —
the inefficiency APT's threshold removes.

On an engine context the FCFS variant keeps one FCFS heap per p_min
category over the ready queue's sequence numbers, filled as kernels
become ready, instead of rescanning the ready set on every call;
:meth:`MET.scan` keeps the literal walk for the seeded variant and for
contexts without a live ready queue, and is the index's oracle.
"""

from __future__ import annotations

import heapq
from typing import Any

import numpy as np

from repro.policies.base import Assignment, DynamicPolicy, SchedulingContext


class MET(DynamicPolicy):
    """Minimum Execution Time.

    Parameters
    ----------
    rng:
        Braun et al. pick kernels "in a random order from I"; pass a seeded
        :class:`numpy.random.Generator` for that behaviour.  The default
        (``None``) visits the ready queue first-come-first-serve, which is
        deterministic and — because MET only ever waits for one specific
        processor per kernel — produces the same schedules.
    """

    name = "met"
    batchable = True

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self.rng = rng
        # A seeded MET draws a permutation on *every* invocation, so its
        # answers are not a pure function of the context — opt out of the
        # simulator's skip-when-unchanged guard to keep the RNG stream
        # aligned with an always-reinvoking engine.  The same impurity
        # rules out one call per instant: only the deterministic FCFS
        # variant is batchable.
        self.time_sensitive = rng is not None
        self.batchable = rng is None
        self._queue: Any = None
        self._heaps: dict[Any, list[int]] = {}
        self._filed = 0  # the newest sequence number filed

    def reset(self) -> None:
        self._queue = None
        self._heaps = {}
        self._filed = 0

    def select(self, ctx: SchedulingContext) -> list[Assignment]:
        queue = ctx.ready_queue
        if self.rng is not None or queue is None:
            return self.scan(ctx)
        if self._queue is not queue:
            self._queue, self._heaps, self._filed = queue, {}, 0
            seqs: Any = list(queue.kid_at)
        else:
            seqs = queue.added
        # A ready kernel's p_min category never changes: file it once
        # (numbers rise, so anything at or below the newest is filed).
        heaps = self._heaps
        kid_at = queue.kid_at
        filed = self._filed
        for seq in seqs:
            kid = kid_at.get(seq)
            if kid is not None and seq > filed:
                best_ptype, _ = ctx.best_processor_type(kid)
                heapq.heappush(heaps.setdefault(best_ptype, []), seq)
                filed = seq
        self._filed = filed
        # The FCFS walk gives each category's idle instances, in
        # declaration order, to that category's earliest ready kernels.
        idle: dict[Any, list[str]] = {}
        views = ctx.views
        for p in ctx.system:
            if views[p.name].idle:
                idle.setdefault(p.ptype, []).append(p.name)
        picks: list[tuple[int, str]] = []
        for ptype, names in idle.items():
            heap = heaps.get(ptype)
            if not heap:
                continue
            taken: list[int] = []
            for name in names:
                while heap and heap[0] not in kid_at:
                    heapq.heappop(heap)  # assigned since it was filed
                if not heap:
                    break
                seq = heapq.heappop(heap)
                taken.append(seq)
                picks.append((seq, name))
            # back in, so an unapplied answer changes nothing; once the
            # engine applies it they are stale heads, dropped next time
            for seq in taken:
                heapq.heappush(heap, seq)
        picks.sort()
        return [Assignment(kernel_id=kid_at[seq], processor=name) for seq, name in picks]

    def scan(self, ctx: SchedulingContext) -> list[Assignment]:
        """The literal walk over the ready set (random order when seeded)."""
        out: list[Assignment] = []
        # Idle and not yet consumed this call, in system declaration order.
        avail: dict[str, None] = {
            p.name: None for p in ctx.system if ctx.views[p.name].idle
        }
        order = list(ctx.ready)
        if self.rng is not None:
            order = [order[i] for i in self.rng.permutation(len(order))]
        for kid in order:
            if not avail:
                # MET only ever targets a kernel's best category; with no
                # processor available nothing further can be assigned.
                break
            best_ptype, _ = ctx.best_processor_type(kid)
            p_min = next(
                (p.name for p in ctx.system.of_type(best_ptype) if p.name in avail),
                None,
            )
            if p_min is not None:
                del avail[p_min]
                out.append(Assignment(kernel_id=kid, processor=p_min))
        return out
