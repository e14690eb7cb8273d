"""APT — Alternative Processor within Threshold (the paper's contribution).

APT (Algorithm 1, §3.1) is a dynamic heuristic that adds *flexibility* to
MET.  For each ready kernel (FCFS):

1. find ``p_min``, the processor category with the minimum lookup-table
   execution time ``x`` for the kernel;
2. if an instance of ``p_min`` is available, assign the kernel there;
3. otherwise look for an *alternative* processor ``p_alt`` — an available
   processor whose ``execution time + inbound data-transfer time`` is
   within the threshold

   .. math:: threshold = \\alpha \\cdot x, \\qquad \\alpha \\ge 1

   and assign to the best-qualifying one;
4. if no alternative qualifies, the kernel waits (exactly like MET).

``α`` tunes the flexibility: α → 1 degenerates to MET (never accept a
slower processor), large α floods slow processors.  The paper finds a
"valley" with the optimum at α = 4 for its CPU/GPU/FPGA system.

Both engines run APT on one incremental :class:`ReadyIndex` instead of
rescanning the ready set on every call; :meth:`APT.scan` keeps the
literal Algorithm 1 walk for contexts without a live ready queue (the
reference simulator, hand-built contexts) and is the index's oracle.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.policies.base import Assignment, DynamicPolicy, SchedulingContext


class ReadyIndex:
    """APT's incremental ready index over an engine's live ready queue.

    It rests on a freeze property: while a kernel is ready, its
    execution time per category, its p_min and ``x``, and its inbound
    transfer to every processor are fixed — its predecessors have all
    completed and cannot move or retire before it starts, and an abort
    or flush re-adds it under a new sequence number.  So whether a
    kernel qualifies for processor *j* is decided once, when it enters
    the ready set:

    * ``pmin[c]`` — FCFS min-heap of the kernels whose p_min is
      category ``c``;
    * ``alt[j]`` — FCFS min-heap of the kernels of another category for
      which ``exec + inbound transfer(j) ≤ α·x``.

    Entries are the ready queue's sequence numbers (with an
    ``order_key``: ``(key, seq)`` pairs).  An entry whose number is no
    longer live is stale; stale entries are dropped lazily at the heads,
    and in bulk before a heap would outgrow twice the ready set.  One call
    takes the earliest live head over the idle processors' heaps and
    their categories' p_min heaps — exactly the first kernel the FCFS
    scan could assign, since every kernel before it is unassignable
    under a superset of the idle set — assigns it by the paper's rule
    and repeats: O(idle · log R) per instant instead of O(R).
    """

    __slots__ = (
        "queue",
        "alpha",
        "include_transfer",
        "order_key",
        "ptypes",
        "cat_index",
        "names",
        "cat_of",
        "pmin",
        "alt",
        "pushes",
        "stale_pops",
    )

    def __init__(
        self,
        queue: Any,
        system: Any,
        alpha: float,
        include_transfer: bool,
        order_key: "Callable[[int, float], Any] | None",
    ) -> None:
        self.queue = queue
        self.alpha = alpha
        self.include_transfer = include_transfer
        self.order_key = order_key
        self.ptypes = system.processor_types()
        self.cat_index = {pt: c for c, pt in enumerate(self.ptypes)}
        self.names = [p.name for p in system]
        self.cat_of = [self.cat_index[p.ptype] for p in system]
        self.pmin: list[list[Any]] = [[] for _ in self.ptypes]
        self.alt: list[list[Any]] = [[] for _ in self.names]
        #: deterministic work counters (kept out of APT.stats())
        self.pushes = 0
        self.stale_pops = 0

    def _seq(self, entry: Any) -> int:
        return entry if self.order_key is None else entry[1]

    def _push(self, heap: list[Any], entry: Any) -> None:
        # FCFS assignment leaves most stale entries at the heads: drop
        # those on every push.  Stale entries buried behind an older
        # waiting kernel go in one filter once they could make up half
        # the heap, which keeps the filtering amortized O(1) per push.
        live = self.queue.kid_at
        while heap and self._seq(heap[0]) not in live:
            heapq.heappop(heap)
            self.stale_pops += 1
        if len(heap) >= 2 * len(live):
            kept = [e for e in heap if self._seq(e) in live]
            self.stale_pops += len(heap) - len(kept)
            heapq.heapify(kept)
            heap[:] = kept
        heapq.heappush(heap, entry)
        self.pushes += 1

    def ingest(self, view: Any, seqs: "list[int]") -> None:
        """Index the kernels stamped ``seqs`` that are still ready."""
        kid_at = self.queue.kid_at
        cost = view.cost
        assignment_of = view.assignment_of
        alpha = self.alpha
        include_transfer = self.include_transfer
        order_key = self.order_key
        ptypes = self.ptypes
        cat_index = self.cat_index
        pmin = self.pmin
        alt = self.alt
        push = self._push
        for seq in seqs:
            kid = kid_at.get(seq)
            if kid is None:
                continue  # left the ready set again before this call
            spec = view.spec(kid)
            kernel, size = spec.kernel, spec.data_size
            best_ptype, x = cost.best_processor(kernel, size)
            entry = seq if order_key is None else (order_key(kid, x), seq)
            best_cat = cat_index.get(best_ptype, -1)
            if best_cat >= 0:
                push(pmin[best_cat], entry)
            threshold = alpha * x
            execs = [cost.exec_time(kernel, size, pt) for pt in ptypes]
            needs_transfer: bool | None = None if include_transfer else False
            for j, c in enumerate(self.cat_of):
                if c == best_cat:
                    continue
                t = execs[c]
                # transfers are non-negative: a failing exec time fails
                if not t <= threshold:
                    continue
                if needs_transfer is None:
                    preds = view.predecessors(kid)
                    needs_transfer = any(
                        assignment_of.get(p) is not None for p in preds
                    )
                if needs_transfer:
                    t += self._transfer(view, kid, j, preds, size)
                    if not t <= threshold:
                        continue
                push(alt[j], entry)

    def _transfer(self, view: Any, kid: int, j: int, preds: list[int], size: int) -> float:
        """Inbound transfer of ``kid`` to processor ``j`` (frozen while ready)."""
        cost = view.cost
        return cost.inbound_transfer(
            view.dfg, kid, self.names[j], view.assignment_of, preds,
            size * cost.element_size,
        )

    def _head(self, heap: list[Any], taken: set[int]) -> Any:
        """The heap's earliest live entry not taken in this call, or None."""
        kid_at = self.queue.kid_at
        while heap:
            entry = heap[0]
            seq = self._seq(entry)
            if seq in kid_at and seq not in taken:
                return entry
            heapq.heappop(heap)
            self.stale_pops += 1
        return None

    def select(self, view: Any, idle: "list[int]") -> list[Assignment]:
        """Algorithm 1 over the idle processors ``idle`` (declaration order)."""
        out: list[Assignment] = []
        if not idle:
            return out
        kid_at = self.queue.kid_at
        cost = view.cost
        cat_of = self.cat_of
        names = self.names
        avail = list(idle)
        taken: set[int] = set()
        while avail:
            heaps = [self.alt[j] for j in avail]
            heaps += [self.pmin[c] for c in dict.fromkeys(cat_of[j] for j in avail)]
            best = None
            for heap in heaps:
                head = self._head(heap, taken)
                if head is not None and (best is None or head < best):
                    best = head
            if best is None:
                break  # nothing ready qualifies for any idle processor
            seq = self._seq(best)
            taken.add(seq)
            kid = kid_at[seq]
            spec = view.spec(kid)
            kernel, size = spec.kernel, spec.data_size
            best_ptype, x = cost.best_processor(kernel, size)
            best_cat = self.cat_index.get(best_ptype, -1)
            # findBestProc: the first idle p_min instance
            p_min = next((j for j in avail if cat_of[j] == best_cat), None)
            if p_min is not None:
                avail.remove(p_min)
                out.append(Assignment(kernel_id=kid, processor=names[p_min]))
                continue
            # find2ndBestProc: the cheapest qualifying idle processor
            threshold = self.alpha * x
            assignment_of = view.assignment_of
            preds = view.predecessors(kid)
            needs_transfer = self.include_transfer and any(
                assignment_of.get(p) is not None for p in preds
            )
            best_alt = -1
            best_cost = float("inf")
            for j in avail:
                t = cost.exec_time(kernel, size, self.ptypes[cat_of[j]])
                if not t <= threshold:
                    continue
                if needs_transfer:
                    t += self._transfer(view, kid, j, preds, size)
                if t <= threshold and t < best_cost:
                    best_alt, best_cost = j, t
            if best_alt < 0:  # pragma: no cover - index out of step
                raise RuntimeError(f"APT index: kernel {kid} qualifies nowhere")
            avail.remove(best_alt)
            out.append(
                Assignment(kernel_id=kid, processor=names[best_alt], alternative=True)
            )
        return out


class APT(DynamicPolicy):
    """Alternative Processor within Threshold.

    Parameters
    ----------
    alpha:
        Threshold multiplier (≥ 1).  ``threshold = alpha * x`` where ``x``
        is the kernel's execution time on its best processor.
    include_transfer:
        Whether the alternative-processor test compares
        ``exec + transfer ≤ threshold`` (the paper's definition of
        ``p_alt``; default) or ``exec ≤ threshold`` alone.  Exposed as an
        ablation knob.
    """

    name = "apt"
    time_sensitive = False
    batchable = True

    #: The ready-set visiting order: ``None`` is FCFS (the ready queue's
    #: sequence numbers).  A subclass may set ``order_key(kid, x)`` to a
    #: total order over ready kernels (``x``: the kernel's p_min time);
    #: both the index and the literal scan then visit in that order.
    order_key: "Callable[[int, float], Any] | None" = None

    def __init__(self, alpha: float = 4.0, include_transfer: bool = True) -> None:
        if alpha < 1.0:
            raise ValueError(f"alpha must be >= 1 (got {alpha})")
        self.alpha = float(alpha)
        self.include_transfer = bool(include_transfer)
        self._alt_by_kernel: dict[str, int] = {}
        self._index: ReadyIndex | None = None

    def reset(self) -> None:
        self._alt_by_kernel = {}
        self._index = None

    def stats(self) -> dict[str, object]:
        """Alternative-assignment counts, as in paper Tables 15/16."""
        return {
            "alternative_assignments": sum(self._alt_by_kernel.values()),
            "alternative_by_kernel": dict(sorted(self._alt_by_kernel.items())),
            "alpha": self.alpha,
        }

    def index_counters(self) -> dict[str, int]:
        """The ready index's work this run: heap pushes and stale entries
        dropped.  Deterministic for a given run, so tests can pin them."""
        index = self._index
        if index is None:
            return {"pushes": 0, "stale_pops": 0}
        return {"pushes": index.pushes, "stale_pops": index.stale_pops}

    # ------------------------------------------------------------------
    def select(self, ctx: SchedulingContext) -> list[Assignment]:
        if ctx.ready_queue is None:
            out = self.scan(ctx)
        else:
            index = self._indexed(ctx)
            views = ctx.views
            idle = [j for j, name in enumerate(index.names) if views[name].idle]
            out = index.select(ctx, idle)
        self._count_alternatives(ctx, out)
        return out

    def select_batch(self, batch) -> list[Assignment]:
        out = self._indexed(batch).select(batch, batch.idle_cols)
        self._count_alternatives(batch, out)
        return out

    def _indexed(self, view: Any) -> ReadyIndex:
        """The index over ``view``'s ready queue, brought up to date."""
        queue = view.ready_queue
        index = self._index
        if index is None or index.queue is not queue:
            index = self._index = ReadyIndex(
                queue, view.system, self.alpha, self.include_transfer, self.order_key
            )
            index.ingest(view, list(queue.kid_at))
        else:
            index.ingest(view, queue.added)
        return index

    def _count_alternatives(self, view: Any, out: list[Assignment]) -> None:
        for a in out:
            if a.alternative:
                kernel_name = view.spec(a.kernel_id).kernel
                self._alt_by_kernel[kernel_name] = (
                    self._alt_by_kernel.get(kernel_name, 0) + 1
                )

    def scan(self, ctx: SchedulingContext) -> list[Assignment]:
        """Algorithm 1 as written: one walk over the whole ready set.

        Runs on contexts without a live ready queue, and is the oracle
        the index is tested against.  Updates no statistics.
        """
        out: list[Assignment] = []
        ready: Any = ctx.ready
        order_key = self.order_key
        if order_key is not None:
            ready = sorted(
                ready, key=lambda kid: order_key(kid, ctx.best_processor_type(kid)[1])
            )
        # Available = idle and not consumed by an assignment made earlier
        # in this call, in system declaration order.
        avail: dict[str, None] = {
            p.name: None for p in ctx.system if ctx.views[p.name].idle
        }
        ptype_of = {p.name: p.ptype for p in ctx.system}

        for kid in ready:
            if not avail:
                # No processor can accept work: neither a p_min nor an
                # alternative exists for any remaining kernel.
                break
            best_ptype, x = ctx.best_processor_type(kid)
            # findBestProc: an available instance of the best category.
            p_min = next(
                (p.name for p in ctx.system.of_type(best_ptype) if p.name in avail),
                None,
            )
            if p_min is not None:
                del avail[p_min]
                out.append(Assignment(kernel_id=kid, processor=p_min))
                continue
            # find2ndBestProc: cheapest available processor within threshold.
            threshold = self.alpha * x
            # Inbound transfers exist only when some predecessor already ran
            # on another processor — hoisted out of the candidate scan.
            needs_transfer = self.include_transfer and any(
                ctx.assignment_of.get(p) is not None for p in ctx.predecessors(kid)
            )
            best_alt: str | None = None
            best_cost = float("inf")
            for name in avail:
                cost = ctx.exec_time(kid, ptype_of[name])
                if needs_transfer:
                    cost += ctx.transfer_time(kid, name)
                if cost <= threshold and cost < best_cost:
                    best_alt, best_cost = name, cost
            if best_alt is not None:
                del avail[best_alt]
                out.append(
                    Assignment(kernel_id=kid, processor=best_alt, alternative=True)
                )
            # else: wait for p_min, like MET.
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"APT(alpha={self.alpha}, include_transfer={self.include_transfer})"
