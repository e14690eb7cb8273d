"""Array-native engine hot path (the ``"array"`` backend).

:class:`ArrayEngineCore` re-hosts :class:`~repro.core.engine.EngineCore`'s
hot state on flat numpy struct-of-arrays records:

* a **kernel table** — per-kernel execution times across the system's
  processor categories and the p_min category — filled
  lazily the first time a kernel becomes ready and indexed by a compact
  row number, so whole-ready-set policy scoring is two fancy-indexing
  operations instead of thousands of memo-dict probes;
* an **array-backed ready queue** (:class:`ArrayReadyQueue`) that keeps
  the object queue's FCFS semantics while caching the ready rows as an
  index vector;
* an **array-backed event heap** (:class:`ArrayEventHeap`) storing
  events as parallel slot arrays — the hot completion path pushes and
  pops bare ``(time, kind, payload)`` records without materializing
  :class:`~repro.core.events.Event` objects;
* **lazy processor views** (:class:`_LazyViews`) that defer
  :class:`~repro.policies.base.ProcessorView` construction to first
  read, eliminating the object path's per-mutation and per-clock-move
  view rebuilds;
* **batched policy evaluation**: policies declaring
  :attr:`~repro.policies.base.Policy.batchable` are driven through
  ``select_batch(BatchContext)`` — one vectorized call per scheduling
  instant (the ``select_batch`` contract *is* the whole fixpoint, so the
  array loop calls it once instead of iterating to quiescence);
* **event epochs**: all simultaneous completion records drain as one
  batch (:meth:`ArrayEngineCore._complete_epoch`) — per-record
  bookkeeping first, then one batched successor ready-propagation over
  the CSR predecessor-count array ``_rp``, then per-record finish hooks
  and backfill starts.  Equal-timestamp ordering is preserved because
  the phases only reorder operations that cannot observe each other
  (see docs/architecture.md for the invariant-by-invariant argument);
* an **optional compiled kernel layer** (:mod:`repro.core._kernels`):
  the CSR ready-propagation runs numba-jitted when selected via
  ``REPRO_JIT`` / ``Simulator(jit=...)`` and numba is importable, with
  a bit-identical pure-numpy fallback otherwise.

Everything else — the dynamics layers (admission, contention, faults,
preemption, retirement, metrics), assignment validation, start/abort
mechanics — is inherited unchanged from the object core, which is what
keeps the two backends bit-for-bit identical (pinned by
``tests/test_simulator_equivalence.py`` and ``tests/test_engine_fuzz.py``).

Fallback triggers (the per-kernel ``select`` path is used instead of
``select_batch``) — see docs/architecture.md:

* the driver's :attr:`~repro.policies.base.Policy.batchable` is false
  (AG, Random, the Braun batch-mode trio, seeded MET; the plan
  dispatcher driving HEFT/PEFT/CPOP *is* batchable since PR 10);
* the driver's class overrides ``select`` *below* the class providing
  ``select_batch`` (e.g. APT-RT subclasses APT) — detected
  structurally, so a forgotten override can never make the two paths
  diverge silently.

Memory note: kernel-table rows are **recycled** — when
:class:`~repro.core.dynamics.RetirementDynamics` retires a kernel, its
row returns to a free list (:meth:`ArrayEngineCore.release_kernel`) and
is reused by the next admitted kernel, so hot state stays bounded on
open-system streams (the 1M-kernel scenario runs in a few thousand
rows).  Only the kid-indexed ``_rp`` predecessor-count array grows with
total admissions, at 4 bytes per kernel.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.core._kernels import get_kernels, resolve_jit
from repro.core.engine import EngineCore, _ReadyQueue
from repro.core.events import _ARRIVAL_RANK, Event, EventKind
from repro.policies.base import ProcessorView
from repro.profiling import record_engine_run

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cost import CostModel
    from repro.core.system import SystemConfig
    from repro.policies.base import DynamicPolicy, Policy


def driver_is_batchable(driver) -> bool:
    """Whether the array backend may route ``driver`` through ``select_batch``.

    Requires the ``batchable`` flag (checked on the *instance*, so a
    seeded MET can opt out in ``__init__``) and a structural guarantee:
    the class providing ``select_batch`` must sit at or below the class
    providing ``select`` in the MRO.  A subclass that re-defines
    ``select`` (APT-RT, the APT queue-discipline ablation) without a
    matching ``select_batch`` would otherwise inherit a batch path that
    no longer mirrors its per-kernel behavior.
    """
    if not getattr(driver, "batchable", False):
        return False
    cls = type(driver)
    sel_owner = next((c for c in cls.__mro__ if "select" in c.__dict__), None)
    sb_owner = next((c for c in cls.__mro__ if "select_batch" in c.__dict__), None)
    if sel_owner is None or sb_owner is None:
        return False
    return issubclass(sb_owner, sel_owner)


class _PredCounts(dict):
    """``remaining_preds`` whose writes mirror into the engine's dense
    predecessor-count array ``_rp``.

    On the array path ``_rp`` is the authoritative copy: the epoch
    completion path decrements *only* the array (so dict values go
    stale after a kernel's first predecessor completes), and every read
    goes through :meth:`~repro.core.engine.EngineCore.pred_count`.  The
    dict itself survives as the admission/retirement ledger — admission
    layers write through it (mirrored here), retirement ``del``s its
    entries (the stale ``_rp`` slot is never read again).
    """

    __slots__ = ("_engine",)

    def __init__(self, engine: "ArrayEngineCore") -> None:
        super().__init__()
        self._engine = engine

    def __setitem__(self, kid: int, value: int) -> None:
        dict.__setitem__(self, kid, value)
        rp = self._engine._rp
        if kid >= rp.shape[0]:
            rp = self._engine._grow_rp(kid)
        rp[kid] = value

    def update(self, other=(), **kw) -> None:  # type: ignore[override]
        # dict.update bypasses __setitem__ — route every pair through it
        items = other.items() if hasattr(other, "items") else other
        for k, v in items:
            self[k] = v
        for k, v in kw.items():
            self[k] = v


class ArrayReadyQueue(_ReadyQueue):
    """The ready set, with a cached row-index vector for batch scoring.

    Semantics are identical to the object queue (insertion-ordered dict:
    FCFS iteration, re-add keeps position); additionally every ``add``
    runs the engine's ensure-row callback so the kernel table is filled
    exactly when a kernel first becomes schedulable — which covers batch
    and streaming admission, completion fan-out and abort re-adds
    without touching any dynamics layer.

    The row vector is maintained *incrementally*: an append-only buffer
    of row ids plus a liveness mask, compacted when holes dominate.  The
    buffer mirrors the dict exactly — appends land at the end like dict
    insertion, removals leave order untouched, re-adding a present key
    changes nothing — so ``rows()`` is one C-speed boolean filter
    instead of an O(ready) Python loop per ready-set change.
    """

    __slots__ = ("_ensure_row", "_row_of", "_buf", "_mask", "_n", "_pos", "_rows")

    def __init__(
        self, ensure_row, row_of: dict[int, int], items: "Iterable[int]" = ()
    ) -> None:
        self._ensure_row = ensure_row
        self._row_of = row_of
        self._buf = np.empty(1024, dtype=np.intp)
        self._mask = np.zeros(1024, dtype=bool)
        self._n = 0  # high-water mark of the buffer (live slots + holes)
        self._pos: dict[int, int] = {}  # kid -> buffer slot
        self._rows: np.ndarray | None = None
        super().__init__(tuple(items))

    def _append(self, kid: int) -> None:
        n = self._n
        if n == len(self._buf):
            cap = 2 * n
            buf = np.empty(cap, dtype=np.intp)
            buf[:n] = self._buf
            mask = np.zeros(cap, dtype=bool)
            mask[:n] = self._mask[:n]
            self._buf, self._mask = buf, mask
        self._buf[n] = self._row_of[kid]
        self._mask[n] = True
        self._pos[kid] = n
        self._n = n + 1

    def add(self, kid: int) -> bool:
        if not super().add(kid):
            return False  # dict re-add keeps position; the buffer must too
        self._rows = None
        self._ensure_row(kid)
        self._append(kid)
        return True

    def remove(self, kid: int) -> None:
        super().remove(kid)
        self._rows = None
        self._mask[self._pos.pop(kid)] = False
        if self._n > 64 and 2 * len(self._d) < self._n:
            self._compact()

    def _compact(self) -> None:
        # live slots in buffer order == dict order (both are insertion
        # order with deletions), so a boolean squeeze preserves FCFS
        n_live = len(self._d)
        self._buf[:n_live] = self._buf[: self._n][self._mask[: self._n]]
        self._mask[:n_live] = True
        self._mask[n_live : self._n] = False
        self._n = n_live
        self._pos = {kid: i for i, kid in enumerate(self._d)}

    def rows(self) -> np.ndarray:
        """Kernel-table rows of the ready kernels, in FCFS order."""
        if self._rows is None:
            self._rows = self._buf[: self._n][self._mask[: self._n]]
        return self._rows


class ArrayEventHeap:
    """Event heap over parallel slot arrays — no per-event objects.

    Same ordering contract as :class:`~repro.core.events.EventQueue`:
    ``(time, arrival-rank, push sequence)``, with
    ``KERNEL_READY``/``APP_ARRIVAL`` ranked before progress events at
    equal timestamps.  The hot path uses the record API
    (:meth:`push_record` / :meth:`pop_simultaneous_records`); the
    Event-based API is kept for the dynamics layers and the test suite,
    which exercises both against ``EventQueue`` property-style.
    """

    __slots__ = ("_time", "_kind", "_payload", "_free", "_heap", "_seq")

    def __init__(self) -> None:
        # slot arrays: one entry per live event, recycled through _free
        self._time: list[float] = []
        self._kind: list[EventKind] = []
        self._payload: list[object] = []
        self._free: list[int] = []
        self._heap: list[tuple[float, int, int, int]] = []
        self._seq = 0

    def push_record(self, time: float, kind: EventKind, payload: object) -> None:
        if time < 0:
            raise ValueError(f"event time must be >= 0 (got {time})")
        if self._free:
            slot = self._free.pop()
            self._time[slot] = time
            self._kind[slot] = kind
            self._payload[slot] = payload
        else:
            slot = len(self._time)
            self._time.append(time)
            self._kind.append(kind)
            self._payload.append(payload)
        self._seq += 1
        heapq.heappush(self._heap, (time, _ARRIVAL_RANK.get(kind, 1), self._seq, slot))

    def push(self, event: Event) -> None:
        self.push_record(event.time, event.kind, event.payload)

    def _pop_record(self) -> tuple[float, EventKind, object]:
        _, _, _, slot = heapq.heappop(self._heap)
        self._free.append(slot)
        return self._time[slot], self._kind[slot], self._payload[slot]

    def pop_simultaneous_records(self) -> list[tuple[float, EventKind, object]]:
        """All records at the earliest pending time, in queue order."""
        first = self._pop_record()
        out = [first]
        t = first[0]
        heap = self._heap
        while heap and heap[0][0] == t:
            out.append(self._pop_record())
        return out

    # -- Event-materializing compatibility API -------------------------
    def pop(self) -> Event:
        return Event(*self._pop_record())

    def peek(self) -> Event:
        slot = self._heap[0][3]
        return Event(self._time[slot], self._kind[slot], self._payload[slot])

    def pop_simultaneous(self) -> list[Event]:
        return [Event(*rec) for rec in self.pop_simultaneous_records()]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class _LazyViews(dict):
    """Processor views rebuilt on first read instead of on every mutation.

    The object engine rebuilds a :class:`ProcessorView` after each
    processor-state mutation *and* clamps idle processors' ``free_at``
    on every clock move.  Here ``refresh_view`` only marks the view
    dirty; a read rebuilds when the view is dirty **or** its recorded
    ``free_at`` fell behind the clock (exactly the object path's clamp
    condition — a cached view with ``free_at >= now`` is still what a
    fresh rebuild would produce, since rebuilds clamp ``free_at`` to
    ``max(state.free_at, now)``).
    """

    __slots__ = ("_engine",)

    def __init__(self, engine: "ArrayEngineCore") -> None:
        super().__init__()
        self._engine = engine

    def __getitem__(self, name: str) -> ProcessorView:
        e = self._engine
        if name in e._view_dirty:
            e._rebuild_view(name)
            return dict.__getitem__(self, name)
        view = dict.__getitem__(self, name)
        if view.free_at < e.now:
            e._rebuild_view(name)
            return dict.__getitem__(self, name)
        return view

    def get(self, name: str, default=None):
        if name in self:
            return self.__getitem__(name)
        return default

    def _flush(self) -> None:
        e = self._engine
        for name in sorted(e._view_dirty):
            e._rebuild_view(name)
        now = e.now
        for name, view in dict.items(self):
            if view.free_at < now:
                e._rebuild_view(name)

    def values(self):
        self._flush()
        return dict.values(self)

    def items(self):
        self._flush()
        return dict.items(self)


class BatchContext:
    """What a :meth:`~repro.policies.base.DynamicPolicy.select_batch` sees.

    One instance is built per fixpoint iteration; everything heavier
    than the idle scan is computed lazily because most policies need
    only a subset.  Index spaces:

    * *ready space* — position ``i`` in :attr:`ready` (FCFS order);
    * *idle space* — position ``j`` in :attr:`idle_names` /
      :attr:`idle_cats` / :attr:`idle_cols` (system declaration order,
      idle processors only).

    :meth:`exec_idle` is the ``[ready × idle]`` execution-time matrix
    bridging the two.  The per-kernel accessors (``system``, ``cost``,
    ``dfg``, ``assignment_of``, :meth:`spec`, :meth:`predecessors`,
    ``ready_queue``) mirror
    :class:`~repro.policies.base.SchedulingContext`, so an incremental
    policy index serves both engines through one code path.
    """

    __slots__ = ("_e", "_ready", "idle_names", "idle_cats", "idle_cols")

    def __init__(self, engine: "ArrayEngineCore") -> None:
        self._e = engine
        self._ready: tuple[int, ...] | None = None
        cols: list[int] = []
        names: list[str] = []
        cats: list[int] = []
        cat_of_proc = engine._cat_of_proc
        procs = engine.procs
        for j, name in enumerate(engine.proc_names):
            st = procs[name]
            if (
                st.running is None
                and not st.queue
                and not st.faulted
                and not st.penalized
            ):
                cols.append(j)
                names.append(name)
                cats.append(cat_of_proc[j])
        self.idle_cols: list[int] = cols
        self.idle_names: tuple[str, ...] = tuple(names)
        self.idle_cats: list[int] = cats

    @property
    def ready(self) -> tuple[int, ...]:
        """The ready kernels in FCFS order (built on first read)."""
        ready = self._ready
        if ready is None:
            ready = self._ready = self._e.ready.as_tuple()
        return ready

    @property
    def ready_queue(self) -> ArrayReadyQueue:
        """The engine's live ready queue (sequence numbers, insertions)."""
        return self._e.ready

    # -- kernel-table slices (ready space) ------------------------------
    def _rows(self) -> np.ndarray:
        return self._e.ready.rows()

    def exec_idle(self) -> np.ndarray:
        """Execution times ``[len(ready) × len(idle)]`` (lookup-table, no noise)."""
        cats = np.asarray(self.idle_cats, dtype=np.intp)
        return self._e._exec_ms[self._rows()[:, None], cats[None, :]]

    def best_cat(self) -> np.ndarray:
        """p_min category index per ready kernel (``-1``: not in this system)."""
        return self._e._best_cat[self._rows()]

    def idle_by_category(self) -> dict[int, deque[str]]:
        """Idle processor names per category index, declaration order."""
        free: dict[int, deque[str]] = {}
        for name, c in zip(self.idle_names, self.idle_cats):
            free.setdefault(c, deque()).append(name)
        return free

    def is_ready(self, kid: int) -> bool:
        """Whether ``kid`` is still in the ready set (plan dispatch)."""
        return kid in self._e.ready

    # -- per-kernel helpers mirroring SchedulingContext -----------------
    @property
    def system(self) -> "SystemConfig":
        return self._e.system

    @property
    def cost(self) -> "CostModel":
        return self._e.cost

    @property
    def dfg(self):
        return self._e.graph

    @property
    def assignment_of(self) -> dict[int, str]:
        return self._e.assignment_of

    def spec(self, kid: int):
        return self._e.specs[kid]

    def predecessors(self, kid: int) -> list[int]:
        return self._e.preds_of[kid]


class ArrayEngineCore(EngineCore):
    """:class:`EngineCore` with numpy struct-of-arrays hot state.

    Drop-in: same constructor, same layer protocol, same observable
    behavior (schedules, metrics, policy stats) — selected through
    ``backend="array"`` on :class:`~repro.core.simulator.Simulator` or
    :func:`~repro.core.engine.make_engine`.
    """

    _ROW_CAP0 = 1024  # initial kernel-table capacity (doubles on demand)

    def __init__(
        self,
        system: "SystemConfig",
        cost: "CostModel",
        policy: "Policy",
        driver: "DynamicPolicy",
        noise_sigma: float = 0.0,
        noise_seed: int = 0,
        jit: "str | bool | None" = None,
    ) -> None:
        # created before super().__init__ — the base constructor calls
        # the overridden refresh_view, which records into this set
        self._view_dirty: set[str] = set()
        super().__init__(
            system,
            cost,
            policy,
            driver,
            noise_sigma=noise_sigma,
            noise_seed=noise_seed,
        )
        self._jit_active = resolve_jit(jit)
        self._kern = get_kernels(self._jit_active)
        # processor categories, in system first-appearance order (the
        # same order CostModel.best_processor resolves p_min against)
        self._ptypes = tuple(system.processor_types())
        self._n_cats = len(self._ptypes)
        self._cat_idx = {pt: c for c, pt in enumerate(self._ptypes)}
        self._cat_of_proc = tuple(self._cat_idx[p.ptype] for p in system)
        # kernel table (grow-only; rows filled lazily at first ready-add)
        cap = self._ROW_CAP0
        self._exec_ms = np.empty((cap, self._n_cats), dtype=np.float64)
        self._best_cat = np.empty(cap, dtype=np.intp)
        self._row_of: dict[int, int] = {}
        self._n_rows = 0
        self._free_rows: list[int] = []  # retired rows awaiting reuse
        self._rows_released = 0
        # dense predecessor counts, kid-indexed (authoritative; the
        # remaining_preds dict mirrors admission writes into it)
        self._rp = np.zeros(cap, dtype=np.int32)
        self.remaining_preds = _PredCounts(self)
        # phase-profiler state: counters are always on (plain ints);
        # wall-clock per phase only when a profiler is attached
        self.profiler = None
        self._n_epochs = 0
        self._n_events = 0
        self._n_batch_calls = 0
        # array-native replacements for the hot containers
        self.ready = ArrayReadyQueue(self._ensure_row, self._row_of)
        self.events = ArrayEventHeap()
        self.views = _LazyViews(self)
        self._view_dirty.clear()
        for name in self.procs:
            self._rebuild_view(name)
        self._batch_driver = driver if driver_is_batchable(driver) else None

    # ------------------------------------------------------------------
    # kernel table
    # ------------------------------------------------------------------
    def _ensure_row(self, kid: int) -> None:
        if kid in self._row_of:
            return
        if self._free_rows:
            # recycle a retired kernel's row: every per-row field is
            # (re)written below
            row = self._free_rows.pop()
        else:
            row = self._n_rows
            if row >= len(self._best_cat):
                cap = 2 * len(self._best_cat)
                for attr in ("_exec_ms", "_best_cat"):
                    old = getattr(self, attr)
                    new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
                    new[:row] = old[:row]
                    setattr(self, attr, new)
            self._n_rows = row + 1
        self._row_of[kid] = row
        spec = self.specs[kid]
        cost = self.cost
        exec_row = self._exec_ms[row]
        for c, pt in enumerate(self._ptypes):
            exec_row[c] = cost.exec_time(spec.kernel, spec.data_size, pt)
        best_pt, _ = cost.best_processor(spec.kernel, spec.data_size)
        self._best_cat[row] = self._cat_idx.get(best_pt, -1)

    def _grow_rp(self, kid: int) -> np.ndarray:
        cap = max(2 * self._rp.shape[0], kid + 1)
        rp = np.zeros(cap, dtype=np.int32)
        rp[: self._rp.shape[0]] = self._rp
        self._rp = rp
        return rp

    def pred_count(self, kid: int) -> int:
        return int(self._rp[kid])

    def release_kernel(self, kid: int) -> None:
        """Return a retired kernel's row to the free list.

        Called by :class:`~repro.core.dynamics.RetirementDynamics` once
        nothing can query the kernel again — a retired kernel is
        completed and long out of the ready set, so no buffered ready
        row or pending batch can still reference the slot.
        """
        row = self._row_of.pop(kid, None)
        if row is None:
            return
        self._free_rows.append(row)
        self._rows_released += 1

    # ------------------------------------------------------------------
    # lazy views
    # ------------------------------------------------------------------
    def refresh_view(self, name: str) -> None:
        self._view_dirty.add(name)

    def _rebuild_view(self, name: str) -> None:
        st = self.procs[name]
        free_at = st.free_at
        now = self.now
        dict.__setitem__(
            self.views,
            name,
            ProcessorView(
                self.system[name],
                st.running is not None,
                free_at if free_at > now else now,
                len(st.queue),
                st.running,
                not (st.faulted or st.penalized),
            ),
        )
        self._view_dirty.discard(name)

    # ------------------------------------------------------------------
    # record-based event hot path
    # ------------------------------------------------------------------
    def _push_completion(self, finish: float, kid: int, name: str, token: int) -> None:
        self.events.push_record(finish, EventKind.KERNEL_COMPLETE, (kid, name, token))

    def _fixpoint(self) -> None:
        # The select_batch contract ("exactly the assignments the select
        # fixpoint would have produced across all of its invocations at
        # the current instant") sanctions a single call per instant —
        # after applying it, a re-invocation would return [] by
        # definition, so the object path's convergence loop is skipped.
        driver = self._batch_driver
        if driver is None:
            return super()._fixpoint()
        if not self.ready:
            return
        sig = (self.state_version, self.now if self.time_sensitive else None)
        if self._last_empty == sig:
            return
        self._n_batch_calls += 1
        assignments = driver.select_batch(BatchContext(self))
        self.ready.added.clear()
        if assignments:
            self.apply_assignments(assignments)
        else:
            self._last_empty = sig

    def _complete(self, kid: int, name: str, token: int) -> None:
        # single-record epoch: identical operation order to the object
        # path's _complete (mixed same-instant batches route through
        # here record by record)
        self._complete_epoch(((kid, name, token),))

    def _complete_epoch(self, payloads) -> None:
        """Drain an epoch of simultaneous completion records, batched.

        Three phases, each in record order: (A) per-kernel finish
        bookkeeping; (B) one CSR ready-propagation over all successors;
        (C) finish hooks and backfill starts.  The phase split reorders
        hooks across *records* relative to the object path, which is
        unobservable: strictly positive execution times mean no kernel
        in this epoch is a predecessor or successor of another, one
        completion per processor per epoch means no record shares
        processor state, and the standard dynamics layers' retirement
        scans are local to the finished kernel and its predecessors —
        the invariant-by-invariant argument lives in
        docs/architecture.md.
        """
        procs = self.procs
        live = self._live_token
        view_dirty = self._view_dirty
        completed = self.completed
        defer = self._defer_entries
        finished: list[tuple[int, str]] = []
        for kid, name, token in payloads:
            if live[name] != token:
                continue  # stale: that start was aborted
            st = procs[name]
            if st.running != kid:  # pragma: no cover - defensive
                from repro.core.engine import SchedulingError

                raise SchedulingError(
                    f"completion event for kernel {kid} on {name}, "
                    f"but {st.running} is running"
                )
            st.running = None
            view_dirty.add(name)
            completed.add(kid)
            if defer:
                self.record_entry(self._pending_entry.pop(name))
            finished.append((kid, name))
        if not finished:
            return
        self.n_completed += len(finished)
        self.state_version += 1
        succs_of = self.succs_of
        succ_all: list[int] = []
        for kid, _ in finished:
            succ_all += succs_of[kid]
        if succ_all:
            newly = self._kern.csr_propagate(
                self._rp, np.asarray(succ_all, dtype=np.int64)
            )
            if len(newly):
                not_arrived = self.not_arrived
                ready = self.ready
                ready_time = self.ready_time
                ready_hooks = self._ready_hooks
                now = self.now
                for s in newly:
                    succ = int(s)
                    if succ in not_arrived:
                        continue
                    ready_time[succ] = now
                    ready.add(succ)
                    for h in ready_hooks:
                        h(succ)
        finish_hooks = self._finish_hooks
        for kid, name in finished:
            for h in finish_hooks:
                h(kid, name)
            # a queued kernel may start immediately on the freed processor
            self.start_if_possible(name)

    def profile_counters(self) -> dict[str, object]:
        """Phase-profiler counters (always-on ints; wall-clock when a
        :class:`~repro.profiling.PhaseProfiler` is attached)."""
        out: dict[str, object] = {
            "backend": "array",
            "jit_active": self._jit_active,
            "jit_runs": 1 if self._jit_active else 0,
            "n_epochs": self._n_epochs,
            "n_events": self._n_events,
            "n_batch_selects": self._n_batch_calls,
            "n_completed": self.n_completed,
            "kernel_table_rows": self._n_rows,
            "rows_released": self._rows_released,
            "rows_in_use": len(self._row_of),
        }
        if self._n_epochs:
            out["events_per_epoch"] = round(self._n_events / self._n_epochs, 3)
        if self.profiler is not None:
            out["phase_ms"] = self.profiler.snapshot()
        return out

    def run_loop(self) -> None:
        """Base loop on event records, drained in epochs: all
        simultaneous completions batch through ``_complete_epoch``, no
        Event objects on the hot path, no per-clock-move view refresh
        (views are lazy)."""
        for layer in self._layers:
            layer.on_run_start()
        for layer in self._layers:
            layer.on_run_open()
        if len(self._entry_hooks) == 1:
            self.record_entry = self._entry_hooks[0]  # type: ignore[method-assign]
        from repro.core.engine import SchedulingError

        events = self.events
        handlers = self._handlers
        observe_hooks = self._observe_hooks
        complete = EventKind.KERNEL_COMPLETE
        prof = self.profiler
        while self.n_completed < self.n_admitted or self.more_arrivals:
            if prof is None:
                self._fixpoint()
            else:
                t0 = prof.now()
                self._fixpoint()
                prof.add("fixpoint", t0, prof.now())

            if not events:
                raise SchedulingError(
                    f"{self.policy.name}: deadlock at t={self.now} — "
                    f"{self.n_admitted - self.n_completed} kernels unfinished, "
                    f"no events pending (ready={list(self.ready)})"
                )

            batch = events.pop_simultaneous_records()
            self.now = batch[0][0]
            self._n_epochs += 1
            self._n_events += len(batch)
            t0 = 0.0 if prof is None else prof.now()
            if len(batch) == 1:
                time, kind, payload = batch[0]
                if kind is complete:
                    self._complete_epoch((payload,))
                else:
                    handlers[kind](Event(time, kind, payload))
            else:
                all_complete = True
                for rec in batch:
                    if rec[1] is not complete:
                        all_complete = False
                        break
                if all_complete:
                    self._complete_epoch([rec[2] for rec in batch])
                else:
                    # mixed epoch (arrivals, fault/repair, flow updates):
                    # record-by-record, preserving the object path's
                    # interleaving exactly
                    for time, kind, payload in batch:
                        if kind is complete:
                            self._complete_epoch((payload,))
                        else:
                            handlers[kind](Event(time, kind, payload))
            if prof is not None:
                prof.add("events", t0, prof.now())
            if observe_hooks and self.ready:
                ctx = self.make_context()
                for h in observe_hooks:
                    h(ctx)
        for layer in self._layers:
            layer.finalize()
        record_engine_run(self.profile_counters())
