"""Span tracer for the traced (``--trace 1``) benchmark run.

The tracer wraps public functions and methods of the ``repro`` runtime
modules from the benchmark's own files; no program source changes.
Every wrapped call records one span ``(id, name, layer, start, end,
parent, request id)`` in memory.  A layer's *self time* is the summed
duration of its spans minus the part their child spans cover.

Wrapping rules that keep the traced program the program under test:

* a function is replaced at **every binding** a ``repro`` module holds
  (``from x import f`` copies the binding, so patching only the
  defining module would time nothing);
* methods are replaced **in place** on the class that defines them,
  never through a wrapper subclass, so MRO-based dispatch decisions
  (the array engine's ``driver_is_batchable``) see the same owners;
* a target that a later version of the program no longer has is
  skipped and listed in :attr:`Tracer.missing`.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

#: request id of the spans recorded in the current context (pass index,
#: service submission ordinal, ...)
REQUEST_ID: "contextvars.ContextVar[object]" = contextvars.ContextVar(
    "perfbench_request_id", default=None
)

# (module, attribute path, layer, category).  ``category`` refines the
# layer for metrics that split it (graph decode vs build, sweep encode).
SPAN_TARGETS: tuple[tuple[str, str, str, str], ...] = (
    # repro.graphs -------------------------------------------------------
    ("repro.graphs.generators", "make_type1_dfg", "graphs", "build"),
    ("repro.graphs.generators", "make_type2_dfg", "graphs", "build"),
    ("repro.graphs.generators", "make_independent_dfg", "graphs", "build"),
    ("repro.graphs.generators", "make_chain_dfg", "graphs", "build"),
    ("repro.graphs.generators", "make_fork_join_dfg", "graphs", "build"),
    ("repro.graphs.generators", "make_pipeline_dfg", "graphs", "build"),
    ("repro.graphs.generators", "make_layered_dfg", "graphs", "build"),
    ("repro.graphs.dfg", "DFG.from_kernels", "graphs", "build"),
    ("repro.graphs.dfg", "DFG.validate", "graphs", "build"),
    ("repro.graphs.serialization", "dfg_from_dict", "graphs", "decode"),
    # repro.experiments.sweep (+ runner / tables / figures) -------------
    ("repro.experiments.sweep", "make_job", "sweep", "encode"),
    ("repro.experiments.sweep", "SweepJob.content_hash", "sweep", "encode"),
    ("repro.experiments.sweep", "SweepJob.runnable_payload", "sweep", "encode"),
    ("repro.experiments.sweep", "execute_payload", "sweep", "execute"),
    ("repro.experiments.sweep", "JobResult.from_dict", "sweep", "result_decode"),
    ("repro.experiments.sweep", "SweepEngine.run_jobs", "sweep", "engine"),
    ("repro.experiments.runner", "ExperimentRunner.run_specs", "sweep", "runner"),
    ("repro.experiments.workloads", "paper_suite", "sweep", "runner"),
    ("repro.experiments.scenarios", "ScenarioSpec.jobs", "sweep", "expand"),
    *(
        ("repro.experiments.tables", name, "sweep", "render")
        for name in (
            "table8", "table9", "table10", "table11", "table12",
            "table13", "table15", "table16",
        )
    ),
    *(
        ("repro.experiments.figures", name, "sweep", "render")
        for name in (
            "figure5_schedule_example", "figure6", "figure7", "figure8_top4",
            "figure9", "figure10_apt_vs_met", "figure11", "figure12",
        )
    ),
    # repro.core (simulator / engine / array_state / dynamics) ----------
    ("repro.core.simulator", "Simulator.run", "engine", "run"),
    ("repro.core.simulator", "Simulator.run_stream", "engine", "run"),
    # repro.policies (select / select_batch are added per class) --------
    ("repro.policies.heft", "HEFT.plan", "policies", "plan"),
    ("repro.policies.peft", "PEFT.plan", "policies", "plan"),
    ("repro.policies.cpop", "CPOP.plan", "policies", "plan"),
    # repro.core.metrics (+ energy) --------------------------------------
    ("repro.core.metrics", "compute_metrics", "metrics", "metrics"),
    ("repro.core.metrics", "compute_service_metrics", "metrics", "metrics"),
    ("repro.core.metrics", "stream_app_spans", "metrics", "metrics"),
    ("repro.core.metrics", "isolated_lower_bound_ms", "metrics", "metrics"),
    ("repro.core.metrics", "MetricsAccumulator.observe", "metrics", "metrics"),
    ("repro.core.metrics", "MetricsAccumulator.finalize", "metrics", "metrics"),
    ("repro.core.metrics", "ServiceAccumulator.register_app", "metrics", "metrics"),
    ("repro.core.metrics", "ServiceAccumulator.observe", "metrics", "metrics"),
    ("repro.core.metrics", "ServiceAccumulator.finalize", "metrics", "metrics"),
    ("repro.core.energy", "energy_of", "metrics", "metrics"),
    ("repro.core.energy", "energy_from_metrics", "metrics", "metrics"),
    # repro.service (server side) ----------------------------------------
    ("repro.service.jobs", "JobManager.submit", "service", "submit"),
    ("repro.service.jobs", "JobManager.get", "service", "status"),
    ("repro.service.jobs", "JobManager.resolve_spec", "service", "submit"),
    ("repro.service.jobs", "JobManager.stats", "service", "status"),
    ("repro.service.jobs", "InlineExecutor.execute", "service", "execute"),
    ("repro.service.jobs", "FairGate.acquire", "service", "wait"),
    ("repro.service.store", "SharedResultStore.get", "service", "store"),
    ("repro.service.store", "SharedResultStore.put", "service", "store"),
)

#: classes whose ``select``/``select_batch`` are wrapped wherever they
#: are defined (in place, on the defining class)
POLICY_MODULES = (
    "repro.policies.ag", "repro.policies.apt", "repro.policies.apt_rt",
    "repro.policies.batch_mode", "repro.policies.met", "repro.policies.olb",
    "repro.policies.plan", "repro.policies.random_policy",
    "repro.policies.spn", "repro.policies.ss",
)

#: engine modules whose classes' ``run_loop`` / ``pop_simultaneous*``
#: feed the engine counters
ENGINE_MODULES = ("repro.core.engine", "repro.core.array_state", "repro.core.events")


class Tracer:
    """In-memory spans plus counters; install once per process.

    ``skip_requests`` drops what requests ``1..N`` record (the service
    warm-up), so the metrics cover only the measured submissions.
    """

    def __init__(self, skip_requests: int = 0) -> None:
        self.skip_requests = skip_requests
        self.spans: list[tuple] = []
        self.counters: Counter[str] = Counter()
        self.peaks: dict[str, int] = {}
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        #: id(wrapper) → (wrapper, original) of every wrapped function
        self._originals: dict[int, tuple[Callable, Callable]] = {}

    # -- recording --------------------------------------------------------
    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _skipped(self, rid: object) -> bool:
        return isinstance(rid, int) and rid <= self.skip_requests

    def count(self, **deltas: int) -> None:
        if self._skipped(REQUEST_ID.get()):
            return
        with self._lock:
            for key, n in deltas.items():
                self.counters[key] += n

    def peak(self, key: str, value: int) -> None:
        with self._lock:
            if value > self.peaks.get(key, 0):
                self.peaks[key] = value

    def span_fn(
        self,
        fn: Callable,
        name: str,
        layer: str,
        category: str,
        post: "Callable[[tuple, Any, bool], Any] | None" = None,
    ) -> Callable:
        """A synchronous wrapper recording one nested span per call.

        ``post(args, result, outermost)`` may replace the result (used
        to materialize policy generators inside the span).
        """
        tracer = self
        spans = self.spans
        clock = time.perf_counter
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append((sid, layer))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    result = post(
                        args, result, parent is None or parent[1] != layer
                    )
                return result
            finally:
                t1 = clock()
                stack.pop()
                rid = REQUEST_ID.get()
                if not tracer._skipped(rid):
                    spans.append((
                        sid, name, layer, category, t0, t1,
                        parent[0] if parent else None, rid,
                    ))

        return wrapper

    def span_async(self, fn: Callable, name: str, layer: str, category: str) -> Callable:
        """Coroutine wrapper: a root span (tasks interleave, so async
        spans have no parent and their duration is an interval, not a
        self time)."""
        tracer = self
        spans = self.spans
        clock = time.perf_counter
        ids = self._ids

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            sid = next(ids)
            t0 = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                rid = REQUEST_ID.get()
                if not tracer._skipped(rid):
                    spans.append((
                        sid, name, layer, category + ":async", t0, clock(),
                        None, rid,
                    ))

        return wrapper

    # -- installation ------------------------------------------------------
    def _replace(self, owner: object, attr: str, new: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_function(self, module: Any, attr: str, make: Callable[[Callable], Callable]) -> bool:
        original = getattr(module, attr, None)
        if original is None or not callable(original):
            return False
        wrapped = make(original)
        self._originals[id(wrapped)] = (wrapped, original)
        # replace every binding a loaded repro module holds to the very
        # same object (the benchmark itself calls through module attributes)
        for namespace in _repro_namespaces():
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped
        return True

    def _wrap_method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> bool:
        raw = cls.__dict__.get(attr)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            self._replace(cls, attr, classmethod(make(raw.__func__)))
        elif isinstance(raw, staticmethod):
            self._replace(cls, attr, staticmethod(make(raw.__func__)))
        else:
            self._replace(cls, attr, make(raw))
        return True

    def _maker(self, name: str, layer: str, category: str, post=None):
        def make(fn: Callable) -> Callable:
            if inspect.iscoroutinefunction(fn):
                return self.span_async(fn, name, layer, category)
            return self.span_fn(fn, name, layer, category, post)
        return make

    def _install_target(self, module_name: str, path: str, make: Callable) -> None:
        label = f"{module_name}:{path}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(label)
            return
        owner: Any = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                self.missing.append(label)
                return
        if isinstance(owner, type):
            ok = self._wrap_method(owner, parts[-1], make)
        else:
            ok = self._wrap_function(owner, parts[-1], make)
        if not ok:
            self.missing.append(label)

    def install(self) -> "Tracer":
        for module_name, path, layer, category in SPAN_TARGETS:
            self._install_target(
                module_name, path, self._maker(path, layer, category)
            )
        self._install_policies()
        self._install_engine_counters()
        self._install_graph_counters()
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        # function bindings, including those a module imported while the
        # tracer was installed copied from a patched module
        for namespace in _repro_namespaces():
            for key, value in list(namespace.items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    namespace[key] = entry[1]

    def _install_policies(self) -> None:
        tracer = self

        def post(args: tuple, result: Any, outermost: bool) -> Any:
            if not isinstance(result, list):
                result = list(result)
            if outermost:
                ctx = args[1] if len(args) > 1 else None
                tracer.count(**{
                    "policies.select_calls": 1,
                    "policies.ready_seen": len(getattr(ctx, "ready", ())),
                    "policies.assignments": len(result),
                    "policies.useful_selects": 1 if result else 0,
                })
            return result

        for module_name in POLICY_MODULES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
                continue
            for cls in vars(module).values():
                if not isinstance(cls, type) or cls.__module__ != module_name:
                    continue
                for attr in ("select", "select_batch"):
                    if attr in cls.__dict__:
                        make = self._maker(
                            f"{cls.__name__}.{attr}", "policies", "select", post
                        )
                        self._wrap_method(cls, attr, make)

    def _install_engine_counters(self) -> None:
        tracer = self

        def make_pop(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def pop(*args, **kwargs):
                batch = fn(*args, **kwargs)
                tracer.count(**{"engine.epochs": 1, "engine.events": len(batch)})
                return batch
            return pop

        def make_loop(fn: Callable) -> Callable:
            spanned = self.span_fn(fn, "run_loop", "engine", "loop")

            @functools.wraps(fn)
            def run_loop(engine, *args, **kwargs):
                try:
                    return spanned(engine, *args, **kwargs)
                finally:
                    tracer.peak(
                        "engine.peak_resident_kernels",
                        int(getattr(engine, "peak_resident", 0) or 0),
                    )
            return run_loop

        found_pop = found_loop = False
        for module_name in ENGINE_MODULES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
                continue
            for cls in vars(module).values():
                if not isinstance(cls, type) or cls.__module__ != module_name:
                    continue
                # the array queue's event-returning pop delegates to the
                # record pop; count one of them per class
                if "pop_simultaneous_records" in cls.__dict__:
                    found_pop |= self._wrap_method(cls, "pop_simultaneous_records", make_pop)
                elif "pop_simultaneous" in cls.__dict__:
                    found_pop |= self._wrap_method(cls, "pop_simultaneous", make_pop)
                if "run_loop" in cls.__dict__:
                    found_loop |= self._wrap_method(cls, "run_loop", make_loop)
        if not found_pop:
            self.missing.append("engine event-queue pop")
        if not found_loop:
            self.missing.append("engine run_loop")

    def _install_graph_counters(self) -> None:
        tracer = self
        try:
            from repro.graphs.dfg import DFG
        except ImportError:
            self.missing.append("repro.graphs.dfg:DFG")
            return
        depth = threading.local()

        def make_single(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def add_dependency(*args, **kwargs):
                if not getattr(depth, "inside", False):
                    tracer.count(**{"graphs.edges_added": 1})
                return fn(*args, **kwargs)
            return add_dependency

        def make_bulk(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def add_dependencies(dfg, edges: Iterable, *args, **kwargs):
                edges = list(edges)
                tracer.count(**{"graphs.edges_added": len(edges)})
                depth.inside = True
                try:
                    return fn(dfg, edges, *args, **kwargs)
                finally:
                    depth.inside = False
            return add_dependencies

        for attr, make in (("add_dependency", make_single), ("add_dependencies", make_bulk)):
            if not self._wrap_method(DFG, attr, make):
                self.missing.append(f"repro.graphs.dfg:DFG.{attr}")

    # -- analysis ----------------------------------------------------------
    def mark(self) -> tuple[int, dict[str, int]]:
        """The current position, so a pass can be summarized alone; also
        restarts the high-water marks."""
        with self._lock:
            self.peaks.clear()
            return len(self.spans), dict(self.counters)

    def window(self, start: tuple[int, dict[str, int]]) -> "Window":
        """Spans and counter deltas recorded since ``start``."""
        lo, before = start
        with self._lock:
            after = dict(self.counters)
            peaks = dict(self.peaks)
        delta = {k: v - before.get(k, 0) for k, v in after.items()}
        return Window(self.spans[lo:], delta, peaks)

    def write(self, path: Path) -> None:
        """Write every span as one JSON row (name, layer, category,
        start, end, id, parent, request id)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for sid, name, layer, category, t0, t1, parent, rid in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "layer": layer, "category": category,
                    "start": t0, "end": t1, "parent": parent, "request": rid,
                }) + "\n")


def _repro_namespaces() -> list[dict]:
    return [
        vars(mod) for name, mod in list(sys.modules.items())
        if name.startswith("repro") and mod is not None
    ]


class Window:
    """What one traced pass recorded."""

    def __init__(self, spans: list[tuple], counters: dict[str, int], peaks: dict[str, int]) -> None:
        self.spans = spans
        self.counters = counters
        self.peaks = peaks

    def layer_metrics(self, per: float = 1.0) -> dict[str, float]:
        """The per-layer metrics: self milliseconds per layer (or layer
        part), deterministic work counts, and the ratios built on them.
        Milliseconds and counts are divided by ``per`` (1 for a pass;
        the job count for the service)."""
        spans = self.spans
        selfs = self_times(spans)
        counts = self.counters

        def ms(layer: str, *categories: str) -> float:
            return sum(
                v for (lay, cat), v in selfs.items()
                if lay == layer and (not categories or cat in categories)
            )

        def calls(name: str) -> int:
            return sum(1 for s in spans if s[1] == name)

        made, executed = calls("make_job"), calls("execute_payload")
        select_calls = counts.get("policies.select_calls", 0)
        scaled = {
            "graphs.build_ms": ms("graphs", "build"),
            "graphs.decode_ms": ms("graphs", "decode"),
            "graphs.decode_calls": calls("dfg_from_dict"),
            "graphs.edges_added": counts.get("graphs.edges_added", 0),
            "sweep.self_ms": ms("sweep"),
            "sweep.encode_ms": ms("sweep", "encode"),
            "sweep.execute_calls": executed,
            "sweep.result_decode_ms": ms("sweep", "result_decode"),
            "engine.self_ms": ms("engine"),
            "engine.events": counts.get("engine.events", 0),
            "engine.epochs": counts.get("engine.epochs", 0),
            "policies.select_ms": ms("policies", "select"),
            "policies.plan_ms": ms("policies", "plan"),
            "policies.select_calls": select_calls,
            "policies.ready_seen": counts.get("policies.ready_seen", 0),
            "policies.assignments": counts.get("policies.assignments", 0),
            "metrics.self_ms": ms("metrics"),
        }
        out = {k: v / per for k, v in scaled.items()}
        out.update({
            "sweep.memo_hit_ratio": (made - executed) / made if made else 0.0,
            "policies.useful_select_ratio": (
                counts.get("policies.useful_selects", 0) / select_calls
                if select_calls else 0.0
            ),
            "engine.peak_resident_kernels": self.peaks.get(
                "engine.peak_resident_kernels", 0
            ),
            "service.execute_ms": interval_stats(spans, "execute")[1],
            "service.wait_ms": interval_stats(spans, "wait")[1],
        })
        return out


def self_times(spans: Iterable[tuple]) -> dict[tuple[str, str], float]:
    """Self milliseconds per (layer, category) over synchronous spans.

    A span's self time is its duration minus its children's durations;
    children of a span are recorded before it (they end first), so one
    forward pass suffices once durations are grouped by parent.
    """
    spans = list(spans)
    child_total: dict[int, float] = defaultdict(float)
    for _, _, _, category, t0, t1, parent, _ in spans:
        if parent is not None and not category.endswith(":async"):
            child_total[parent] += t1 - t0
    out: dict[tuple[str, str], float] = defaultdict(float)
    for sid, _, layer, category, t0, t1, _, _ in spans:
        if category.endswith(":async"):
            continue
        out[(layer, category)] += (t1 - t0 - child_total.get(sid, 0.0)) * 1e3
    return dict(out)


def interval_stats(spans: Iterable[tuple], category: str) -> tuple[int, float]:
    """(count, mean ms) of the async interval spans of ``category``."""
    durations = [
        (t1 - t0) * 1e3
        for _, _, _, cat, t0, t1, _, _ in spans
        if cat == category + ":async"
    ]
    return len(durations), (sum(durations) / len(durations) if durations else 0.0)


__all__ = ["REQUEST_ID", "Tracer", "Window", "interval_stats", "self_times"]
