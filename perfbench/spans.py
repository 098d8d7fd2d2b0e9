"""Span recording around the calls into each ``repro.*`` layer.

The benchmark does not change the program: :func:`install` rebinds the
public entry points of each layer (every module attribute that refers
to the original function, plus the defining class for methods) to thin
wrappers that record one span per call.  A span is a list
``[span_id, parent_id, name, start_ns, end_ns, request_id, args]``;
spans stay in memory in a :class:`Tracer` and are written out when the
run ends.  Parents come from a context variable, so interleaved asyncio
tasks in the service's event loop each keep their own span stack.

:func:`layer_metrics` turns spans into per-layer self times (duration
minus the union of the child spans' intervals) and counts;
:func:`chrome_events` exports them in the Chrome ``trace_event`` format
that ``repro trace`` writes, with parent and request ids in ``args``.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

CURRENT_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)

#: Span name -> per-layer self-time metric.  Every span name the
#: wrappers record appears here exactly once.
SELF_TIME_METRICS = {
    "analysis.driver": "analysis.driver_self_s",
    "core.analyze_dataflow": "core.analyze_dataflow_s",
    "schedule.compile_many": "schedule.compile_many_s",
    "schedule.schedule": "schedule.schedule_s",
    "codegen.generate_program": "codegen.generate_program_s",
    "sim.run": "sim.run_s",
    "alloc.allocate": "alloc.allocate_s",
    "dataflow.lower_program": "dataflow.lower_program_s",
    "dataflow.happens_before": "dataflow.happens_before_s",
    "dataflow.hazard_passes": "dataflow.hazard_passes_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "cache.outcome_key": "cache.outcome_key_s",
    "service.execute_request": "service.execute_request_s",
    "service.encode_json": "service.encode_json_s",
    "service.dispatch": "service.dispatch_self_s",
}


class Tracer:
    """In-memory span store of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self.pid = os.getpid()

    def reset_after_fork(self) -> None:
        """A forked child starts with an empty store of its own, outside
        the span and request it was forked in."""
        CURRENT_SPAN.set(None)
        REQUEST_ID.set(None)
        self.spans = []
        self._ids = itertools.count(1)
        self.pid = os.getpid()

    def _next_id(self) -> int:
        return (self.pid << 32) | next(self._ids)

    def wrap(
        self,
        name: str,
        fn: Callable,
        details: Optional[Callable[[tuple, dict, Any], dict]] = None,
        on_error: Optional[Callable[[BaseException], dict]] = None,
    ) -> Callable:
        """*fn* recording one span per call; ``details(args, kwargs,
        result)`` adds counts to the span's args."""
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id()
            parent = CURRENT_SPAN.get()
            token = CURRENT_SPAN.set(span_id)
            extra = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    extra = on_error(exc)
                raise
            else:
                if details is not None:
                    extra = details(args, kwargs, result)
                return result
            finally:
                end = clock()
                CURRENT_SPAN.reset(token)
                self.spans.append(
                    [span_id, parent, name, start, end, REQUEST_ID.get(), extra]
                )

        return wrapper

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """Coroutine-function variant of :meth:`wrap`."""
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span_id = self._next_id()
            parent = CURRENT_SPAN.get()
            token = CURRENT_SPAN.set(span_id)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                CURRENT_SPAN.reset(token)
                self.spans.append(
                    [span_id, parent, name, start, end, REQUEST_ID.get(), None]
                )

        return wrapper

    def span(self, name: str):
        """Context manager recording one span (for driver calls)."""
        return _SpanContext(self, name)


class _SpanContext:
    __slots__ = ("tracer", "name", "span_id", "parent", "token", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.span_id = self.tracer._next_id()
        self.parent = CURRENT_SPAN.get()
        self.token = CURRENT_SPAN.set(self.span_id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter_ns()
        CURRENT_SPAN.reset(self.token)
        self.tracer.spans.append(
            [self.span_id, self.parent, self.name, self.start, end,
             REQUEST_ID.get(), None]
        )


# -- installing the wrappers ----------------------------------------------


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module attribute bound to *original*
    at *replacement* (``from x import f`` copies the binding)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _transfers(args, kwargs, report) -> dict:
    return {
        "transfers": report.data_load_count + report.data_store_count
        + report.context_load_count
    }


def _compiled(args, kwargs, results) -> dict:
    return {
        "problems": len(results),
        "feasible": sum(1 for result in results if result.error is None),
    }


def _infeasible(exc: BaseException) -> dict:
    from repro.errors import InfeasibleScheduleError

    if isinstance(exc, InfeasibleScheduleError):
        return {"problems": 1, "feasible": 0}
    return {"error": type(exc).__name__}


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points with span recording."""
    import repro.alloc.allocator as allocator
    import repro.analysis.compare  # noqa: F401  (binds the names below)
    import repro.cache as cache
    import repro.codegen.generator as generator
    import repro.core.dataflow as core_dataflow
    import repro.dataflow.analyzer  # noqa: F401
    import repro.dataflow.ir as ir
    import repro.dataflow.passes as passes
    import repro.schedule.base as schedule_base
    import repro.schedule.batch as batch
    import repro.service.protocol as protocol
    import repro.service.server  # noqa: F401
    import repro.sim.engine as engine
    from repro.dataflow.hazards import HappensBefore

    def functions(name, fn, details=None):
        _rebind(fn, tracer.wrap(name, fn, details))

    functions("core.analyze_dataflow", core_dataflow.analyze_dataflow)
    functions("schedule.compile_many", batch.compile_many, _compiled)
    functions("codegen.generate_program", generator.generate_program)
    functions(
        "dataflow.lower_program", ir.lower_program,
        lambda args, kwargs, result: {"nodes": len(result.nodes)},
    )
    functions("cache.outcome_key", cache.outcome_key)
    functions("service.encode_json", protocol.encode_json)
    execute_request = protocol.execute_request
    _rebind(execute_request, _with_request_id(
        tracer.wrap("service.execute_request", execute_request)
    ))

    hazard_passes = passes.run_hazard_passes

    @functools.wraps(hazard_passes)
    def counting_passes(ir_, hb, emit):
        findings = [0]

        def counting_emit(*args, **kwargs):
            findings[0] += 1
            return emit(*args, **kwargs)

        hazard_passes(ir_, hb, counting_emit)
        return findings[0]

    _rebind(hazard_passes, tracer.wrap(
        "dataflow.hazard_passes", counting_passes,
        lambda args, kwargs, result: {"findings": result},
    ))

    engine.Simulator.run = tracer.wrap(
        "sim.run", engine.Simulator.run, _transfers
    )
    allocator.FrameBufferAllocator.allocate = tracer.wrap(
        "alloc.allocate", allocator.FrameBufferAllocator.allocate
    )
    schedule_base.DataSchedulerBase.schedule = tracer.wrap(
        "schedule.schedule", schedule_base.DataSchedulerBase.schedule,
        lambda args, kwargs, result: {"problems": 1, "feasible": 1},
        _infeasible,
    )
    cache.CacheStore.get = tracer.wrap("cache.get", cache.CacheStore.get)
    cache.CacheStore.put = tracer.wrap("cache.put", cache.CacheStore.put)
    build = HappensBefore.__dict__["build"].__func__
    HappensBefore.build = classmethod(
        tracer.wrap("dataflow.happens_before", build)
    )


def _with_request_id(execute_request: Callable) -> Callable:
    """Run the worker entry point under the request id the traced
    server attached to the request body (see ``traced_serve.py``)."""

    @functools.wraps(execute_request)
    def wrapper(endpoint, body, cache_dir=None):
        token = REQUEST_ID.set(getattr(body, "request_id", None))
        try:
            return execute_request(endpoint, body, cache_dir)
        finally:
            REQUEST_ID.reset(token)

    return wrapper


# -- analysis ---------------------------------------------------------------


def _union_ns(intervals: List[Tuple[int, int]]) -> int:
    covered = 0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            covered += end - start
            last_end = end
        elif end > last_end:
            covered += end - last_end
            last_end = end
    return covered


def self_times(spans: Iterable[list]) -> Dict[int, int]:
    """Span id -> self time in ns (duration minus child coverage)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[3], span[4]))
    return {
        span[0]: (span[4] - span[3]) - _union_ns(children.get(span[0], []))
        for span in spans
    }


def layer_metrics(spans: List[list], wall_s: float) -> Dict[str, float]:
    """Per-layer self times (s and share of *wall_s*) and counts."""
    selfs = self_times(spans)
    by_id = {span[0]: span for span in spans}
    totals = {metric: 0 for metric in SELF_TIME_METRICS.values()}
    counts = {
        "alloc.calls": 0, "sim.runs": 0, "sim.transfers": 0,
        "codegen.programs": 0, "dataflow.ir_nodes": 0,
        "dataflow.findings": 0, "schedule.problems": 0,
    }
    feasible = 0
    for span in spans:
        name, extra = span[2], span[6] or {}
        totals[SELF_TIME_METRICS[name]] += selfs[span[0]]
        if name == "alloc.allocate":
            counts["alloc.calls"] += 1
        elif name == "sim.run":
            counts["sim.runs"] += 1
            counts["sim.transfers"] += extra.get("transfers", 0)
        elif name == "codegen.generate_program":
            counts["codegen.programs"] += 1
        elif name == "dataflow.lower_program":
            counts["dataflow.ir_nodes"] += extra.get("nodes", 0)
        elif name == "dataflow.hazard_passes":
            counts["dataflow.findings"] += extra.get("findings", 0)
        elif name in ("schedule.compile_many", "schedule.schedule"):
            parent = by_id.get(span[1])
            if parent is not None and parent[2] == "schedule.compile_many":
                continue  # a batch problem the compiler routed per case
            counts["schedule.problems"] += extra.get("problems", 0)
            feasible += extra.get("feasible", 0)
    metrics: Dict[str, float] = {}
    for metric, total_ns in totals.items():
        seconds = total_ns / 1e9
        metrics[metric] = seconds
        metrics[metric[:-2] + "_share"] = seconds / wall_s if wall_s else 0.0
    metrics.update(counts)
    metrics["schedule.feasible_ratio"] = (
        feasible / counts["schedule.problems"]
        if counts["schedule.problems"] else 0.0
    )
    return metrics


def chrome_events(spans_by_pid: Dict[int, List[list]],
                  process_names: Dict[int, str]) -> Dict[str, Any]:
    """Chrome ``trace_event`` payload of every process's spans."""
    origin = min(
        (span[3] for spans in spans_by_pid.values() for span in spans),
        default=0,
    )
    events: List[Dict[str, Any]] = []
    for pid, spans in sorted(spans_by_pid.items()):
        events.append({
            "ph": "M", "pid": pid, "name": "process_name",
            "args": {"name": process_names.get(pid, f"pid {pid}")},
        })
        for span in spans:
            args = {"span_id": span[0], "parent_id": span[1],
                    "request_id": span[5]}
            args.update(span[6] or {})
            events.append({
                "ph": "X", "pid": pid, "tid": 0, "name": span[2],
                "cat": span[2].split(".", 1)[0],
                "ts": (span[3] - origin) // 1000,
                "dur": (span[4] - span[3]) // 1000,
                "args": args,
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "CLOCK_MONOTONIC", "unit": "us"},
    }
