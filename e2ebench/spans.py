"""Span recording around the program's public entry points.

The benchmark traces the program from the outside: :func:`instrument`
replaces a fixed list of public functions and methods with wrappers that
record one span per call -- name, layer, start, end, parent span and
request id -- and fold work counters out of the call's return value.
Nothing inside ``src/`` changes; :func:`instrument` returns an undo
callable that restores every original attribute.

Spans stay in memory (:class:`Recorder`) and are written out once, when
the run ends, as Chrome Trace Event JSON (:meth:`Recorder.write_chrome_trace`),
which Perfetto and ``chrome://tracing`` open directly.

Per-layer *self time* is a span's duration minus the part of its interval
covered by its child spans (:meth:`Recorder.self_seconds`). Parents are
tracked per thread, so work a span hands to another thread (the service's
driver pool) shows up as that thread's own root spans.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    layer: str
    request: str | None
    thread: int
    start: float
    end: float = 0.0


class Recorder:
    """Thread-safe in-memory span store plus named work counters.

    ``enabled`` gates recording: a disabled recorder's wrappers call
    straight through, so the untraced reference phase of a traced run
    pays one attribute check per wrapped call.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._origin = time.perf_counter()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str,
              request: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(next(self._ids), parent.span_id if parent else None,
                    name, layer, request, threading.get_ident(),
                    time.perf_counter())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)  # list.append is atomic

    @contextlib.contextmanager
    def span(self, name: str, layer: str, request: str | None = None):
        """Context manager form of :meth:`begin`/:meth:`end`; records
        nothing while the recorder is disabled."""
        if not self.enabled:
            yield None
            return
        opened = self.begin(name, layer, request)
        try:
            yield opened
        finally:
            self.end(opened)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters.get(name, value), value)

    # -- analysis --------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: span durations net of child-covered time."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        totals: dict[str, float] = {}
        for span in self.spans:
            covered = _union_length(
                [(child.start, child.end)
                 for child in children.get(span.span_id, ())])
            totals[span.layer] = totals.get(span.layer, 0.0) \
                + (span.end - span.start) - covered
        return totals

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome Trace Event JSON ("X" complete events, microseconds)."""
        threads: dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append({
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": round((span.start - self._origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": {"span": span.span_id, "parent": span.parent_id,
                         "request": span.request},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


# -- instrumentation --------------------------------------------------------


def _wrap(recorder: Recorder, original: Callable, name: str,
          layer: str | None, on_return: Callable | None,
          request_of: Callable | None) -> Callable:
    """Record a ``layer`` span around each call (none when ``layer`` is
    None), then fold counters out of the return value."""
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return original(*args, **kwargs)
        if layer is None:
            result = original(*args, **kwargs)
        else:
            request = request_of(args) if request_of is not None else None
            with recorder.span(name, layer, request):
                result = original(*args, **kwargs)
        if on_return is not None:
            on_return(recorder, result, args)
        return result

    wrapper.__wrapped__ = original
    return wrapper


def _table_rows(tables) -> int:
    tables = getattr(tables, "tables", tables)
    return sum(len(table.rows) for table in tables.values())


def _batch_counters(recorder: Recorder, batch, args) -> None:
    from repro.cluster.counters import Counters

    results = batch.results.values()
    recorder.count("runtime.jobs", len(batch.results))
    recorder.count("runtime.sim_makespan_s", batch.makespan)
    for counter, metric in (
            (Counters.MAP_INPUT_RECORDS, "runtime.map_input_records"),
            (Counters.SHUFFLE_BYTES, "runtime.shuffle_bytes"),
            (Counters.BROADCAST_BYTES, "runtime.broadcast_bytes"),
            (Counters.OUTPUT_RECORDS, "runtime.output_records")):
        recorder.count(metric, sum(r.counters.total(counter)
                                   for r in results))
    recorder.count("runtime.spilled_bytes",
                   sum(r.spilled_bytes for r in results))


def _pilot_counters(recorder: Recorder, report, args) -> None:
    recorder.count("pilot.jobs", report.jobs_run)
    recorder.count("pilot.leaves_skipped",
                   sum(1 for o in report.outcomes.values() if o.reused))


def _block_counters(recorder: Recorder, result, args) -> None:
    recorder.count("dynopt.reoptimizations", result.reoptimization_count)
    recorder.count("dynopt.plan_changes", result.plan_changes)


def _metastore_get(recorder: Recorder, stats, args) -> None:
    recorder.count("metastore.gets")
    if stats is not None:
        recorder.count("metastore.get_hits")


def _submit(recorder: Recorder, ticket, args) -> None:
    recorder.maximum("service.queue_depth_max", args[0].queue_depth())


def _refresh(recorder: Recorder, report, args) -> None:
    recorder.count("standing.delta_refreshes", report.delta_count)
    recorder.count("standing.full_refreshes", report.full_count)


def _service_request(args) -> str | None:
    """Request id of a service-run query: its ``b<batch>.q<n>`` prefix."""
    stages = args[1] if len(args) > 1 else None
    if not stages:
        return None
    spec = stages[0][0]
    parts = getattr(spec, "name", "").split(".")
    return ".".join(parts[:2]) if len(parts) > 2 else None


def _probes():
    """(owner, attribute, layer or None for counters only, on_return,
    request_of) for every wrapped entry point."""
    from repro.cluster.runtime import ClusterRuntime
    from repro.core import baselines
    from repro.core.dyno import Dyno
    from repro.core.dynopt import DynoptExecutor
    from repro.core.pilot import PilotRunner
    from repro.data import tpch
    from repro.incremental import cdc
    from repro.incremental.standing import StandingQueryManager
    from repro.jaql.compiler import PlanCompiler
    from repro.optimizer.search import JoinOptimizer
    from repro.service.scheduler import QueryScheduler
    from repro.stats.metastore import StatisticsMetastore
    from repro.storage.dfs import DistributedFileSystem
    from repro.workloads import changing, weblogs

    def count(name, amount=lambda result, args: 1):
        return lambda recorder, result, args: recorder.count(
            name, amount(result, args))

    def data_rows(recorder, tables, args):
        recorder.count("data.rows", _table_rows(tables))

    def write_rows(recorder, dfs_file, args):
        recorder.count("storage.write_calls")
        recorder.count("storage.bytes_written", dfs_file.size_bytes)

    def optimized(recorder, result, args):
        recorder.count("optimizer.calls")
        recorder.count("optimizer.plans_considered", result.plans_considered)

    return [
        (tpch, "generate_tpch", "data", data_rows, None),
        (weblogs, "generate_weblogs", "data", data_rows, None),
        (changing, "changing_tables", "data", data_rows, None),
        (DistributedFileSystem, "write_table", "storage", None, None),
        (DistributedFileSystem, "write_rows", "storage", write_rows, None),
        (Dyno, "execute", "query", None, None),
        (Dyno, "execute_multi", "query", None, _service_request),
        (Dyno, "prepare", "jaql.prepare", count("jaql.prepare_calls"),
         None),
        (PlanCompiler, "compile_block", "jaql.compile",
         count("jaql.jobs_compiled", lambda graph, args: len(graph.jobs)),
         None),
        (PlanCompiler, "compile_group_by", "jaql.compile",
         count("jaql.jobs_compiled"), None),
        (PilotRunner, "run", "pilot", _pilot_counters, None),
        (JoinOptimizer, "optimize", "optimizer", optimized, None),
        (DynoptExecutor, "execute_block", "dynopt", _block_counters, None),
        (ClusterRuntime, "execute_batch", "runtime", _batch_counters, None),
        (StatisticsMetastore, "get", None, _metastore_get, None),
        (StatisticsMetastore, "put", None, count("metastore.puts"), None),
        (StatisticsMetastore, "invalidate", None,
         count("metastore.invalidations"), None),
        (QueryScheduler, "submit", None, _submit, None),
        (QueryScheduler, "drain", "service.drain",
         count("service.drain_calls"), None),
        (cdc.ChangeGenerator, "next_batch", "cdc.synthesize", None, None),
        (cdc, "apply_change_batch", "cdc.apply", None, None),
        (StandingQueryManager, "register", "standing.register", None, None),
        (StandingQueryManager, "refresh", "standing.refresh", _refresh,
         None),
        (baselines, "oracle_leaf_stats", "standing.decide", None, None),
    ]


def instrument(recorder: Recorder) -> Callable[[], None]:
    """Wrap every probed entry point; returns the undo callable.

    Callers must reach wrapped module-level functions through their
    module (``tpch.generate_tpch(...)``), not through a name imported
    before instrumentation. Spans are named ``Owner.attribute``.
    """
    saved = []
    for owner, attribute, layer, on_return, request_of in _probes():
        original = getattr(owner, attribute)
        saved.append((owner, attribute, original))
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attribute}"
        setattr(owner, attribute,
                _wrap(recorder, original, name, layer, on_return,
                      request_of))

    def undo() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)

    return undo
