"""Span tracing installed from outside the library, for the traced run.

The traced run replaces public functions of each serving layer with
wrappers that record one span per call: the layer metric it is counted
under, start, end, the enclosing span on the same thread and the request
id.  Nothing under ``src/`` knows about it; :class:`Instrumentation`
patches the functions in place and puts the originals back afterwards.

Spans live in memory in per-thread buffers (``array`` columns, so hot
leaf layers such as the simulated-GPU accounting stay cheap to keep) and
are analysed when the run ends:

* a span's **self time** is its duration minus the time its direct child
  spans cover; children run on the span's own thread, strictly nested and
  one after another, so their durations add up to that cover;
* a layer's self time is the sum over its spans, so a layer calling itself
  (``access_word`` -> ``access_words``) is counted once;
* the **covered** share of the measured wall time is the union, across
  threads, of every top-level span, intersected with the intervals in
  which some measured operation was in flight.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

#: ``request`` value of spans recorded outside any operation (set-up).
NO_REQUEST = -1


class _ThreadSpans:
    """Span columns recorded by one thread."""

    __slots__ = ("layer", "start", "end", "parent", "request", "stack",
                 "current", "units")

    def __init__(self) -> None:
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("q")
        self.stack: list[int] = []
        self.current = NO_REQUEST
        self.units: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self.layer)


class SpanLog:
    """In-memory span store shared by every wrapper of one traced phase.

    Args:
        clock: the time source (seconds); injectable for tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self._threads: list[_ThreadSpans] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``id(query)`` -> request id, filled by the workload so spans on
        #: the dispatcher thread can name the request they serve.
        self.query_requests: dict[int, int] = {}

    def _layer_id(self, layer: str) -> int:
        with self._lock:
            if layer not in self._layer_ids:
                self._layer_ids[layer] = len(self.layers)
                self.layers.append(layer)
            return self._layer_ids[layer]

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans()
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
        return spans

    def set_request(self, request: int) -> None:
        """Tag the calling thread's next top-level spans with ``request``."""
        self._spans().current = request

    def wrap(
        self,
        layer: str,
        fn: Callable,
        units: tuple[tuple[str, Callable[[tuple], float]], ...] = (),
        request_of: Callable[["SpanLog", tuple], int | None] | None = None,
    ) -> Callable:
        """``fn`` recording one ``layer`` span per call.

        ``units`` holds ``(counter, measure)`` pairs: ``measure(args)`` is
        added to the named counter on every call (frontier sizes, lanes).
        ``request_of(log, args)`` names the request of a call made on a
        thread the workload does not drive (the dispatcher).
        """
        layer_id = self._layer_id(layer)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans()
            stack = spans.stack
            parent = stack[-1] if stack else -1
            request = None if request_of is None else request_of(self, args)
            if request is None:
                request = (
                    spans.request[parent] if parent >= 0 else spans.current
                )
            for counter, measure in units:
                spans.units[counter] = (
                    spans.units.get(counter, 0.0) + measure(args)
                )
            index = len(spans.layer)
            spans.layer.append(layer_id)
            spans.parent.append(parent)
            spans.request.append(request)
            spans.start.append(0.0)
            spans.end.append(0.0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.start[index] = start
                spans.end[index] = end

        return traced

    # -- analysis ---------------------------------------------------------------

    def span_count(self) -> int:
        return sum(len(spans) for spans in self._threads)

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """``layer -> (self seconds, span count)`` over every thread."""
        seconds = [0.0] * len(self.layers)
        counts = [0] * len(self.layers)
        for spans in self._threads:
            durations = [e - s for s, e in zip(spans.start, spans.end)]
            child = [0.0] * len(durations)
            for index, parent in enumerate(spans.parent):
                if parent >= 0:
                    child[parent] += durations[index]
            for index, layer in enumerate(spans.layer):
                seconds[layer] += durations[index] - child[index]
                counts[layer] += 1
        return {
            layer: (seconds[i], counts[i]) for i, layer in enumerate(self.layers)
        }

    def units(self) -> dict[str, float]:
        """Counter totals summed over threads."""
        totals: dict[str, float] = {}
        for spans in self._threads:
            for counter, amount in spans.units.items():
                totals[counter] = totals.get(counter, 0.0) + amount
        return totals

    def top_level_intervals(self) -> list[tuple[float, float]]:
        """``(start, end)`` of every span with no parent, all threads."""
        return [
            (spans.start[i], spans.end[i])
            for spans in self._threads
            for i, parent in enumerate(spans.parent)
            if parent < 0
        ]

    def columns(self) -> dict[str, list]:
        """Every span as parallel columns (thread, layer, start, end, ...)."""
        out: dict[str, list] = {
            "thread": [], "layer": [], "start": [], "end": [],
            "parent": [], "request": [],
        }
        for thread, spans in enumerate(self._threads):
            out["thread"].extend([thread] * len(spans))
            out["layer"].extend(self.layers[i] for i in spans.layer)
            out["start"].extend(spans.start)
            out["end"].extend(spans.end)
            out["parent"].extend(spans.parent)
            out["request"].extend(spans.request)
        return out


    def save(self, path) -> None:
        """Write every span to ``path`` (``.npz``), creating its directory.

        ``layer`` indexes ``layers``; ``parent`` indexes the same thread's
        spans (``-1`` for a top-level span).
        """
        import numpy as np

        threads = self._threads
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            thread=np.repeat(
                np.arange(len(threads), dtype=np.int16),
                [len(spans) for spans in threads],
            ),
            **{
                column: np.concatenate([
                    np.frombuffer(getattr(spans, column), dtype=dtype)
                    for spans in threads
                ]) if threads else np.zeros(0, dtype=dtype)
                for column, dtype in (
                    ("layer", np.int32), ("start", np.float64),
                    ("end", np.float64), ("parent", np.int32),
                    ("request", np.int64),
                )
            },
        )


def merge_intervals(
    intervals: Iterable[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Sorted, disjoint union of ``intervals``."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def covered_seconds(
    cover: Sequence[tuple[float, float]],
    window: Sequence[tuple[float, float]],
) -> float:
    """Length of ``union(cover) & union(window)``."""
    a, b = merge_intervals(cover), merge_intervals(window)
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        low = max(a[i][0], b[j][0])
        high = min(a[i][1], b[j][1])
        if high > low:
            total += high - low
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


# -- what gets wrapped ----------------------------------------------------------


def _query_request(log: SpanLog, args: tuple) -> int | None:
    """Request of a ``TraversalService.submit`` call: its first query's."""
    queries = args[1] if len(args) > 1 else ()
    for query in queries:
        return log.query_requests.get(id(query))
    return None


def _frontier_size(args: tuple) -> float:
    return float(len(args[1]))


def _one(args: tuple) -> float:
    return 1.0


#: Counters of lane-packed MS-BFS sweeps: lanes carried, sweeps run.
_SWEEP_UNITS = (("traversal.lanes", _frontier_size), ("traversal.sweeps", _one))


@dataclass(frozen=True)
class Target:
    """One public function and the layer metric its spans count under."""

    layer: str
    module: str
    path: str
    units: tuple[tuple[str, Callable[[tuple], float]], ...] = ()
    request_of: Callable[[SpanLog, tuple], int | None] | None = None


TARGETS: tuple[Target, ...] = (
    Target("server.admit_s", "repro.server.frontdoor", "FrontDoor.submit"),
    Target("service.submit_s", "repro.service.service",
           "TraversalService.submit", request_of=_query_request),
    Target("service.apply_updates_s", "repro.service.service",
           "TraversalService.apply_updates"),
    Target("apps.bfs_s", "repro.apps.bfs", "bfs"),
    Target("apps.cc_s", "repro.apps.cc", "connected_components"),
    Target("apps.pagerank_s", "repro.apps.pagerank", "personalized_pagerank"),
    Target("traversal.expand_s", "repro.traversal.gcgt",
           "TraversalSession.expand",
           units=(("traversal.frontier_nodes", _frontier_size),)),
    Target("traversal.msbfs_s", "repro.traversal.msbfs", "msbfs",
           units=_SWEEP_UNITS),
    Target("traversal.plan_build_s", "repro.traversal.context",
           "build_node_plan"),
    *(
        Target("gpu.accounting_s", "repro.gpu.memory", f"DeviceMemory.{name}")
        for name in ("access_words", "access_word", "access_bit_ranges",
                     "access_bit_range", "atomic_add", "shared_access")
    ),
    Target("gpu.accounting_s", "repro.gpu.warp", "Warp.step"),
    Target("gpu.accounting_s", "repro.gpu.warp", "Warp.step_rounds"),
    Target("compression.encode_s", "repro.compression.cgr",
           "CGRGraph.from_adjacency"),
    Target("compression.encode_s", "repro.compression.cgr",
           "encode_node_adjacency"),
    *(
        Target("compression.decode_s", "repro.compression.cgr",
               f"CGRGraph.{name}")
        for name in ("neighbors", "layout", "decode_all")
    ),
    Target("dynamic.apply_s", "repro.dynamic.overlay", "DeltaOverlay.apply"),
    Target("dynamic.plan_merge_s", "repro.dynamic.overlay",
           "DeltaOverlay.build_node_plan"),
    Target("dynamic.compact_s", "repro.dynamic.overlay",
           "DeltaOverlay.compact"),
    Target("views.cc.repair_s", "repro.views.cc", "CCView.apply_delta"),
    Target("views.khop.repair_s", "repro.views.khop", "KHopView.apply_delta"),
    Target("views.pagerank.repair_s", "repro.views.pagerank",
           "PageRankView.apply_delta"),
    Target("views.rebuild_s", "repro.views.cc", "CCView.rebuild"),
    Target("views.rebuild_s", "repro.views.khop", "KHopView.rebuild"),
    Target("views.rebuild_s", "repro.views.pagerank", "PageRankView.rebuild"),
    Target("views.read_s", "repro.views.manager", "ViewManager.view_result"),
    Target("shard.superstep_s", "repro.shard.executor", "ShardExecutor.expand"),
    Target("shard.superstep_s", "repro.shard.executor", "ShardExecutor.bfs"),
    Target("shard.superstep_s", "repro.shard.executor", "ShardExecutor.msbfs",
           units=_SWEEP_UNITS),
    Target("shard.gather_s", "repro.shard.executor",
           "ShardExecutor.gather_adjacency"),
    Target("shard.apply_s", "repro.shard.executor",
           "ShardExecutor.apply_updates"),
    Target("lifecycle.tick_s", "repro.lifecycle.maintenance",
           "MaintenanceScheduler.tick"),
)

#: Abstract base whose concrete ``expand_chunk`` overrides are all wrapped
#: (the simulated strategy ladder; each rung overrides the method).
STRATEGY_BASE = ("repro.traversal.strategy", "ExpansionStrategy")
STRATEGY_LAYER = "traversal.strategy_s"


def _subclasses(cls: type) -> list[type]:
    found, pending = [], [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            found.append(sub)
            pending.append(sub)
    return found


class Instrumentation:
    """Patches every :data:`TARGETS` function to record into ``log``.

    Use as a context manager: the originals are restored on exit, so the
    untraced phases of a run execute the library exactly as shipped.
    """

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._undo: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_attribute(self, owner: type, name: str, target: Target) -> None:
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.log.wrap(
                target.layer, raw.__func__, target.units, target.request_of
            ))
        else:
            wrapped = self.log.wrap(
                target.layer, raw, target.units, target.request_of
            )
        self._patch(owner, name, wrapped)

    def _wrap_function(self, module: Any, name: str, target: Target) -> None:
        original = getattr(module, name)
        wrapped = self.log.wrap(
            target.layer, original, target.units, target.request_of
        )
        # Modules that imported the function by name hold their own binding.
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if (
                namespace is not None
                and getattr(other, "__name__", "").startswith("repro")
            ):
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(other, key, wrapped)

    def __enter__(self) -> "Instrumentation":
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner_name, _, name = target.path.rpartition(".")
            if owner_name:
                self._wrap_attribute(getattr(module, owner_name), name, target)
            else:
                self._wrap_function(module, name, target)
        base = getattr(importlib.import_module(STRATEGY_BASE[0]),
                       STRATEGY_BASE[1])
        for cls in _subclasses(base):
            if "expand_chunk" in cls.__dict__:
                self._wrap_attribute(
                    cls, "expand_chunk",
                    Target(STRATEGY_LAYER, cls.__module__, "expand_chunk"),
                )
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
