"""Unified telemetry: request tracing, typed metrics, exporters.

The serving stack spans five layers (front door, traversal service,
shard executor, decode cache, views), and before this package each kept
its own disjoint counters.  :mod:`repro.obs` gives them one spine:

* :class:`Tracer` / :class:`Span` -- per-request span trees with a
  ``trace_id`` minted at front-door admission and threaded through
  tickets, audit events, MS-BFS coalescing, executor supersteps,
  decode-cache misses and view repairs; head-based sampling and a no-op
  path keep the disabled cost negligible.
* :class:`MetricsRegistry` with typed :class:`Counter` /
  :class:`Gauge` instruments -- the legacy stats
  objects register callback-backed instruments into it, so registry
  values and ``ServiceStats`` / ``ServerStats`` read the same sources.
* Exporters -- :func:`prometheus_text`, :func:`json_snapshot`, and a
  ring-buffered :class:`SlowQueryLog` of full span trees; see also
  ``scripts/dump_telemetry.py``.
* :class:`Telemetry` -- the one bundle object accepted by
  :class:`~repro.service.TraversalService` and
  :class:`~repro.server.FrontDoor` via ``telemetry=``.

The package depends only on the standard library and is imported by the
serving layers (never the reverse), so enabling telemetry is purely
additive.
"""

from .export import json_snapshot, prometheus_text
from .metrics import Counter, Gauge, Instrument, MetricsRegistry
from .slowlog import SlowQueryLog
from .telemetry import Telemetry
from .trace import (
    MAX_SPAN_EVENTS,
    NOOP_TRACER,
    NULL_SPAN,
    NoopTracer,
    Span,
    Tracer,
)

__all__ = [
    "MAX_SPAN_EVENTS",
    "NOOP_TRACER",
    "NULL_SPAN",
    "Counter",
    "Gauge",
    "Instrument",
    "MetricsRegistry",
    "NoopTracer",
    "SlowQueryLog",
    "Span",
    "Telemetry",
    "Tracer",
    "json_snapshot",
    "prometheus_text",
]
