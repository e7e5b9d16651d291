"""Exporters: Prometheus text format and JSON telemetry snapshots.

Rendering is separated from collection so one registry can serve both a
scrape endpoint and an offline dump: :func:`prometheus_text` emits the
Prometheus 0.0.4 text exposition format (``# HELP`` / ``# TYPE`` lines,
escaped label values), while :func:`json_snapshot` bundles the same samples with
retained traces and the slow-query log into one JSON-ready document --
the payload behind ``scripts/dump_telemetry.py``.
"""

from __future__ import annotations

import math
from typing import Any


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_block(labels: dict[str, str]) -> str:
    parts = [
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in labels.items()
    ]
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(registry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters and gauges emit one sample line per labelset.  Output order
    follows ``registry.collect()`` -- sorted by metric name, then label
    values -- so scrapes are deterministic and diffable.
    """
    lines: list[str] = []
    for family in registry.collect():
        name, kind = family["name"], family["kind"]
        if family["help"]:
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in family["samples"]:
            block = _label_block(sample["labels"])
            lines.append(f"{name}{block} {_format_value(sample['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def json_snapshot(registry, tracer=None, slow_log=None) -> dict[str, Any]:
    """One JSON-ready document: metrics, retained traces, slow queries.

    ``tracer`` and ``slow_log`` are optional so a metrics-only registry
    can still be dumped; when present, traces are rendered as recursive
    span-tree dicts (``Span.to_dict``).
    """
    document: dict[str, Any] = {"metrics": registry.collect()}
    if tracer is not None:
        document["traces"] = [root.to_dict() for root in tracer.traces()]
        document["traces_completed"] = tracer.completed
    if slow_log is not None:
        document["slow_queries"] = slow_log.as_dicts()
        document["slow_queries_admitted"] = slow_log.admitted
    return document


__all__ = ["json_snapshot", "prometheus_text"]
