"""Metric definitions and how each is computed from a run.

The two tables below are the single list of metric names, units and
directions; ``BENCHMARK.json`` repeats them and a test keeps the two equal.

End-to-end metrics are measured with tracing off.  The *operation* of a
workload is its unit of client work: one BFS read on ``point_warm``, one
offered request on ``open_mix``, one update batch (plus any maintenance
tick it triggered) on ``churn``.  ``op_*`` metrics are therefore read
metrics on the read workloads and write metrics on ``churn``; the report
printed above the result line also gives them under those names.

Per-layer metrics come from the traced phase of a ``--trace 1`` run.
Times are layer self time per operation (``s/op``), counts are per
operation (``count/op``), ratios carry their base in the name.
"""

from __future__ import annotations

import re
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from perfbench.stats import OutcomeSummary, Timing
from perfbench.tracing import SpanLog, covered_seconds, merge_intervals
from perfbench.workloads import Phase, Stack, Workload

NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower"),
    Metric("op_p50_s", "s", "lower"),
    Metric("op_tail_s", "s", "lower"),
    Metric("good_ops_per_s", "1/s", "higher"),
    Metric("bits_per_edge", "bit", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)

PER_LAYER: tuple[Metric, ...] = (
    Metric("server.admit_s", "s/op", "lower"),
    Metric("server.queue_wait_s", "s/op", "lower"),
    Metric("server.shed", "count/op", "lower"),
    Metric("server.deadline_misses", "count/op", "lower"),
    Metric("server.degraded", "count/op", "lower"),
    Metric("server.lanes_per_group", "ratio", "higher"),
    Metric("service.submit_s", "s/op", "lower"),
    Metric("service.apply_updates_s", "s/op", "lower"),
    Metric("service.cache_hit_rate", "ratio", "higher"),
    Metric("service.cache_misses", "count/op", "lower"),
    Metric("service.cache_evictions", "count/op", "lower"),
    Metric("service.cache_invalidations", "count/op", "lower"),
    Metric("service.miss_decode_s", "s/op", "lower"),
    Metric("apps.bfs_s", "s/op", "lower"),
    Metric("apps.cc_s", "s/op", "lower"),
    Metric("apps.pagerank_s", "s/op", "lower"),
    Metric("traversal.expand_s", "s/op", "lower"),
    Metric("traversal.strategy_s", "s/op", "lower"),
    Metric("traversal.msbfs_s", "s/op", "lower"),
    Metric("traversal.plan_build_s", "s/op", "lower"),
    Metric("traversal.plans_built", "count/op", "lower"),
    Metric("traversal.expand_calls", "count/op", "lower"),
    Metric("traversal.frontier_nodes", "count/op", "lower"),
    Metric("traversal.lanes_per_sweep", "ratio", "higher"),
    Metric("gpu.accounting_s", "s/op", "lower"),
    Metric("gpu.accounting_calls", "count/op", "lower"),
    Metric("gpu.modelled_cost", "units/op", "lower"),
    Metric("gpu.modelled_elapsed", "units/op", "lower"),
    Metric("compression.encode_s", "s/op", "lower"),
    Metric("compression.encode_calls", "count/op", "lower"),
    Metric("compression.decode_s", "s/op", "lower"),
    Metric("dynamic.apply_s", "s/op", "lower"),
    Metric("dynamic.plan_merge_s", "s/op", "lower"),
    Metric("dynamic.compact_s", "s/op", "lower"),
    Metric("dynamic.edges_applied", "count/op", "higher"),
    Metric("dynamic.ignored_frac", "ratio", "lower"),
    Metric("views.cc.repair_s", "s/op", "lower"),
    Metric("views.khop.repair_s", "s/op", "lower"),
    Metric("views.pagerank.repair_s", "s/op", "lower"),
    Metric("views.rebuild_s", "s/op", "lower"),
    Metric("views.read_s", "s/op", "lower"),
    Metric("views.incremental_batches", "count/op", "higher"),
    Metric("views.full_recomputes", "count/op", "lower"),
    Metric("views.full_recompute_frac", "ratio", "lower"),
    Metric("views.stale_serves", "count/op", "lower"),
    Metric("shard.superstep_s", "s/op", "lower"),
    Metric("shard.gather_s", "s/op", "lower"),
    Metric("shard.apply_s", "s/op", "lower"),
    Metric("shard.supersteps", "count/op", "lower"),
    Metric("shard.exchange_volume", "count/op", "lower"),
    Metric("shard.boundary_frac", "ratio", "lower"),
    Metric("lifecycle.tick_s", "s/op", "lower"),
    Metric("lifecycle.nodes_compacted", "count/op", "higher"),
    Metric("setup.encode_s", "s", "lower"),
    Metric("setup.views_rebuild_s", "s", "lower"),
    Metric("trace.unattributed_frac", "ratio", "lower"),
    Metric("trace.overhead", "ratio", "lower"),
    Metric("trace.ops", "count", "higher"),
    Metric("ref.csr_bfs_p50_s", "s", "lower"),
)

#: Layer metrics that are plain self time per operation.
_TIMED_LAYERS = tuple(
    m.name for m in PER_LAYER
    if m.unit == "s/op" and m.name not in (
        "server.queue_wait_s", "service.miss_decode_s",
    )
)

#: Repetitions of every floor source in the uncompressed reference.
FLOOR_REPEATS = 5


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bits_per_edge(stack: Stack, workload: Workload) -> float:
    return stack.service.stats().bits_per_edge[workload.graph_name]


def csr_bfs_p50_s(stack: Stack, workload: Workload) -> float:
    """Median ``scipy.sparse.csgraph`` BFS time over the entry's own CSR.

    The uncompressed floor of the paper's compressed-versus-uncompressed
    comparison; informational, never a gate.
    """
    csr = stack.service.registry.resolve(workload.graph_name).csr
    matrix = csr_matrix(
        (np.ones(len(csr.indices), dtype=np.int8), csr.indices, csr.indptr),
        shape=(len(csr.indptr) - 1,) * 2,
    )
    samples = []
    for _ in range(FLOOR_REPEATS):
        for source in workload.floor_sources():
            start = time.perf_counter()
            breadth_first_order(
                matrix, source, directed=True, return_predecessors=False
            )
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def counters(stack: Stack) -> dict[str, float]:
    """Cumulative counters of every layer that keeps its own."""
    service = stack.service
    stats = service.stats()
    out = {
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "cache_evictions": stats.cache_evictions,
        "cache_invalidations": stats.cache_invalidations,
        "miss_decode_ns": stats.cache_miss_decode_ns,
        "view_incremental": stats.view_incremental_batches,
        "view_skipped": stats.view_skipped_batches,
        "view_full": stats.view_full_recomputes,
        "view_stale": stats.view_stale_serves,
        "supersteps": 0, "exchange": 0, "boundary": 0,
        "shed": 0, "deadline_misses": 0, "degraded": 0,
        "groups": 0, "grouped": 0, "compacted": 0,
    }
    for entry in service.registry.entries():
        if entry.executor is not None:
            shard = entry.executor.counters()
            out["supersteps"] += shard.supersteps
            out["exchange"] += shard.exchange_volume
            out["boundary"] += shard.boundary_messages
    if stack.door is not None:
        door = stack.door.stats()
        out.update(
            shed=door.shed, deadline_misses=door.deadline_misses,
            degraded=door.degraded, groups=door.coalesced_groups,
            grouped=door.coalesced_requests,
        )
    if stack.scheduler is not None:
        out["compacted"] = stack.scheduler.total_compactions
    return out


def end_to_end(
    setups: list[float],
    summary: OutcomeSummary,
    bits: float,
    rss_mb: float,
) -> dict[str, float]:
    timing = summary.latency
    if timing is None:
        raise RuntimeError("no operation was answered")
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": timing.p50,
        "op_tail_s": timing.tail,
        "good_ops_per_s": summary.good_per_s,
        "bits_per_edge": bits,
        "peak_rss_mb": rss_mb,
    }


def per_layer(
    log: SpanLog,
    setup_log: SpanLog,
    before: dict[str, float],
    after: dict[str, float],
    traced: Phase,
    untraced: Phase,
    floor_s: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced phase."""
    ops = len(traced.outcomes)
    if ops == 0:
        raise RuntimeError("the traced phase completed no operation")
    delta = {key: after[key] - before[key] for key in after}
    totals = log.layer_totals()
    units = log.units()
    setup_totals = setup_log.layer_totals()

    def seconds(layer: str) -> float:
        return totals.get(layer, (0.0, 0))[0]

    def calls(layer: str) -> int:
        return totals.get(layer, (0.0, 0))[1]

    out = {name: seconds(name) / ops for name in _TIMED_LAYERS}
    lookups = delta["cache_hits"] + delta["cache_misses"]
    consumed = delta["view_incremental"] + delta["view_skipped"] + delta["view_full"]
    wall = sum(end - start for start, end in merge_intervals(traced.intervals))
    covered = covered_seconds(log.top_level_intervals(), traced.intervals)
    out.update({
        "server.queue_wait_s": sum(traced.queue_s) / ops,
        "server.shed": delta["shed"] / ops,
        "server.deadline_misses": delta["deadline_misses"] / ops,
        "server.degraded": delta["degraded"] / ops,
        "server.lanes_per_group": _ratio(delta["grouped"], delta["groups"]),
        "service.cache_hit_rate": _ratio(delta["cache_hits"], lookups),
        "service.cache_misses": delta["cache_misses"] / ops,
        "service.cache_evictions": delta["cache_evictions"] / ops,
        "service.cache_invalidations": delta["cache_invalidations"] / ops,
        "service.miss_decode_s": delta["miss_decode_ns"] / 1e9 / ops,
        "traversal.plans_built": calls("traversal.plan_build_s") / ops,
        "traversal.expand_calls": calls("traversal.expand_s") / ops,
        "traversal.frontier_nodes":
            units.get("traversal.frontier_nodes", 0.0) / ops,
        "traversal.lanes_per_sweep": _ratio(
            units.get("traversal.lanes", 0.0), units.get("traversal.sweeps", 0.0)
        ),
        "gpu.accounting_calls": calls("gpu.accounting_s") / ops,
        "gpu.modelled_cost": traced.modelled_cost / ops,
        "gpu.modelled_elapsed": traced.modelled_elapsed / ops,
        "compression.encode_calls": calls("compression.encode_s") / ops,
        "dynamic.edges_applied": traced.updates_applied / ops,
        "dynamic.ignored_frac": _ratio(
            traced.updates_ignored, traced.updates_offered
        ),
        "views.incremental_batches": delta["view_incremental"] / ops,
        "views.full_recomputes": delta["view_full"] / ops,
        "views.full_recompute_frac": _ratio(delta["view_full"], consumed),
        "views.stale_serves": delta["view_stale"] / ops,
        "shard.supersteps": delta["supersteps"] / ops,
        "shard.exchange_volume": delta["exchange"] / ops,
        "shard.boundary_frac": _ratio(delta["boundary"], delta["exchange"]),
        "lifecycle.nodes_compacted": delta["compacted"] / ops,
        "setup.encode_s": setup_totals.get("compression.encode_s", (0.0, 0))[0],
        "setup.views_rebuild_s": setup_totals.get("views.rebuild_s", (0.0, 0))[0],
        "trace.unattributed_frac": _ratio(wall - covered, wall),
        "trace.overhead": _ratio(
            statistics.median(traced.work_s), statistics.median(untraced.work_s)
        ),
        "trace.ops": float(ops),
        "ref.csr_bfs_p50_s": floor_s,
    })
    return out


def line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else "")


def report(
    workload: Workload,
    seed: int,
    setups: list[float],
    phase: Phase,
    summary: OutcomeSummary,
    floor_s: float,
) -> list[str]:
    """Report lines naming each metric the way the workload sees it.

    ``op_*`` appear as ``read_*`` or ``write_*``; every timing carries its
    sample count and, for tails, the percentile used.
    """
    kind = workload.op_kind
    timing = summary.latency
    lines = [
        f"workload {workload.name}  seed {seed}  window {phase.window_s:.2f} s"
        f"  attempted {summary.attempted}  latency limit {workload.limit_s} s",
        line("setup_s", statistics.median(setups), "s",
             "median of " + " ".join(f"{s:.3f}" for s in setups)),
        line(f"{kind}_p50_s", timing.p50, "s", f"n={timing.count}"),
        line(f"{kind}_tail_s", timing.tail, "s",
             f"p{timing.tail_pct:.4g}, n={timing.count}"),
    ]
    if kind == "write":
        reads = Timing.of(phase.reads_s)
        lines += [
            line("write_eps", phase.updates_applied / phase.window_s, "1/s",
                 "edge updates applied per second"),
            line("read_p50_s", reads.p50, "s", f"view reads, n={reads.count}"),
            line("read_tail_s", reads.tail, "s",
                 f"p{reads.tail_pct:.4g}, n={reads.count}"),
            line("read_qps", reads.count / phase.window_s, "1/s"),
        ]
    else:
        lines.append(line("read_qps", summary.good_per_s, "1/s",
                          "answered correctly within the limit"))
    lines += [
        line("failed_frac", summary.failed_frac, "ratio",
             "refused, deadline-exceeded, failed or wrong"),
        line("degraded_frac", summary.degraded_frac, "ratio"),
    ]
    if phase.lateness_s:
        late = Timing.of(phase.lateness_s)
        lines.append(line("generator_late_s", late.p50, "s",
                          f"p50; max {max(phase.lateness_s):.6f} s"))
    lines.append(line("ref.csr_bfs_p50_s", floor_s, "s",
                      "uncompressed scipy floor, informational"))
    return lines
