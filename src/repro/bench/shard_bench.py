"""Shard-throughput measurement: superstep scatter-gather vs one engine.

The measurement core shared by the gate benchmark
(``benchmarks/test_shard_throughput.py``) and the recording script
(``scripts/record_bench.py``): run BFS over the large synthetic families
twice --

* **unsharded** -- one resident :class:`~repro.traversal.gcgt.GCGTEngine`
  over the whole graph, warm decoded-plan cache, the single-process serving
  configuration;
* **sharded** -- a :class:`~repro.shard.executor.ShardExecutor` over
  ``num_shards`` independently encoded shards running the superstep-native
  BFS (shard-side admission, lane-mask frontier exchange),

asserting levels and iteration counts bit-identical, then reporting the
**modelled parallel speedup**: the unsharded run's simulated cost divided by
the sharded run's superstep critical path (per superstep, only the slowest
shard is charged -- one worker per shard, barrier at the exchange).  The
device cost model is the repository's standard elapsed-time currency (the
GPU itself is simulated, and the CPU baselines model their 36 threads the
same way), which keeps the gate deterministic: wall-clock scaling would
additionally depend on the benchmark host's core count, so the wall-clock
seconds of both paths and the host's ``cpu_count`` are *recorded* in
``BENCH_shard.json`` for transparency but not gated.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from typing import Sequence

from repro.graph.datasets import load_dataset
from repro.service.cache import DecodedAdjacencyCache
from repro.shard.executor import ShardExecutor
from repro.shard.sharded import ShardedCGRGraph
from repro.traversal.gcgt import GCGTEngine

#: The large synthetic families the gate sweeps: the densest web crawl and
#: the most skewed social network (the hard case for shard load balance).
SHARD_BENCH_DATASETS: tuple[str, ...] = ("uk-2007", "twitter")

#: Node count the gate runs at -- large enough that per-superstep exchange
#: overhead amortises the way it would at paper scale.
SHARD_BENCH_SCALE = 4000

#: Shard/worker count the gate models (one worker per shard).
SHARD_BENCH_WORKERS = 4

#: BFS sources per dataset.
SHARD_BENCH_SOURCES: tuple[int, ...] = (0, 1)


@dataclass(frozen=True)
class ShardBenchResult:
    """One dataset's measured sharded-vs-unsharded BFS execution."""

    dataset: str
    nodes: int
    edges: int
    shards: int
    partitioner: str
    edge_cut: int
    #: Simulated elapsed proxies (device cost units / warp parallelism).
    unsharded_elapsed: float
    sharded_critical_elapsed: float
    #: The sharded run's *total* work on the same scale -- the critical path
    #: must sit well below this for the speedup to be genuine concurrency.
    sharded_total_elapsed: float
    #: Wall-clock seconds (recorded, not gated; scaling depends on cores).
    unsharded_seconds: float
    sharded_seconds: float
    exchange_messages: int
    supersteps: int

    @property
    def speedup(self) -> float:
        """Modelled parallel speedup: serial cost over superstep critical path."""
        return self.unsharded_elapsed / self.sharded_critical_elapsed

    @property
    def shard_concurrency(self) -> float:
        """How much of the sharded run's own work overlaps: total work over
        critical path (bounded by the shard count)."""
        return self.sharded_total_elapsed / self.sharded_critical_elapsed

    @property
    def wall_speedup(self) -> float:
        """Observed wall-clock ratio (meaningful only with >= shards cores)."""
        return self.unsharded_seconds / self.sharded_seconds

    def as_row(self) -> dict:
        """A JSON-ready row (dataclass fields plus the derived ratios)."""
        row = asdict(self)
        row["speedup"] = round(self.speedup, 2)
        row["wall_speedup"] = round(self.wall_speedup, 2)
        row["shard_concurrency"] = round(self.shard_concurrency, 2)
        for key in (
            "unsharded_elapsed", "sharded_critical_elapsed",
            "sharded_total_elapsed", "unsharded_seconds", "sharded_seconds",
        ):
            row[key] = round(row[key], 6)
        return row


def measure_dataset(
    name: str,
    scale: int = SHARD_BENCH_SCALE,
    num_shards: int = SHARD_BENCH_WORKERS,
    partitioner: str = "hash",
    sources: Sequence[int] = SHARD_BENCH_SOURCES,
    backend: str = "inline",
) -> ShardBenchResult:
    """Measure sharded-vs-unsharded BFS on one dataset.

    Raises :class:`AssertionError` if any source's levels or iteration count
    differ between the two paths -- speedup is only meaningful on identical
    answers.  ``backend`` selects how the sharded run executes; the critical
    path is measured from per-shard cost metrics either way, so the default
    in-process backend keeps the gate free of scheduler noise.
    """
    from repro.apps.bfs import bfs

    graph = load_dataset(name, scale)
    engine = GCGTEngine.from_graph(
        graph, plan_cache=DecodedAdjacencyCache(graph.num_nodes + 1)
    )
    sharded = ShardedCGRGraph.from_graph(graph, num_shards, partitioner=partitioner)
    executor = ShardExecutor(
        sharded, backend=backend, cache_capacity=graph.num_nodes + 1
    )
    try:
        # Warm both decoded-plan paths so the measurement is the serving
        # steady state, not first-touch plan building.
        for source in sources:
            unsharded = bfs(engine, source)
            result = executor.bfs(source)
            assert (unsharded.levels == result.levels).all(), (
                f"sharded BFS diverged from the engine on {name!r} source {source}"
            )
            assert unsharded.iterations == result.iterations

        session = engine.new_session()
        began = time.perf_counter()
        for source in sources:
            bfs(session, source)
        unsharded_seconds = time.perf_counter() - began
        unsharded_elapsed = engine.device.elapsed_proxy(session.metrics)

        counters_before = executor.counters()
        critical_before = executor.critical_cost
        began = time.perf_counter()
        for source in sources:
            executor.bfs(source)
        sharded_seconds = time.perf_counter() - began
        counters_after = executor.counters()
        critical_cost = executor.critical_cost - critical_before
        warps = max(1, executor.device.concurrent_warps)
        sharded_critical_elapsed = critical_cost / warps
        sharded_total_elapsed = (
            counters_after.cost - counters_before.cost
        ) / warps

        return ShardBenchResult(
            dataset=name,
            nodes=graph.num_nodes,
            edges=graph.num_edges,
            shards=num_shards,
            partitioner=partitioner,
            edge_cut=sharded.partition.edge_cut,
            unsharded_elapsed=unsharded_elapsed,
            sharded_critical_elapsed=sharded_critical_elapsed,
            sharded_total_elapsed=sharded_total_elapsed,
            unsharded_seconds=unsharded_seconds,
            sharded_seconds=sharded_seconds,
            exchange_messages=(
                counters_after.exchange_volume - counters_before.exchange_volume
            ),
            supersteps=counters_after.supersteps - counters_before.supersteps,
        )
    finally:
        executor.close()


def run_shard_benchmark(
    datasets: Sequence[str] = SHARD_BENCH_DATASETS,
    scale: int = SHARD_BENCH_SCALE,
    num_shards: int = SHARD_BENCH_WORKERS,
    partitioner: str = "hash",
    backend: str = "inline",
) -> list[ShardBenchResult]:
    """Measure every dataset; returns one result per dataset, in order."""
    return [
        measure_dataset(
            name, scale=scale, num_shards=num_shards,
            partitioner=partitioner, backend=backend,
        )
        for name in datasets
    ]


def host_parallelism() -> int:
    """Cores the benchmark host offers (context for the wall-clock columns)."""
    return os.cpu_count() or 1


__all__ = [
    "SHARD_BENCH_DATASETS",
    "SHARD_BENCH_SCALE",
    "SHARD_BENCH_SOURCES",
    "SHARD_BENCH_WORKERS",
    "ShardBenchResult",
    "host_parallelism",
    "measure_dataset",
    "run_shard_benchmark",
]
