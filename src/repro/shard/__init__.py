"""Sharded graph partitions with a parallel scatter-gather execution tier.

The single-graph serving stack (:mod:`repro.service`) pays encode once and
amortises decode across queries, but one resident graph is still one
process-wide unit of work.  This package splits a graph into independently
encoded, independently updatable shards and runs traversals over them as
bulk-synchronous supersteps:

* :mod:`repro.shard.partition` -- pluggable partitioners (hash, range by
  reordered id, greedy edge-cut balancing) producing a
  :class:`GraphPartition` with its shard-pair edge counts;
* :mod:`repro.shard.sharded` -- :class:`ShardedCGRGraph`, one CGR stream per
  shard in the global id space, exposing the single-stream
  :class:`~repro.compression.cgr.CGRGraph` read contract;
* :mod:`repro.shard.executor` -- :class:`ShardExecutor`, a
  :class:`~repro.apps.pipeline.FrontierEngine` whose ``expand`` scatters the
  frontier to shard engines (inline or process-backed), gathers the
  decoded neighbours in canonical order, and exchanges the admitted frontier
  between supersteps.  Results are independent of the sharding: identical
  for every partitioner and shard count, bit-identical to the unsharded
  engine for integer-valued answers (BFS, CC), and float-for-float equal to
  the canonical-order unsharded expansion for float accumulations
  (PageRank, BC).

Quick start -- shard a graph four ways and run BFS over the shards::

    from repro.apps.bfs import bfs
    from repro.shard import ShardedCGRGraph, ShardExecutor

    sharded = ShardedCGRGraph.from_graph(graph, num_shards=4,
                                         partitioner="greedy")
    with ShardExecutor(sharded, backend="process") as executor:
        result = bfs(executor, source=0)

Through the serving stack, ``TraversalService.register_graph(name, graph,
shards=4)`` registers a sharded entry transparently: queries fan out across
shards, ``apply_updates`` routes each edge to its owner shard's delta
overlay, and per-query metrics report the shard fan-out and exchange volume.
"""

from repro.shard.executor import (
    BACKENDS,
    ShardCounters,
    ShardExecutor,
    ShardWorkerError,
)
from repro.shard.partition import (
    GraphPartition,
    GreedyEdgeCutPartitioner,
    HashPartitioner,
    PARTITIONERS,
    Partitioner,
    RangePartitioner,
    get_partitioner,
)
from repro.shard.sharded import ShardedCGRGraph

__all__ = [
    "BACKENDS",
    "GraphPartition",
    "GreedyEdgeCutPartitioner",
    "HashPartitioner",
    "PARTITIONERS",
    "Partitioner",
    "RangePartitioner",
    "ShardCounters",
    "ShardExecutor",
    "ShardWorkerError",
    "ShardedCGRGraph",
    "get_partitioner",
]
