"""Sharded CGR: a graph encoded as independent per-shard compressed streams.

Each shard holds the full out-adjacency of the nodes a
:class:`~repro.shard.partition.GraphPartition` assigned to it, encoded with
the regular CGR encoder (:meth:`~repro.compression.cgr.CGRGraph.
from_adjacency`) **in the global node-id space**: a shard's stream stores
empty adjacency for the nodes it does not own.  Keeping the global id space
means

* gap compression, interval detection and the vectorized whole-graph decoder
  work on each shard unchanged -- no id translation layer anywhere;
* every decoded neighbour id is immediately routable to its owning shard,
  which is what the frontier exchange between supersteps needs;
* each shard can be wrapped in its own
  :class:`~repro.dynamic.DeltaOverlay` and updated independently, so update
  batches never force cross-shard re-encoding (the incremental-view
  motivation of the sharding tier).

The price is one ``bitStart[]`` offsets array per shard plus a few header
bits per non-owned node -- the per-shard replication overhead that
:meth:`repro.graph.datasets.DatasetSpec.projected_footprint_bytes` models at
paper scale.

:class:`ShardedCGRGraph` exposes the same read surface as
:class:`~repro.compression.cgr.CGRGraph` (``neighbors``, ``degree``,
``iter_adjacency``, ``decode_all``, size/compression statistics), routing
each call to the owning shard, so code written against the single-stream
contract runs on the sharded form untouched.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.compression.cgr import (
    CGRConfig,
    CGRGraph,
    UNCOMPRESSED_BITS_PER_EDGE,
)
from repro.graph.graph import Graph
from repro.shard.partition import GraphPartition, Partitioner, get_partitioner


class ShardedCGRGraph:
    """A graph split by a partitioner and CGR-encoded one shard at a time."""

    def __init__(
        self,
        partition: GraphPartition,
        shards: Sequence[CGRGraph],
        config: CGRConfig,
    ) -> None:
        if len(shards) != partition.num_shards:
            raise ValueError(
                f"expected {partition.num_shards} shard encodings, got {len(shards)}"
            )
        self.partition = partition
        self.shards = list(shards)
        self.config = config
        self.num_nodes = len(partition.assignment)
        self.num_edges = sum(shard.num_edges for shard in self.shards)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        num_shards: int,
        partitioner: "Partitioner | str | None" = None,
        config: CGRConfig | None = None,
    ) -> "ShardedCGRGraph":
        """Partition ``graph`` and encode every shard independently.

        Each shard's encode is a regular full-width CGR encode over the
        global id space with non-owned nodes left empty, so the per-shard
        streams decode with every existing decoder.
        """
        config = config or CGRConfig.paper_defaults()
        partition = get_partitioner(partitioner).partition(graph, num_shards)
        adjacency = graph.adjacency()
        shards = []
        for shard in range(partition.num_shards):
            owned = set(int(n) for n in partition.shard_nodes[shard])
            shard_adjacency: list[list[int]] = [
                adjacency[node] if node in owned else []
                for node in range(graph.num_nodes)
            ]
            shards.append(CGRGraph.from_adjacency(shard_adjacency, config))
        return cls(partition=partition, shards=shards, config=config)

    # -- shard access -------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of shards the graph was split into."""
        return self.partition.num_shards

    def owner(self, node: int) -> int:
        """The shard holding ``node``'s adjacency."""
        self._check_node(node)
        return self.partition.owner(node)

    def shard_adjacency(self, shard: int) -> list[list[int]]:
        """The full-width adjacency of one shard (empty for non-owned nodes).

        This is what a remote worker needs to rebuild the shard's engine in
        its own process: decoded once from the shard's stream, so the worker
        re-encode is guaranteed to match the coordinator's copy.
        """
        return self.shards[shard].decode_all()

    # -- CGRGraph-compatible read surface -----------------------------------

    def neighbors(self, node: int) -> list[int]:
        """The sorted adjacency list of ``node``, decoded from its owner shard."""
        self._check_node(node)
        return self.shards[self.partition.owner(node)].neighbors(node)

    def degree(self, node: int) -> int:
        """Out-degree of ``node``."""
        self._check_node(node)
        return self.shards[self.partition.owner(node)].degree(node)

    def iter_adjacency(self) -> Iterable[list[int]]:
        """Yield every node's adjacency list in node order."""
        for node in range(self.num_nodes):
            yield self.neighbors(node)

    def decode_all(self) -> list[list[int]]:
        """Every node's adjacency, each shard decoded whole then merged.

        Per-shard :meth:`~repro.compression.cgr.CGRGraph.decode_all` keeps
        the vectorized path; the merge takes each node's list from its owner.
        """
        merged: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for shard_index, shard in enumerate(self.shards):
            decoded = shard.decode_all()
            for node in self.partition.shard_nodes[shard_index]:
                merged[int(node)] = decoded[int(node)]
        return merged

    # -- statistics ---------------------------------------------------------

    @property
    def total_bits(self) -> int:
        """Compressed payload bits summed across every shard stream."""
        return sum(shard.total_bits for shard in self.shards)

    @property
    def bits_per_edge(self) -> float:
        """Aggregate bits per stored edge (per-shard streams summed)."""
        if self.num_edges == 0:
            return float("nan")
        return self.total_bits / self.num_edges

    @property
    def compression_rate(self) -> float:
        """The paper's metric over the aggregate streams: 32 / bits-per-edge."""
        if self.num_edges == 0:
            return float("nan")
        return UNCOMPRESSED_BITS_PER_EDGE / self.bits_per_edge

    def size_in_bytes(self) -> int:
        """Total footprint: every shard's payload plus its offsets array."""
        return sum(shard.size_in_bytes() for shard in self.shards)

    # -- helpers ------------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range [0, {self.num_nodes})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedCGRGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"shards={self.num_shards}, edge_cut={self.partition.edge_cut})"
        )


__all__ = ["ShardedCGRGraph"]
