"""Graph partitioners: split a graph into per-shard subgraphs.

A partition assigns every node -- and therefore every out-edge, which lives
with its source -- to exactly one shard.  The resulting
:class:`GraphPartition` is the bookkeeping record the sharded encode
(:class:`~repro.shard.sharded.ShardedCGRGraph`) and the scatter-gather
executor (:class:`~repro.shard.executor.ShardExecutor`) share: the
node-to-shard assignment, the per-shard node lists, and the
**shard-pair edge counts** -- how many edges run from each shard to each
other one, which bounds the traffic the frontier exchange between
supersteps can carry.

Three strategies are provided, mirroring the usual spectrum:

* :class:`HashPartitioner` -- a deterministic multiplicative hash of the node
  id; balanced in expectation, oblivious to locality.
* :class:`RangePartitioner` -- contiguous ranges of node ids, cut so each
  shard holds a near-equal share of the *edges*.  After a locality-improving
  reordering (:mod:`repro.reorder`) consecutive ids are topologically close,
  so range partitioning doubles as a cheap locality-aware strategy.
* :class:`GreedyEdgeCutPartitioner` -- places high-degree nodes first, each
  onto the shard holding most of its already-placed neighbours, subject to a
  configurable load-balance tolerance; trades assignment cost for a smaller
  edge cut.

All partitioners are deterministic: the same graph and shard count always
produce the same assignment, which the bit-identical-results guarantee of the
sharded execution tier depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from repro.graph.graph import Graph

#: Knuth's multiplicative hash constant (2^32 / phi), used to spread
#: consecutive node ids across shards deterministically.
_HASH_MULTIPLIER = 2654435761
_HASH_MASK = 0xFFFFFFFF


@dataclass
class GraphPartition:
    """A node-to-shard assignment plus the derived shard bookkeeping.

    Attributes:
        num_shards: number of shards the graph was split into.
        assignment: ``assignment[node] = shard`` for every node.
        shard_nodes: sorted global node ids owned by each shard.
        shard_edge_counts: out-edges stored on each shard (edges live with
            their source node, so every edge is counted exactly once).
        crossings: ``(num_shards, num_shards)`` edge counts,
            ``crossings[s, t]`` being the edges whose source lives on shard
            ``s`` and whose target lives on shard ``t != s`` (the diagonal
            is zero).  A superstep can exchange each such edge at most once.
    """

    num_shards: int
    assignment: np.ndarray
    shard_nodes: list[np.ndarray] = field(default_factory=list)
    shard_edge_counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    crossings: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.int64))

    @classmethod
    def from_assignment(
        cls,
        graph: "Graph | Sequence[Sequence[int]]",
        assignment: np.ndarray,
        num_shards: int,
    ) -> "GraphPartition":
        """Derive the shard tables and shard-pair edge counts from an
        assignment.

        ``graph`` is a :class:`~repro.graph.graph.Graph` or its adjacency
        lists in node order (what a restore reads from the shard overlays).
        """
        adjacency = graph.adjacency() if isinstance(graph, Graph) else graph
        assignment = np.asarray(assignment, dtype=np.int64)
        if len(assignment) != len(adjacency):
            raise ValueError(
                f"assignment length {len(assignment)} != num_nodes {len(adjacency)}"
            )
        if len(assignment) and (assignment.min() < 0 or assignment.max() >= num_shards):
            raise ValueError(f"assignment values must lie in [0, {num_shards})")
        shard_nodes = [
            np.flatnonzero(assignment == shard).astype(np.int64)
            for shard in range(num_shards)
        ]
        degrees = np.fromiter(map(len, adjacency), dtype=np.int64, count=len(adjacency))
        targets = np.fromiter(
            chain.from_iterable(adjacency), dtype=np.int64, count=int(degrees.sum())
        )
        pairs = np.bincount(
            np.repeat(assignment, degrees) * num_shards + assignment[targets],
            minlength=num_shards * num_shards,
        ).reshape(num_shards, num_shards)
        crossings = pairs.copy()
        np.fill_diagonal(crossings, 0)
        return cls(
            num_shards=num_shards,
            assignment=assignment,
            shard_nodes=shard_nodes,
            shard_edge_counts=pairs.sum(axis=1),
            crossings=crossings,
        )

    # -- lookups --------------------------------------------------------------

    def owner(self, node: int) -> int:
        """The shard that owns ``node`` (and stores its out-adjacency)."""
        return int(self.assignment[node])

    def split_frontier(self, frontier: Sequence[int]) -> dict[int, list[int]]:
        """Route a frontier to owning shards, preserving within-shard order.

        Only shards that own at least one frontier node appear in the result
        -- the mapping's size is the superstep's shard fan-out.
        """
        groups: dict[int, list[int]] = {}
        assignment = self.assignment
        for node in frontier:
            groups.setdefault(int(assignment[node]), []).append(node)
        return groups

    # -- statistics -----------------------------------------------------------

    @property
    def edge_cut(self) -> int:
        """Number of edges whose endpoints live on different shards."""
        return int(self.crossings.sum())

    def boundary_counts(self) -> dict[tuple[int, int], int]:
        """Crossing-edge counts per ``(source_shard, target_shard)`` pair
        (pairs without crossing edges omitted)."""
        return {
            (int(source), int(target)): int(self.crossings[source, target])
            for source, target in zip(*np.nonzero(self.crossings))
        }


class Partitioner:
    """Base class: subclasses implement :meth:`assign`; :meth:`partition`
    derives the full :class:`GraphPartition` with its shard-pair counts."""

    name = "base"

    def assign(self, graph: Graph, num_shards: int) -> np.ndarray:
        """``assignment[node] = shard`` for every node of ``graph``."""
        raise NotImplementedError

    def partition(self, graph: Graph, num_shards: int) -> GraphPartition:
        """Split ``graph`` into ``num_shards`` shards."""
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        assignment = self.assign(graph, num_shards)
        return GraphPartition.from_assignment(graph, assignment, num_shards)


class HashPartitioner(Partitioner):
    """Deterministic multiplicative hash of the node id, modulo shard count.

    Balanced in expectation for any id distribution; oblivious to topology,
    so its edge cut approaches ``1 - 1/num_shards`` of all edges.
    """

    name = "hash"

    def assign(self, graph: Graph, num_shards: int) -> np.ndarray:
        """Multiplicative-hash assignment of every node id to a shard."""
        nodes = np.arange(graph.num_nodes, dtype=np.int64)
        mixed = (nodes * _HASH_MULTIPLIER) & _HASH_MASK
        return (mixed % num_shards).astype(np.int64)


class RangePartitioner(Partitioner):
    """Contiguous node-id ranges, cut to balance per-shard *edge* counts.

    Node ids are assumed to carry locality (either natively or after a
    :mod:`repro.reorder` pass), so contiguous ranges keep topologically close
    nodes co-located and the edge cut low on web-like graphs.  Cut points are
    chosen on the cumulative degree distribution: each shard receives the
    next run of nodes until it holds at least its proportional share of the
    edges.
    """

    name = "range"

    def assign(self, graph: Graph, num_shards: int) -> np.ndarray:
        """Contiguous id ranges cut on the cumulative degree distribution."""
        num_nodes = graph.num_nodes
        assignment = np.zeros(num_nodes, dtype=np.int64)
        if num_nodes == 0 or num_shards == 1:
            return assignment
        # Weight each node by degree + 1 so empty-adjacency nodes still
        # spread across shards instead of piling onto the last one.
        weights = graph.degrees() + 1
        cumulative = np.cumsum(weights)
        total = int(cumulative[-1])
        shard = 0
        for node in range(num_nodes):
            # Advance to the next shard once this one holds its share, but
            # never leave a later shard without at least one candidate node.
            share_boundary = (shard + 1) * total / num_shards
            if cumulative[node] - weights[node] >= share_boundary:
                shard = min(shard + 1, num_shards - 1)
            remaining_nodes = num_nodes - node
            remaining_shards = num_shards - shard
            if remaining_nodes < remaining_shards:
                shard = num_shards - remaining_nodes
            assignment[node] = shard
        return assignment


class GreedyEdgeCutPartitioner(Partitioner):
    """Greedy balanced placement minimising the edge cut.

    Nodes are placed in descending degree order (heavy hitters first, while
    every shard still has headroom).  Each node goes to the shard that
    already holds most of its neighbours -- counting both edge directions --
    among the shards whose load stays below :meth:`load_cap`; ties break
    toward the lighter shard, then the smaller shard id, keeping the
    assignment deterministic.

    ``balance_tolerance`` is the advertised imbalance bound: no shard's load
    (sum of ``degree + 1`` over its nodes) exceeds
    ``(1 + balance_tolerance) * total_load / num_shards``, rounded up, plus
    at most one node's own load (a single placement can never be split).
    """

    name = "greedy"

    def __init__(self, balance_tolerance: float = 0.1) -> None:
        if balance_tolerance < 0:
            raise ValueError(
                f"balance_tolerance must be >= 0, got {balance_tolerance}"
            )
        self.balance_tolerance = balance_tolerance

    def load_cap(self, graph: Graph, num_shards: int) -> float:
        """Per-shard load bound placements must stay under when possible."""
        total_load = graph.num_edges + graph.num_nodes
        return (1 + self.balance_tolerance) * total_load / num_shards

    def assign(self, graph: Graph, num_shards: int) -> np.ndarray:
        """Greedy heaviest-first placement under the load-balance cap."""
        num_nodes = graph.num_nodes
        assignment = np.full(num_nodes, -1, dtype=np.int64)
        if num_shards == 1:
            return np.zeros(num_nodes, dtype=np.int64)
        degrees = graph.degrees()
        # Undirected neighbour sets: affinity counts both edge directions,
        # since a cut edge costs the same whichever endpoint is remote.
        undirected: list[set[int]] = [set() for _ in range(num_nodes)]
        for source, target in graph.edges():
            undirected[source].add(target)
            undirected[target].add(source)
        cap = self.load_cap(graph, num_shards)
        loads = np.zeros(num_shards, dtype=np.int64)
        order = sorted(range(num_nodes), key=lambda n: (-degrees[n], n))
        for node in order:
            node_load = int(degrees[node]) + 1
            affinity = np.zeros(num_shards, dtype=np.int64)
            for neighbor in undirected[node]:
                shard = assignment[neighbor]
                if shard >= 0:
                    affinity[shard] += 1
            candidates = [s for s in range(num_shards) if loads[s] + node_load <= cap]
            if candidates:
                best = min(candidates, key=lambda s: (-affinity[s], loads[s], s))
            else:
                # No shard has headroom: balance beats affinity, so the
                # least-loaded shard absorbs the node.  Its load was at most
                # the average (<= cap), which keeps the advertised bound of
                # cap plus one node's own load.
                best = min(range(num_shards), key=lambda s: (loads[s], s))
            assignment[node] = best
            loads[best] += node_load
        return assignment


#: Registered partitioner factories, addressable by name in the service API.
PARTITIONERS: dict[str, type[Partitioner]] = {
    HashPartitioner.name: HashPartitioner,
    RangePartitioner.name: RangePartitioner,
    GreedyEdgeCutPartitioner.name: GreedyEdgeCutPartitioner,
}


def get_partitioner(partitioner: "Partitioner | str | None") -> Partitioner:
    """Resolve a partitioner instance from an instance, a name, or ``None``.

    ``None`` resolves to the default :class:`HashPartitioner`; unknown names
    raise :class:`KeyError` listing the registered strategies.
    """
    if partitioner is None:
        return HashPartitioner()
    if isinstance(partitioner, Partitioner):
        return partitioner
    try:
        return PARTITIONERS[partitioner]()
    except KeyError:
        known = ", ".join(sorted(PARTITIONERS))
        raise KeyError(
            f"unknown partitioner {partitioner!r}; known partitioners: {known}"
        ) from None


__all__ = [
    "GraphPartition",
    "GreedyEdgeCutPartitioner",
    "HashPartitioner",
    "PARTITIONERS",
    "Partitioner",
    "RangePartitioner",
    "get_partitioner",
]
