"""Delta-overlay CGR: incremental edge updates over a frozen compressed base.

The paper's pipeline encodes a graph once and traverses the compressed form
forever after -- correct for static graphs, fatal for serving live traffic,
where every update batch would force a whole-graph re-encode and throw away
every decoded-plan cache entry.  :class:`DeltaOverlay` keeps the encoded base
**frozen** and absorbs mutations the way an LSM tree absorbs writes:

* *insertions* are recorded per node and encoded as a real residual-gap run
  in an append-only **side bit-stream** spliced after the base stream, so the
  traversal strategies (including the warp-centric live decoder, which reads
  raw bits) consume them exactly like base residual segments;
* *deletions* become per-node **tombstones**: the dead neighbour is still
  decoded (its bits are immovable inside the frozen stream) but is suppressed
  in the filtering step of the expansion--filtering--contraction pipeline,
  before the application's filter callback ever sees it;
* once a node's delta outgrows its :class:`~repro.dynamic.compaction.
  CompactionPolicy` threshold the node -- and only that node -- is re-encoded
  into interval/residual form in the side stream (an *extent*), its delta is
  cleared, and the dead bits are accounted as garbage.

Reads are transparent: the overlay duck-types the :class:`~repro.compression.
cgr.CGRGraph` surface the traversal engine consumes (``bits``, ``reader_at``,
``config``, sizes) plus three dynamic hooks the engine picks up when present
-- :meth:`build_node_plan` (merged adjacency plans), :meth:`wrap_filter`
(tombstone suppression) and :meth:`node_epoch` (cache invalidation keys).
Traversal results over the overlay are identical to a from-scratch encode of
the mutated graph; only the *cost* profile differs until compaction catches
up, which is exactly the trade the dynamic-serving benchmarks measure.

Every mutation bumps an **epoch**: a global batch counter plus a per-node
last-mutated mark.  The decoded-plan cache keys entries on the node's epoch,
so a stale plan can never be served even if explicit invalidation is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.compression.bitarray import BitReader, BitWriter, PackedBits
from repro.compression.cgr import CGRGraph, encode_node_adjacency
from repro.compression.gaps import to_vlc_value, zigzag_encode
from repro.compression.vectorized import supports
from repro.dynamic.compaction import CompactionPolicy
from repro.dynamic.updates import (
    DELETE,
    INSERT,
    EdgeUpdate,
    UpdateStats,
    coerce_updates,
)
from repro.traversal.context import (
    FilterFn,
    NodePlan,
    ResidualSegmentPlan,
    build_node_plan as build_structural_plan,
    build_node_plans as build_structural_plans,
)


class SplicedBits:
    """Read-only view of the base bit stream with the side stream appended.

    Bit offsets below ``len(base)`` resolve into the frozen base stream;
    offsets at or above it resolve into the overlay's append-only side
    stream.  The view implements the packed read surface
    (:meth:`extract` / :meth:`scan`) of
    :class:`~repro.compression.bitarray.PackedBits` by delegating to the two
    underlying packed buffers -- stitching fields that straddle the splice
    boundary from both halves -- so every word-level decoder, including the
    warp-centric speculative decoder and the bulk VLC run API, reads overlay
    data at full speed without modification.  Per-bit indexing is kept for
    compatibility with the seed's list-of-bits surface.
    """

    def __init__(self, base: "PackedBits", side: "PackedBits") -> None:
        self._base = base
        self._base_length = len(base)
        self._side = side

    def __len__(self) -> int:
        return self._base_length + len(self._side)

    def __getitem__(self, index: int) -> int:
        if index < self._base_length:
            return self._base[index]
        return self._side[index - self._base_length]

    def extract(self, position: int, width: int) -> int:
        """Read ``width`` bits MSB-first at ``position`` across the splice."""
        boundary = self._base_length
        end = position + width
        if end <= boundary:
            return self._base.extract(position, width)
        if position >= boundary:
            return self._side.extract(position - boundary, width)
        low_width = end - boundary
        if low_width > len(self._side):
            raise EOFError(
                f"need {width} bits at position {position}, "
                f"only {len(self) - position} remain"
            )
        high = self._base.extract(position, boundary - position)
        return (high << low_width) | self._side.extract(0, low_width)

    def scan(self, position: int, terminator: int = 1) -> int:
        """First ``terminator`` bit at or after ``position``; -1 at stream end."""
        boundary = self._base_length
        if position < boundary:
            found = self._base.scan(position, terminator)
            if found >= 0:
                return found
            position = boundary
        found = self._side.scan(position - boundary, terminator)
        return found + boundary if found >= 0 else -1


@dataclass
class _Extent:
    """A compacted node's re-encoded adjacency list in the side stream."""

    start_bit: int
    bit_length: int
    degree: int


@dataclass
class _InsertRun:
    """One node's pending insertions, encoded as a residual-gap run."""

    #: The delta's ``inserts_version`` this run was encoded at.
    version: int
    segment: ResidualSegmentPlan
    total_bits: int


@dataclass
class NodeDelta:
    """Pending mutations of one node, relative to its current extent.

    ``inserts`` holds neighbours absent from the extent; ``tombstones``
    holds extent neighbours that were deleted.  The two sets are disjoint
    from each other by construction (normalisation happens at apply time).
    ``run`` caches the encoded form of ``inserts``; it is keyed on
    ``inserts_version`` -- bumped only when ``inserts`` itself changes --
    so tombstone-only mutations never force a byte-identical re-encode
    into the side stream.
    """

    inserts: set[int] = field(default_factory=set)
    tombstones: set[int] = field(default_factory=set)
    #: Bumped on every mutation of ``inserts`` (not ``tombstones``).
    inserts_version: int = 0
    run: _InsertRun | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        """Delta magnitude the compaction policy thresholds on."""
        return len(self.inserts) + len(self.tombstones)

    @property
    def empty(self) -> bool:
        """Whether the delta carries no pending mutations at all."""
        return not self.inserts and not self.tombstones


@dataclass(frozen=True)
class OverlayStats:
    """Point-in-time structural statistics of a :class:`DeltaOverlay`."""

    num_nodes: int
    num_edges: int
    epoch: int
    dirty_nodes: int
    compacted_nodes: int
    pending_inserts: int
    pending_tombstones: int
    side_bits: int
    garbage_bits: int
    live_bits: int
    compactions: int
    updates_applied: int
    updates_ignored: int


class DeltaOverlay:
    """A mutable graph view: frozen CGR base + per-node deltas + extents.

    The overlay is the engine-facing graph of every dynamic entry in the
    :class:`~repro.service.GraphRegistry`: traversal sessions read through it
    transparently (merged adjacency = extent decode, union inserts, minus
    tombstones) while :meth:`apply` absorbs update batches in time
    proportional to the delta, never the graph.

    Args:
        base: the frozen full-graph encode the overlay starts from.
        policy: when to fold a node's delta back into CGR form; defaults to
            :class:`~repro.dynamic.compaction.CompactionPolicy`'s defaults.
            Pass ``CompactionPolicy.never()`` to keep deltas forever.
    """

    def __init__(
        self,
        base: CGRGraph,
        policy: CompactionPolicy | None = None,
    ) -> None:
        self.base = base
        self.config = base.config
        self.policy = policy or CompactionPolicy()
        self.num_nodes = base.num_nodes
        self._num_edges = base.num_edges
        #: Append-only packed side stream; compacted extents and encoded
        #: insert runs land here, word-aligned appends only.
        self._side = BitWriter()
        self._bits = SplicedBits(base.bits, self._side)
        self._deltas: dict[int, NodeDelta] = {}
        self._extents: dict[int, _Extent] = {}
        #: Lazily-built membership sets of each touched node's extent.
        self._extent_sets: dict[int, frozenset[int]] = {}
        #: Monotone batch counter; bumped by every effective apply/compact.
        self.epoch = 0
        self._node_epochs: dict[int, int] = {}
        #: Total tombstones across all deltas, maintained incrementally so
        #: the per-iteration wrap_filter fast path is O(1), not O(dirty).
        self._tombstone_total = 0
        self.garbage_bits = 0
        self.compactions = 0
        self.updates_applied = 0
        self.updates_ignored = 0

    # -- CGRGraph-compatible read surface -------------------------------------

    @property
    def bits(self) -> SplicedBits:
        """The spliced bit stream (base followed by the side stream)."""
        return self._bits

    @property
    def offsets(self):
        """The base ``bitStart[]`` array.

        Only authoritative for non-compacted nodes; use :meth:`reader_at`,
        which redirects compacted nodes to their side-stream extent.
        """
        return self.base.offsets

    @property
    def num_edges(self) -> int:
        """Live directed edge count (base edges + inserts - deletions)."""
        return self._num_edges

    def reader_at(self, node: int):
        """A bit reader positioned at the node's current extent."""
        self._check_node(node)
        extent = self._extents.get(node)
        if extent is not None:
            return BitReader(self._bits, extent.start_bit)
        return BitReader(self._bits, int(self.base.offsets[node]))

    def node_bit_length(self, node: int) -> int:
        """Bits the node's current extent occupies (excluding its delta run)."""
        self._check_node(node)
        extent = self._extents.get(node)
        if extent is not None:
            return extent.bit_length
        return self.base.node_bit_length(node)

    @property
    def total_bits(self) -> int:
        """Size of the spliced stream, dead bits included."""
        return len(self._bits)

    @property
    def live_bits(self) -> int:
        """Bits still reachable through some node's extent or delta run."""
        return self.total_bits - self.garbage_bits

    @property
    def bits_per_edge(self) -> float:
        """Average live bits per stored edge."""
        if self._num_edges == 0:
            return float("nan")
        return self.live_bits / self._num_edges

    @property
    def compression_rate(self) -> float:
        """The paper's metric over live bits: 32 / bits-per-edge."""
        if self._num_edges == 0:
            return float("nan")
        return 32 / self.bits_per_edge

    def size_in_bytes(self) -> int:
        """Device-resident footprint: spliced payload plus the offset array."""
        return (self.total_bits + 7) // 8 + self.base.offsets.nbytes

    # -- merged adjacency ------------------------------------------------------

    def neighbors(self, node: int) -> list[int]:
        """The node's merged sorted adjacency list (extent + inserts - tombstones)."""
        self._check_node(node)
        delta = self._deltas.get(node)
        extent = self._extent_neighbor_set(node)
        if delta is None:
            return sorted(extent)
        merged = (extent | delta.inserts) - delta.tombstones
        return sorted(merged)

    def degree(self, node: int) -> int:
        """Merged out-degree of ``node`` (the *logical* degree after updates)."""
        self._check_node(node)
        delta = self._deltas.get(node)
        base_degree = len(self._extent_neighbor_set(node))
        if delta is None:
            return base_degree
        return base_degree + len(delta.inserts) - len(delta.tombstones)

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the merged graph currently contains ``source -> target``."""
        self._check_node(source)
        delta = self._deltas.get(source)
        if delta is not None:
            if target in delta.inserts:
                return True
            if target in delta.tombstones:
                return False
        return target in self._extent_neighbor_set(source)

    def iter_adjacency(self) -> Iterator[list[int]]:
        """Yield every node's merged adjacency list in node order."""
        for node in range(self.num_nodes):
            yield self.neighbors(node)

    def adjacency(self, nodes: Sequence[int] | None = None) -> list[list[int]]:
        """Merged sorted adjacency lists of ``nodes`` (every node by
        default), in the order given.

        Nodes still clean on the base stream are decoded together in one
        vectorized walk over the base's resident
        :meth:`~repro.compression.cgr.CGRGraph.layout_decoder`; compacted
        and dirty nodes take :meth:`neighbors`.  So a whole-topology read
        caches no clean node's extent set.
        """
        if nodes is None:
            nodes = range(self.num_nodes)
        on_base = [
            node for node in nodes
            if node not in self._deltas and node not in self._extents
        ]
        if supports(self.base):
            lists = self.base.layout_decoder().decode(
                np.asarray(on_base, dtype=np.int64)
            )
        else:
            lists = [self.base.neighbors(node) for node in on_base]
        decoded = dict(zip(on_base, lists))
        return [
            decoded[node] if node in decoded else self.neighbors(node)
            for node in nodes
        ]

    def materialize(self):
        """The merged graph as a plain :class:`~repro.graph.graph.Graph`.

        A full O(V + E) decode -- meant for tests and offline checkpointing,
        not the serving path.
        """
        from repro.graph.graph import Graph

        return Graph(self.adjacency())

    # -- engine hooks ----------------------------------------------------------

    def build_node_plan(self, node: int) -> NodePlan:
        """Merged traversal plan: structural decode of the extent, plus the
        node's insert run appended as one extra residual segment.

        Tombstoned neighbours intentionally remain in the plan -- their bits
        sit inside the frozen extent, so the simulated warp still pays to
        decode them (that is the real read-amplification cost of deletions
        before compaction); :meth:`wrap_filter` stops them from reaching the
        application.
        """
        plan = build_structural_plan(self, node)
        delta = self._deltas.get(node)
        if delta is not None and delta.inserts:
            segment = self._insert_segment(node, delta)
            plan.residual_segments.append(segment)
            plan.degree += segment.count
        return plan

    def build_node_plans(self, nodes: Sequence[int]) -> list[NodePlan]:
        """Merged plans of ``nodes``, equal to :meth:`build_node_plan` each.

        Clean nodes still on the base stream are decoded together in one
        vectorized walk (:func:`~repro.traversal.context.build_node_plans`
        over :attr:`base`); dirty nodes and side-stream extents take
        :meth:`build_node_plan`.
        """
        on_base = [
            node for node in nodes
            if node not in self._deltas and node not in self._extents
        ]
        batched = dict(zip(on_base, build_structural_plans(self.base, on_base)))
        return [
            batched[node] if node in batched else self.build_node_plan(node)
            for node in nodes
        ]

    def wrap_filter(self, filter_fn: FilterFn) -> FilterFn:
        """Interpose tombstone suppression before the application filter.

        Returns ``filter_fn`` unchanged when no tombstones exist (the common
        fast path), otherwise a wrapper that rejects deleted ``(source,
        neighbor)`` pairs during the filtering step -- the contraction never
        admits a dead edge, whatever strategy decoded it.
        """
        deltas = self._deltas
        if self._tombstone_total == 0:
            return filter_fn

        def tombstone_filter(source: int, neighbor: int) -> bool:
            delta = deltas.get(source)
            if delta is not None and neighbor in delta.tombstones:
                return False
            return filter_fn(source, neighbor)

        return tombstone_filter

    def node_epoch(self, node: int) -> int:
        """Epoch of the node's last mutation (0 when never mutated).

        The decoded-plan cache keys entries on this value, so plans built
        before a mutation can never be served after it.
        """
        return self._node_epochs.get(node, 0)

    def is_dirty(self, node: int) -> bool:
        """Whether the node currently carries an un-compacted delta."""
        return node in self._deltas

    def delta_size(self, node: int) -> int:
        """Pending inserts + tombstones of ``node`` (0 when clean)."""
        delta = self._deltas.get(node)
        return 0 if delta is None else delta.size

    def dirty_nodes(self) -> list[int]:
        """Every node carrying an un-compacted delta, sorted ascending.

        The maintenance scheduler's work list: it compacts the largest
        deltas first within a bounded per-tick budget (see
        :mod:`repro.lifecycle.maintenance`).
        """
        return sorted(self._deltas)

    # -- updates ---------------------------------------------------------------

    def apply(self, updates: Iterable) -> UpdateStats:
        """Absorb a batch of edge updates; returns what actually changed.

        Updates are applied in order with no-op normalisation: duplicate
        inserts, deletes of absent edges and self-loops are counted in
        ``stats.ignored``.  Node ids outside ``[0, num_nodes)`` raise
        :class:`ValueError` *before any state changes* -- a rejected batch
        is all-or-nothing, so the overlay never diverges from its callers'
        bookkeeping.  When anything changed, the overlay's epoch advances
        and every touched node is marked with it; nodes whose delta crossed
        the compaction threshold are folded back into CGR form before
        returning.
        """
        batch = coerce_updates(updates)
        for update in batch:
            self._check_node(update.source)
            self._check_node(update.target)
        stats = UpdateStats()
        for update in batch:
            self._apply_one(update, stats)
        if stats.touched_nodes:
            self.epoch += 1
            for node in stats.touched_nodes:
                self._node_epochs[node] = self.epoch
            for node in sorted(stats.touched_nodes):
                delta = self._deltas.get(node)
                if delta is not None and self.policy.should_compact(
                    delta.size, len(self._extent_neighbor_set(node))
                ):
                    self.compact(node)
                    stats.compactions += 1
        self.updates_applied += stats.changed
        self.updates_ignored += stats.ignored
        return stats

    def insert_edge(self, source: int, target: int) -> UpdateStats:
        """Apply a single insertion (see :meth:`apply`)."""
        return self.apply([EdgeUpdate.insert(source, target)])

    def delete_edge(self, source: int, target: int) -> UpdateStats:
        """Apply a single deletion (see :meth:`apply`)."""
        return self.apply([EdgeUpdate.delete(source, target)])

    def _apply_one(self, update: EdgeUpdate, stats: UpdateStats) -> None:
        source, target = update.source, update.target
        if source == target:
            stats.ignored += 1
            return
        in_extent = target in self._extent_neighbor_set(source)
        delta = self._deltas.get(source)

        if update.kind == INSERT:
            if in_extent:
                if delta is not None and target in delta.tombstones:
                    delta.tombstones.discard(target)  # resurrect
                    self._tombstone_total -= 1
                else:
                    stats.ignored += 1
                    return
            else:
                if delta is not None and target in delta.inserts:
                    stats.ignored += 1
                    return
                if delta is None:
                    delta = self._deltas.setdefault(source, NodeDelta())
                delta.inserts.add(target)
                delta.inserts_version += 1
            self._num_edges += 1
            stats.inserted += 1
        else:  # DELETE
            if delta is not None and target in delta.inserts:
                delta.inserts.discard(target)
                delta.inserts_version += 1
            elif in_extent and (delta is None or target not in delta.tombstones):
                if delta is None:
                    delta = self._deltas.setdefault(source, NodeDelta())
                delta.tombstones.add(target)
                self._tombstone_total += 1
            else:
                stats.ignored += 1
                return
            self._num_edges -= 1
            stats.deleted += 1

        stats.touched_nodes.add(source)
        stats.applied.append(update)
        if delta is not None and delta.empty:
            self._drop_delta(source)

    # -- compaction ------------------------------------------------------------

    def compact(self, node: int) -> bool:
        """Re-encode ``node``'s merged adjacency into a fresh side-stream extent.

        The node's delta is cleared, its previous extent (base or side) and
        any encoded insert run become garbage, and the node's epoch advances
        so cached plans rebuild from the new extent.  Returns ``False`` when
        the node was already clean (nothing to fold).
        """
        self._check_node(node)
        delta = self._deltas.get(node)
        if delta is None:
            return False
        merged = self.neighbors(node)
        writer = BitWriter()
        encode_node_adjacency(writer, self.config, node, merged)
        old = self._extents.get(node)
        self.garbage_bits += (
            old.bit_length if old is not None else self.base.node_bit_length(node)
        )
        start = len(self._bits)
        self._side.extend(writer)
        self._extents[node] = _Extent(
            start_bit=start, bit_length=writer.bit_length, degree=len(merged)
        )
        self._extent_sets[node] = frozenset(merged)
        self._drop_delta(node)
        self.compactions += 1
        self.epoch += 1
        self._node_epochs[node] = self.epoch
        return True

    def compact_all(self) -> int:
        """Compact every dirty node; returns how many were folded."""
        count = 0
        for node in sorted(self._deltas):
            if self.compact(node):
                count += 1
        return count

    # -- persistence -----------------------------------------------------------

    @property
    def side_stream(self) -> PackedBits:
        """The append-only side stream (read-only by convention).

        Exposed for the persistent store (:mod:`repro.store`), which writes
        the stream's words verbatim into a delta file; everything else
        should read through :attr:`bits`.
        """
        return self._side

    def state_dict(self) -> dict:
        """JSON-safe structural state: everything except the side stream.

        Together with the side stream's words (written separately, see
        :attr:`side_stream`) this captures the overlay exactly:
        :meth:`from_state` rebuilds an overlay whose merged adjacency,
        epochs, extents, pending deltas *and bit-level layout* are identical
        to this one, so traversal plans -- and therefore simulated costs --
        are reproduced bit for bit after a restore.
        """
        deltas = []
        for node in sorted(self._deltas):
            delta = self._deltas[node]
            run = delta.run
            encoded_run = None
            if run is not None:
                segment = run.segment
                encoded_run = {
                    "version": run.version,
                    "total_bits": run.total_bits,
                    "segment": {
                        "data_start_bit": segment.data_start_bit,
                        "count": segment.count,
                        "count_bits": segment.count_bits,
                        "decoded": [list(entry) for entry in segment.decoded],
                    },
                }
            deltas.append({
                "node": node,
                "inserts": sorted(delta.inserts),
                "tombstones": sorted(delta.tombstones),
                "inserts_version": delta.inserts_version,
                "run": encoded_run,
            })
        return {
            "epoch": self.epoch,
            "num_edges": self._num_edges,
            "garbage_bits": self.garbage_bits,
            "compactions": self.compactions,
            "updates_applied": self.updates_applied,
            "updates_ignored": self.updates_ignored,
            "node_epochs": [
                [node, epoch] for node, epoch in sorted(self._node_epochs.items())
            ],
            "extents": [
                [node, extent.start_bit, extent.bit_length, extent.degree]
                for node, extent in sorted(self._extents.items())
            ],
            "deltas": deltas,
            "side_bit_length": len(self._side),
        }

    @classmethod
    def from_state(
        cls,
        base: CGRGraph,
        state: dict,
        side: PackedBits,
        policy: CompactionPolicy | None = None,
    ) -> "DeltaOverlay":
        """Rebuild an overlay from :meth:`state_dict` output plus its side
        stream, without replaying any update.

        ``side`` must hold exactly the bits the snapshotted overlay's side
        stream held (``state["side_bit_length"]`` of them); every restored
        extent and insert run references absolute offsets into the spliced
        stream, so the splice layout must match bit for bit.
        """
        if len(side) != state["side_bit_length"]:
            raise ValueError(
                f"side stream holds {len(side)} bits, state expects "
                f"{state['side_bit_length']}"
            )
        overlay = cls(base, policy=policy)
        writer = BitWriter()
        writer.extend(side)
        overlay._side = writer
        overlay._bits = SplicedBits(base.bits, writer)
        overlay.epoch = state["epoch"]
        overlay._num_edges = state["num_edges"]
        overlay.garbage_bits = state["garbage_bits"]
        overlay.compactions = state["compactions"]
        overlay.updates_applied = state["updates_applied"]
        overlay.updates_ignored = state["updates_ignored"]
        overlay._node_epochs = {
            int(node): int(epoch) for node, epoch in state["node_epochs"]
        }
        overlay._extents = {
            int(node): _Extent(
                start_bit=int(start), bit_length=int(bits), degree=int(degree)
            )
            for node, start, bits, degree in state["extents"]
        }
        for record in state["deltas"]:
            delta = NodeDelta(
                inserts=set(int(v) for v in record["inserts"]),
                tombstones=set(int(v) for v in record["tombstones"]),
                inserts_version=int(record["inserts_version"]),
            )
            encoded_run = record["run"]
            if encoded_run is not None:
                segment = encoded_run["segment"]
                delta.run = _InsertRun(
                    version=int(encoded_run["version"]),
                    total_bits=int(encoded_run["total_bits"]),
                    segment=ResidualSegmentPlan(
                        data_start_bit=int(segment["data_start_bit"]),
                        count=int(segment["count"]),
                        count_bits=int(segment["count_bits"]),
                        decoded=tuple(
                            (int(n), int(s), int(b))
                            for n, s, b in segment["decoded"]
                        ),
                    ),
                )
            overlay._deltas[int(record["node"])] = delta
            overlay._tombstone_total += len(delta.tombstones)
        return overlay

    # -- introspection ---------------------------------------------------------

    def stats(self) -> OverlayStats:
        """Structural counters for monitoring and tests."""
        return OverlayStats(
            num_nodes=self.num_nodes,
            num_edges=self._num_edges,
            epoch=self.epoch,
            dirty_nodes=len(self._deltas),
            compacted_nodes=len(self._extents),
            pending_inserts=sum(len(d.inserts) for d in self._deltas.values()),
            pending_tombstones=sum(
                len(d.tombstones) for d in self._deltas.values()
            ),
            side_bits=len(self._side),
            garbage_bits=self.garbage_bits,
            live_bits=self.live_bits,
            compactions=self.compactions,
            updates_applied=self.updates_applied,
            updates_ignored=self.updates_ignored,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaOverlay(nodes={self.num_nodes}, edges={self._num_edges}, "
            f"dirty={len(self._deltas)}, compacted={len(self._extents)}, "
            f"epoch={self.epoch})"
        )

    # -- internals -------------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")

    def _drop_delta(self, node: int) -> None:
        delta = self._deltas.pop(node, None)
        if delta is None:
            return
        self._tombstone_total -= len(delta.tombstones)
        if delta.run is not None:
            self.garbage_bits += delta.run.total_bits

    def _extent_neighbor_set(self, node: int) -> frozenset[int]:
        """Membership set of the node's current extent (cached once touched)."""
        cached = self._extent_sets.get(node)
        if cached is not None:
            return cached
        if node in self._extents:
            members = frozenset(self._extent_neighbor_list(node))
        else:
            members = frozenset(self.base.neighbors(node))
        self._extent_sets[node] = members
        return members

    def warm_extent_sets(self, nodes: Iterable[int]) -> None:
        """Cache the extent membership sets of ``nodes`` in one decode.

        Nodes still clean on the base stream are decoded together in one
        vectorized walk over the base's resident
        :meth:`~repro.compression.cgr.CGRGraph.layout_decoder`, instead of
        one scalar decode each when an update first touches them.  A
        follower replaying a CDC tail calls this once with every node the
        tail reads.  The cached sets are the same either way; ids out of
        range are left for :meth:`apply` to reject.  Like :meth:`apply`,
        call it under the lock that serialises the overlay's mutations.
        """
        missing = [
            node for node in set(nodes)
            if 0 <= node < self.num_nodes
            and node not in self._extent_sets
            and node not in self._extents
        ]
        if not missing or not supports(self.base):
            return
        lists = self.base.layout_decoder().decode(
            np.asarray(missing, dtype=np.int64)
        )
        for node, members in zip(missing, lists):
            self._extent_sets[node] = frozenset(members)

    def _extent_neighbor_list(self, node: int) -> list[int]:
        """Decode the node's extent (only) into a neighbour list."""
        plan = build_structural_plan(self, node)
        result: list[int] = []
        for interval in plan.intervals:
            result.extend(interval.nodes())
        for segment in plan.residual_segments:
            result.extend(neighbor for neighbor, _, _ in segment.decoded)
        return result

    def _insert_segment(self, node: int, delta: NodeDelta) -> ResidualSegmentPlan:
        """The node's insert run as a residual segment, re-encoded only when
        the insert set itself changed since the last encode."""
        run = delta.run
        if run is None or run.version != delta.inserts_version:
            if run is not None:
                self.garbage_bits += run.total_bits
            run = self._encode_insert_run(node, delta.inserts, delta.inserts_version)
            delta.run = run
        return run.segment

    def _encode_insert_run(
        self, node: int, inserts: set[int], version: int
    ) -> _InsertRun:
        """Append ``inserts`` to the side stream as one CGR residual run.

        The run uses the exact gap encoding of a residual segment (count
        field, then a zig-zagged first gap relative to the source and
        ``gap - 1`` followers), so the live warp-centric decoder can decode
        it straight from the spliced bits; the pre-decoded tuples let every
        other strategy replay it without touching the stream.
        """
        scheme = self.config.scheme
        writer = BitWriter()
        ordered = sorted(inserts)
        scheme.encode(writer, to_vlc_value(len(ordered)))
        count_bits = writer.bit_length
        relative: list[tuple[int, int, int]] = []
        previous: int | None = None
        for index, neighbor in enumerate(ordered):
            start = writer.bit_length
            if index == 0:
                gap = zigzag_encode(neighbor - node)
            else:
                gap = neighbor - previous - 1
            scheme.encode(writer, to_vlc_value(gap))
            relative.append((neighbor, start, writer.bit_length - start))
            previous = neighbor
        offset = len(self._bits)
        self._side.extend(writer)
        segment = ResidualSegmentPlan(
            data_start_bit=offset + count_bits,
            count=len(ordered),
            count_bits=count_bits,
            decoded=tuple(
                (neighbor, offset + start, bits)
                for neighbor, start, bits in relative
            ),
        )
        return _InsertRun(
            version=version, segment=segment, total_bits=writer.bit_length
        )


__all__ = [
    "DeltaOverlay",
    "NodeDelta",
    "OverlayStats",
    "SplicedBits",
]
