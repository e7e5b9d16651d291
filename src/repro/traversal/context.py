"""Shared state and primitives for the expansion strategies.

Every scheduling strategy (Algorithms 1-3, warp-centric decoding, residual
segmentation) processes one warp-sized chunk of frontier nodes at a time.
:class:`ExpandContext` carries what they all need -- the CGR graph, the
simulated warp, the application's filter callback, the output queue and the
chunk's resolved plans -- and provides the cost-accounted building blocks
the paper's step diagrams (Figure 4) are made of:

* a *frontier load* step (read ``inQueue`` and ``bitStart`` from device memory);
* *decode* rounds (lanes read bits of the compressed stream):
  :meth:`ExpandContext.decode_rounds` charges lock-step rounds straight from
  per-lane code columns;
* a *handle* round (``appendIfUnvisited``: check/update application state and
  cooperatively append qualified neighbours to ``outQueue``):
  :meth:`ExpandContext.handle` takes the active lanes' pairs.

Every rung charges through these two helpers alone: lanes are per-lane
columns read from the chunk's plans, an idle lane is one with no code left
in the round, and no per-lane list is padded to the warp width.  A rung
that alternates decode and handle rounds calls them round by round, because
the device memory keeps one line cache across all spaces and the filter
order decides the next frontier.

:func:`build_node_plan` performs the structural decode shared by all
strategies: where a node's intervals are and where each residual segment
starts, together with the bit extents needed for memory accounting.  Each
:class:`ResidualSegmentPlan` carries its pre-decoded residuals as three flat
columns (neighbour ids, code start bits, code lengths), so a plan holds three
tuples per segment rather than one per residual code.
:func:`build_node_plans` builds the same plans for many nodes from one
vectorized layout walk; the scalar builder stays its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.compression.cgr import CGRGraph
from repro.compression.gaps import gap_decode_vlc_run
from repro.compression.intervals import Interval
from repro.gpu.warp import Warp
from repro.traversal.cursor import CGRCursor
from repro.traversal.frontier import FrontierQueue

#: Application callback: ``filter_fn(source, neighbor) -> bool``.  A ``True``
#: return means the neighbour passed the filtering step and must be appended
#: to the next frontier (for BFS: it was unvisited and has now been labelled).
FilterFn = Callable[[int, int], bool]

#: How many bits of a VLC code one lock-step round can chew through when a
#: lane decodes *serially* (scan the unary prefix, extract the payload).  The
#: warp-centric decoder amortises this over all lanes, which is exactly the
#: trade "instructions for parallelism" the paper describes in Section 5.1.
DECODE_BITS_PER_ROUND = 8


@dataclass(frozen=True)
class ResidualSegmentPlan:
    """One independently decodable residual run of a node."""

    #: Bit offset of the first residual gap (after the segment's count field).
    data_start_bit: int
    #: Number of residuals in the segment.
    count: int
    #: Bits occupied by the segment's count field (``resNum``), 0 when the
    #: layout stores the count elsewhere (unsegmented graphs).
    count_bits: int = 0
    #: Pre-decoded residuals as three parallel columns: neighbour ids, the
    #: bit offset where each residual's code starts, and each code's length
    #: in bits.  Every plan builder fills them (``count`` entries each) so
    #: lanes *replay* the decode -- the strategies still charge every decode
    #: round for exactly these bit ranges, but the host-side bit walking is
    #: paid once per plan, which is once per graph when the plan sits in a
    #: decoded-adjacency cache.
    ids: tuple[int, ...] = ()
    starts: tuple[int, ...] = ()
    bits: tuple[int, ...] = ()


@dataclass
class NodePlan:
    """Structural decode of one node's compressed adjacency list."""

    node: int
    degree: int
    intervals: list[Interval] = field(default_factory=list)
    #: Bit range of each interval's descriptor (start gap + length), parallel
    #: to ``intervals``; the first entry also covers the per-node header.
    interval_descriptor_bits: list[tuple[int, int]] = field(default_factory=list)
    #: Bit extent of the header + interval descriptors, for memory accounting.
    header_start_bit: int = 0
    header_bits: int = 0
    residual_segments: list[ResidualSegmentPlan] = field(default_factory=list)

    @property
    def interval_coverage(self) -> int:
        """Neighbours covered by intervals."""
        return sum(interval.length for interval in self.intervals)

    @property
    def residual_count(self) -> int:
        """Neighbours stored as residuals, summed over segments."""
        return sum(segment.count for segment in self.residual_segments)


def build_node_plan(graph: CGRGraph, node: int) -> NodePlan:
    """Decode the layout of ``node`` into a :class:`NodePlan` using real cursors."""
    cursor = CGRCursor.at_node(graph, node)
    start = cursor.position
    plan = NodePlan(node=node, degree=0, header_start_bit=start)
    config = graph.config
    min_len = config.min_interval_length
    length_shift = 0 if min_len == float("inf") else int(min_len)

    if config.residual_segment_bits is None:
        degree, _ = cursor.decode_num()
        plan.degree = degree
        if degree == 0:
            plan.header_bits = cursor.position - start
            return plan
        _decode_interval_descriptors(cursor, node, length_shift, plan)
        plan.header_bits = cursor.position - start
        remaining = degree - plan.interval_coverage
        plan.residual_segments.append(
            ResidualSegmentPlan(
                cursor.position, remaining, 0,
                *_predecode_residual_run(cursor, node, remaining),
            )
        )
        return plan

    _decode_interval_descriptors(cursor, node, length_shift, plan)
    seg_count, _ = cursor.decode_num()
    plan.header_bits = cursor.position - start
    seg_bits = config.residual_segment_bits
    base = cursor.position
    for index in range(seg_count):
        seg_cursor = cursor.fork_at(base + index * seg_bits)
        count, count_bits = seg_cursor.decode_num()
        plan.residual_segments.append(
            ResidualSegmentPlan(
                seg_cursor.position, count, count_bits,
                *_predecode_residual_run(seg_cursor, node, count),
            )
        )
    plan.degree = plan.interval_coverage + plan.residual_count
    return plan


def build_node_plans(graph: CGRGraph, nodes: Sequence[int]) -> list[NodePlan]:
    """Structural plans of ``nodes`` from one vectorized layout walk.

    Element-wise equal to ``[build_node_plan(graph, node) for node in
    nodes]`` -- intervals, descriptor extents, header extent, segments,
    count fields and every segment's residual columns -- but the codes of
    all nodes are decoded together
    (:meth:`repro.compression.vectorized.LayoutDecoder.walk` over the
    graph's resident
    :meth:`~repro.compression.cgr.CGRGraph.layout_decoder`), so the
    per-node cost is the Python object assembly, not a cursor walk.
    Raises :class:`~repro.compression.vectorized.VectorizedDecodeUnsupported`
    for streams without a vectorized path (delta codes, overlay side
    streams).
    """
    walk = graph.layout_decoder().walk(np.asarray(nodes, dtype=np.int64), True)
    # Every object is built in one flat pass per kind (C-level ``map`` /
    # ``zip``); the per-node loop only slices the flat lists.  Slicing a
    # tuple gives a tuple, so each segment's columns are three slices of
    # the window's flat columns.
    res_bounds = np.cumsum(walk.run_counts).tolist()
    runs = list(map(slice, [0] + res_bounds, res_bounds))
    ids = tuple(walk.residual_ids.tolist())
    starts = tuple(walk.residual_starts.tolist())
    bits = tuple((walk.residual_ends - walk.residual_starts).tolist())
    segments = list(map(
        ResidualSegmentPlan,
        walk.run_data_start.tolist(),
        walk.run_counts.tolist(),
        walk.run_count_bits.tolist(),
        map(ids.__getitem__, runs),
        map(starts.__getitem__, runs),
        map(bits.__getitem__, runs),
    ))
    intervals = list(map(
        Interval, walk.interval_starts.tolist(), walk.interval_lengths.tolist()
    ))
    descriptors = list(zip(
        walk.descriptor_start.tolist(),
        (walk.descriptor_end - walk.descriptor_start).tolist(),
    ))
    if walk.degrees is not None:
        degrees = walk.degrees
    else:
        owners = np.arange(len(walk.nodes))
        degrees = np.bincount(
            np.repeat(owners, walk.interval_counts),
            weights=walk.interval_lengths, minlength=len(owners),
        ) + np.bincount(
            np.repeat(owners, walk.run_counts_per_node),
            weights=walk.run_counts, minlength=len(owners),
        )
    itv_bounds = np.cumsum(walk.interval_counts).tolist()
    run_bounds = np.cumsum(walk.run_counts_per_node).tolist()
    return [
        NodePlan(
            node, degree,
            intervals[itv_begin:itv_end], descriptors[itv_begin:itv_end],
            header_start, header_bits, segments[run_begin:run_end],
        )
        for node, degree, header_start, header_bits,
        itv_begin, itv_end, run_begin, run_end in zip(
            walk.nodes.tolist(),
            degrees.astype(np.int64).tolist(),
            walk.header_start.tolist(),
            (walk.header_end - walk.header_start).tolist(),
            [0] + itv_bounds, itv_bounds, [0] + run_bounds, run_bounds,
        )
    ]


def _predecode_residual_run(
    cursor: CGRCursor, source: int, count: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Decode ``count`` residual gaps once; return ``(ids, starts, bits)``.

    ``cursor`` must sit on the first gap; it is advanced past the run (which
    is harmless for every caller -- nothing of the node's layout follows a
    residual run in its segment).  The whole run is read with one bulk
    :meth:`~repro.compression.vlc.VLCScheme.decode_run_positions` call --
    word-level scans and extracts instead of per-bit loops -- and each code's
    bit extent is reconstructed from the returned end offsets, so the decode
    rounds the strategies charge are byte-for-byte what the seed charged.
    """
    if count <= 0:
        return (), (), ()
    reader = cursor.reader
    starts = [reader.position]
    values, ends = cursor.scheme.decode_run_positions(reader, count)
    starts.extend(ends[:-1])
    return (
        tuple(gap_decode_vlc_run(values, source)),
        tuple(starts),
        tuple(map(int.__sub__, ends, starts)),
    )


def _decode_interval_descriptors(
    cursor: CGRCursor, node: int, length_shift: int, plan: NodePlan
) -> None:
    """Decode ``itvNum`` and the interval (start, length) tuples into ``plan``."""
    header_start = plan.header_start_bit
    interval_count, _ = cursor.decode_num()
    previous_end = node
    for index in range(interval_count):
        descriptor_start = cursor.position if index > 0 else header_start
        if index == 0:
            start, _ = cursor.decode_signed_gap(node)
        else:
            start, _ = cursor.decode_following_gap(previous_end)
        raw_length, _ = cursor.decode_num()
        length = raw_length + length_shift
        plan.intervals.append(Interval(start=start, length=length))
        plan.interval_descriptor_bits.append(
            (descriptor_start, cursor.position - descriptor_start)
        )
        previous_end = start + length - 1


class ExpandContext:
    """Per-iteration state handed to an expansion strategy."""

    def __init__(
        self,
        graph: CGRGraph,
        warp: Warp,
        filter_fn: FilterFn,
        out_queue: FrontierQueue,
    ) -> None:
        self.graph = graph
        self.warp = warp
        self.filter_fn = filter_fn
        self.out_queue = out_queue
        #: Plans of the chunk about to be expanded, in chunk order.  The
        #: engine resolves a whole frontier window's plans in one cache pass
        #: and sets each chunk's slice here (see
        #: :meth:`repro.traversal.gcgt.TraversalSession.expand`); ``None``
        #: makes :meth:`chunk_plans` decode each plan directly.
        self.resolved: Sequence[NodePlan] | None = None

    def chunk_plans(self, chunk: Sequence[int]) -> Sequence[NodePlan]:
        """The structural decode of every node of ``chunk``, in order."""
        if self.resolved is not None:
            return self.resolved
        return [build_node_plan(self.graph, node) for node in chunk]

    # -- cost-accounted building blocks ---------------------------------------

    def frontier_load_step(self, nodes: Sequence[int]) -> None:
        """Charge reading the frontier chunk and its ``bitStart`` offsets."""
        if not nodes:
            return
        self.warp.step(active_lanes=len(nodes))
        # inQueue entries are contiguous; bitStart reads are indexed by node id.
        self.warp.memory.access_words(range(len(nodes)), space="frontier_queue")
        self.warp.memory.access_words(
            (int(node) for node in nodes), space="bit_offsets"
        )

    def decode_rounds(
        self,
        starts: Sequence[Sequence[int]],
        bits: Sequence[Sequence[int]],
        first: int = 0,
        stop: int | None = None,
    ) -> None:
        """Charge lock-step serial-decode rounds over per-lane code columns.

        Lane ``j`` decodes the codes ``(starts[j][i], bits[j][i])`` in
        order; round ``i`` (from ``first`` up to ``stop``, or until every
        lane is exhausted) runs every lane that still has an ``i``-th code,
        while exhausted lanes sit divergence-idle.  Serially decoding a VLC
        value is a bit-by-bit scan, so a round costs
        ``ceil(longest_code / DECODE_BITS_PER_ROUND)`` (at least one)
        lock-step rounds of its active lanes, and its codes' bit ranges are
        one warp-wide read: the cache lines they touch, gathered in lane
        order, are charged with
        :meth:`~repro.gpu.memory.DeviceMemory.charge_lines` exactly as
        :meth:`~repro.gpu.memory.DeviceMemory.access_bit_ranges` charges
        them.  The counters are summed over all rounds and written once.
        """
        warp = self.warp
        size = warp.size
        memory = warp.memory
        line_bits = memory.cache_line_bytes * 8
        word_bits = memory.word_bytes * 8
        charge_lines = memory.charge_lines
        lanes = [lane for lane in zip(starts, bits) if len(lane[1]) > first]
        if len(lanes) > size:
            raise ValueError(f"{len(lanes)} active lanes exceed warp size {size}")
        index = first
        rounds_total = active_slots = words = 0
        while lanes and index != stop:
            lines: set[int] = set()
            add = lines.add
            longest = 0
            for lane_starts, lane_bits in lanes:
                num_bits = lane_bits[index]
                if num_bits > longest:
                    longest = num_bits
                if num_bits > 0:
                    start = lane_starts[index]
                    first_line = start // line_bits
                    last_line = (start + num_bits - 1) // line_bits
                    if first_line == last_line:
                        add(first_line)
                    else:
                        lines.update(range(first_line, last_line + 1))
                    words += (num_bits + word_bits - 1) // word_bits
            rounds = -(-longest // DECODE_BITS_PER_ROUND) or 1
            rounds_total += rounds
            active_slots += len(lanes) * rounds
            if lines:
                charge_lines("bits", lines)
            index += 1
            lanes = [lane for lane in lanes if len(lane[1]) > index]
        metrics = warp.metrics
        metrics.instruction_rounds += rounds_total
        metrics.active_lane_slots += active_slots
        metrics.idle_lane_slots += size * rounds_total - active_slots
        memory.metrics.memory_words += words

    def handle(self, pairs: Sequence[tuple[int, int]]) -> int:
        """One ``appendIfUnvisited`` round over the active lanes' pairs.

        ``pairs`` holds one ``(source, neighbor)`` pair per active lane (at
        most the warp width).  Returns the number of neighbours appended to
        the output queue.  The cost model mirrors the paper: each active
        lane reads the neighbour's label word, the warp runs one exclusive
        scan in shared memory, and a single atomic reserves space in
        ``outQueue`` for all appended nodes.
        """
        count = len(pairs)
        if not count:
            return 0
        warp = self.warp
        size = warp.size
        if count > size:
            raise ValueError(f"{count} active lanes exceed warp size {size}")
        metrics = warp.metrics
        metrics.instruction_rounds += 1
        metrics.active_lane_slots += count
        metrics.idle_lane_slots += size - count
        # Label words coalesce by cache line, as DeviceMemory.access_words.
        memory = warp.memory
        per_line = memory.words_per_line
        memory.metrics.memory_words += count
        memory.charge_lines(
            "labels", {neighbor // per_line for _, neighbor in pairs}
        )
        memory.metrics.shared_memory_accesses += count

        filter_fn = self.filter_fn
        pending = self.out_queue.pending
        appended = 0
        for source, neighbor in pairs:
            if filter_fn(source, neighbor):
                pending.append(neighbor)
                appended += 1
        if appended:
            memory.atomic_add(1)
            base = len(pending) - appended
            memory.access_words(range(base, base + appended), space="out_queue")
        return appended
