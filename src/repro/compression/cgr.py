"""Compressed Graph Representation (CGR) encoder and decoder.

A CGR graph is a single bit stream holding, for every node, the compressed
form of its adjacency list, plus a bit-offset array ``offsets`` playing the
role of the paper's ``bitStart[]``.  The per-node layout follows Section 3.1
and Figure 6 of the paper:

Unsegmented layout (``residual_segment_bits is None``)::

    degNum | itvNum | (itv start gap, itv length)* | residual gaps*

Segmented layout (Section 5.2, Figure 6)::

    itvNum | (itv start gap, itv length)* | segNum | seg0 | seg1 | ... | segLast

where every segment except the last occupies exactly ``residual_segment_bits``
bits (padded with zero bits) and contains ``resNum`` followed by that many
residual gaps; the first residual of *every* segment is taken relative to the
source node so segments can be decoded independently and in parallel.

The encoder partitions a residual run greedily, from its first residual on.
If ``resNum`` plus the codes of all remaining residuals fit in
``2 * residual_segment_bits``, they form the last segment, so no trailing
fragment shorter than a segment is left.  Otherwise the next segment takes
residuals while ``resNum`` plus their codes fit in ``residual_segment_bits``,
and always takes at least one.  A lone residual too wide for a segment that
is not the last raises :class:`ValueError`.  The partition reads code lengths
only (:meth:`~repro.compression.vlc.VLCScheme.encoded_length`, closed-form),
so it costs O(k) for a run of ``k`` residuals.

All quantities are written with the configured VLC scheme after the shifting
rules of Appendix C (see :mod:`repro.compression.gaps`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import sub
from typing import Iterable, Sequence

import numpy as np

from repro.compression.bitarray import BitReader, BitWriter, PackedBits, as_packed
from repro.compression.gaps import (
    from_vlc_value,
    gap_decode_vlc_run,
    to_vlc_value,
    zigzag_decode,
    zigzag_encode,
)
from repro.compression.intervals import (
    Interval,
    IntervalResidualForm,
    split_intervals_residuals,
)
from repro.compression.vlc import VLCScheme, get_scheme

#: Number of bits one edge occupies in the uncompressed CSR baseline,
#: used by the paper's "compression rate = 32 / bits-per-edge" definition.
UNCOMPRESSED_BITS_PER_EDGE = 32

#: Process-wide count of full-graph encode calls.  Encoding is the expensive
#: host-side step a serving layer must amortize, so the counter lets tests
#: (and :class:`repro.service.TraversalService` metrics) verify encode-once
#: semantics: N queries over a registered graph must not move it.
_encode_calls = 0


def encode_call_count() -> int:
    """How many times :meth:`CGRGraph.from_adjacency` ran in this process."""
    return _encode_calls


@dataclass(frozen=True)
class CGRConfig:
    """Encoding parameters (Table 2 of the paper holds the defaults).

    Attributes:
        vlc_scheme: name of the variable-length code (``"gamma"``, ``"zeta2"``,
            ... ``"zeta6"``); the paper's selected value is ``"zeta3"``.
        min_interval_length: minimum run length promoted to an interval; the
            value ``float("inf")`` disables intervals.
        residual_segment_bits: length of a residual segment in bits, or
            ``None`` to disable residual segmentation.  The paper's selected
            value is 32 bytes = 256 bits.
    """

    vlc_scheme: str = "zeta3"
    min_interval_length: int | float = 4
    residual_segment_bits: int | None = 256

    def __post_init__(self) -> None:
        get_scheme(self.vlc_scheme)  # validate eagerly
        if self.residual_segment_bits is not None and self.residual_segment_bits < 8:
            raise ValueError("residual_segment_bits must be >= 8 bits or None")

    @property
    def scheme(self) -> VLCScheme:
        """The resolved VLC scheme object."""
        return get_scheme(self.vlc_scheme)

    @property
    def residual_segment_bytes(self) -> float | None:
        """Segment length expressed in bytes (as the paper reports it)."""
        if self.residual_segment_bits is None:
            return None
        return self.residual_segment_bits / 8

    @classmethod
    def paper_defaults(cls) -> "CGRConfig":
        """The configuration of Table 2: zeta3, min interval 4, 32-byte segments."""
        return cls(vlc_scheme="zeta3", min_interval_length=4, residual_segment_bits=256)

    def to_dict(self) -> dict:
        """A JSON-safe description of the encoding parameters.

        ``min_interval_length=inf`` (intervals disabled) becomes the string
        ``"inf"`` because JSON has no infinity literal; ``None`` segment bits
        (segmentation disabled) stay ``null``.  The persistent store
        (:mod:`repro.store`) embeds this in every graph file so a reader can
        decode the payload without out-of-band knowledge.
        """
        min_interval = self.min_interval_length
        return {
            "vlc_scheme": self.vlc_scheme,
            "min_interval_length": (
                "inf" if min_interval == float("inf") else int(min_interval)
            ),
            "residual_segment_bits": self.residual_segment_bits,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CGRConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        min_interval = data["min_interval_length"]
        if min_interval == "inf":
            min_interval = float("inf")
        return cls(
            vlc_scheme=data["vlc_scheme"],
            min_interval_length=min_interval,
            residual_segment_bits=data["residual_segment_bits"],
        )


@dataclass
class NodeLayout:
    """Decoded structural description of one node's compressed adjacency list.

    Used by tests, by the benchmark harness (to measure interval coverage and
    residual-segment statistics) and by the GCGT kernels (to plan scheduling
    without duplicating layout logic).
    """

    node: int
    degree: int
    intervals: list[Interval] = field(default_factory=list)
    residuals: list[int] = field(default_factory=list)
    segment_offsets: list[int] = field(default_factory=list)
    segment_counts: list[int] = field(default_factory=list)
    bit_length: int = 0

    @property
    def interval_coverage(self) -> int:
        """Neighbours covered by intervals."""
        return sum(interval.length for interval in self.intervals)

    @property
    def residual_count(self) -> int:
        """Neighbours stored as residuals."""
        return len(self.residuals)


class CGRGraph:
    """A graph stored in compressed graph representation.

    Construct with :meth:`from_adjacency` (or the module-level
    :func:`encode_graph` convenience wrapper).  The public surface offers
    exact adjacency reconstruction (:meth:`neighbors`), per-node degrees,
    compression statistics and low-level access (bit stream + offsets) for
    the traversal kernels.
    """

    def __init__(
        self,
        num_nodes: int,
        num_edges: int,
        bits: PackedBits | Sequence[int],
        offsets: np.ndarray,
        config: CGRConfig,
    ) -> None:
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        #: The compressed stream as packed 64-bit words (a plain list of bits
        #: is packed on entry for backwards compatibility).
        self.bits = as_packed(bits)
        self.offsets = offsets
        self.config = config
        self._scheme = config.scheme
        # Hot-path decode reads one offset per node; plain-int lookups are
        # several times cheaper than numpy scalar extraction.
        self._offsets_list: list[int] = [int(v) for v in offsets]
        self._layout_decoder = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_adjacency(
        cls,
        adjacency: Sequence[Sequence[int]],
        config: CGRConfig | None = None,
    ) -> "CGRGraph":
        """Encode a full graph given as a list of sorted adjacency lists.

        Duplicate neighbours are dropped and lists are sorted before encoding;
        negative node ids cannot be represented and raise :class:`ValueError`.
        """
        global _encode_calls
        _encode_calls += 1
        config = config or CGRConfig.paper_defaults()
        scheme = config.scheme
        writer = BitWriter()
        offsets = np.zeros(len(adjacency) + 1, dtype=np.int64)
        num_edges = 0
        for node, raw_neighbors in enumerate(adjacency):
            offsets[node] = writer.bit_length
            neighbors = sorted(set(raw_neighbors))
            if neighbors and neighbors[0] < 0:
                raise ValueError(
                    f"node {node} has negative neighbour id {neighbors[0]}; "
                    "CGR encodes non-negative node ids only"
                )
            num_edges += len(neighbors)
            _encode_node(writer, scheme, config, node, neighbors)
        offsets[len(adjacency)] = writer.bit_length
        # The writer *is* the packed stream -- no per-bit materialisation.
        return cls(
            num_nodes=len(adjacency),
            num_edges=num_edges,
            bits=writer,
            offsets=offsets,
            config=config,
        )

    # -- low-level access ---------------------------------------------------

    def reader_at(self, node: int) -> BitReader:
        """A bit reader positioned at ``bitStart[node]``."""
        self._check_node(node)
        return BitReader(self.bits, int(self.offsets[node]))

    def layout_decoder(self):
        """The stream's vectorized decode state, built on first use.

        A :class:`~repro.compression.vectorized.LayoutDecoder` (about two
        bytes per compressed bit), kept for the graph's lifetime: subset
        decodes such as a frontier window's plan-cache misses are too small
        to amortise its construction.  The stream never changes after
        encoding, so the state never goes stale.  Raises
        :class:`~repro.compression.vectorized.VectorizedDecodeUnsupported`
        for schemes without a vectorized path.
        """
        if self._layout_decoder is None:
            from repro.compression.vectorized import LayoutDecoder

            self._layout_decoder = LayoutDecoder(self)
        return self._layout_decoder

    def node_bit_length(self, node: int) -> int:
        """Number of bits the compressed adjacency list of ``node`` occupies."""
        self._check_node(node)
        return int(self.offsets[node + 1] - self.offsets[node])

    # -- decoding -----------------------------------------------------------

    def layout(self, node: int) -> NodeLayout:
        """Fully decode the structural layout of ``node``'s adjacency list."""
        self._check_node(node)
        reader = self.reader_at(node)
        scheme = self._scheme
        config = self.config
        layout = NodeLayout(node=node, degree=0, bit_length=self.node_bit_length(node))

        if config.residual_segment_bits is None:
            degree = from_vlc_value(scheme.decode(reader))
            layout.degree = degree
            if degree == 0:
                return layout
            _decode_intervals(reader, scheme, config, node, layout)
            remaining = degree - layout.interval_coverage
            _decode_residual_run(reader, scheme, node, remaining, layout.residuals)
            return layout

        # Segmented layout.
        _decode_intervals(reader, scheme, config, node, layout)
        seg_count = from_vlc_value(scheme.decode(reader))
        seg_bits = config.residual_segment_bits
        base = reader.position
        for seg_index in range(seg_count):
            seg_reader = reader.fork(base + seg_index * seg_bits)
            layout.segment_offsets.append(seg_reader.position)
            res_count = from_vlc_value(scheme.decode(seg_reader))
            layout.segment_counts.append(res_count)
            _decode_residual_run(seg_reader, scheme, node, res_count, layout.residuals)
        layout.degree = layout.interval_coverage + len(layout.residuals)
        return layout

    def neighbors(self, node: int) -> list[int]:
        """The sorted adjacency list of ``node`` (exact reconstruction).

        This is the serving hot path, so it decodes straight off the packed
        stream -- headers and interval tuples with small bulk
        :meth:`~repro.compression.vlc.VLCScheme.decode_run` calls, every
        residual run with one -- without materialising the
        :class:`NodeLayout` structure that :meth:`layout` builds for
        structural consumers.  The output is identical to the layout-based
        decode (the property suites assert it).
        """
        self._check_node(node)
        make_decoder = self._scheme.stream_decoder
        if make_decoder is None:
            # Schemes without a word-window decoder fall back to the
            # structural decode; identical output, higher cost.
            return self._neighbors_via_layout(node)
        decoder = make_decoder(self.bits, self._offsets_list[node])
        config = self.config
        result: list[int] = []

        if config.residual_segment_bits is None:
            degree = from_vlc_value(decoder.run(1)[0])
            if degree == 0:
                return result
            covered = self._decode_interval_nodes(decoder, node, result)
            remaining = degree - covered
            if remaining > 0:
                result.extend(
                    gap_decode_vlc_run(decoder.run(remaining), node)
                )
        else:
            self._decode_interval_nodes(decoder, node, result)
            seg_count = from_vlc_value(decoder.run(1)[0])
            seg_bits = config.residual_segment_bits
            base = decoder.position
            for seg_index in range(seg_count):
                decoder.seek(base + seg_index * seg_bits)
                res_count = from_vlc_value(decoder.run(1)[0])
                if res_count > 0:
                    result.extend(
                        gap_decode_vlc_run(decoder.run(res_count), node)
                    )
        result.sort()
        return result

    def _neighbors_via_layout(self, node: int) -> list[int]:
        """Layout-based adjacency reconstruction (slow fallback path)."""
        layout = self.layout(node)
        result: list[int] = []
        for interval in layout.intervals:
            result.extend(interval.nodes())
        result.extend(layout.residuals)
        result.sort()
        return result

    def _decode_interval_nodes(self, decoder, node: int, out: list[int]) -> int:
        """Decode the interval area straight into member node ids.

        Appends every interval's nodes to ``out`` and returns the covered
        degree.  Mirrors :func:`_decode_intervals` without building
        :class:`~repro.compression.intervals.Interval` objects.
        """
        interval_count = from_vlc_value(decoder.run(1)[0])
        if interval_count == 0:
            return 0
        min_len = self.config.min_interval_length
        length_shift = 0 if min_len == float("inf") else int(min_len)
        covered = 0
        previous_end = node
        values = decoder.run(2 * interval_count)
        for index in range(interval_count):
            gap = from_vlc_value(values[2 * index])
            length = from_vlc_value(values[2 * index + 1]) + length_shift
            if index == 0:
                start = node + zigzag_decode(gap)
            else:
                start = previous_end + gap + 1
            out.extend(range(start, start + length))
            covered += length
            previous_end = start + length - 1
        return covered

    def degree(self, node: int) -> int:
        """Out-degree of ``node``."""
        return self.layout(node).degree

    def iter_adjacency(self) -> Iterable[list[int]]:
        """Yield every node's adjacency list in node order."""
        for node in range(self.num_nodes):
            yield self.neighbors(node)

    def decode_all(self) -> list[list[int]]:
        """Every node's sorted adjacency list, decoded graph-at-once.

        Uses the vectorized whole-graph decoder
        (:mod:`repro.compression.vectorized`): all nodes' streams advance one
        code per numpy round, so the end-to-end throughput is far above the
        per-node :meth:`neighbors` loop.  Configurations without a vectorized
        path fall back to that loop; the output is identical either way.
        """
        from repro.compression.vectorized import (
            VectorizedDecodeUnsupported,
            decode_adjacency,
            supports,
        )

        if supports(self):
            try:
                return decode_adjacency(self)
            except VectorizedDecodeUnsupported:  # pragma: no cover - exotic
                pass
        return [self.neighbors(node) for node in range(self.num_nodes)]

    # -- statistics ---------------------------------------------------------

    @property
    def total_bits(self) -> int:
        """Size of the compressed bit stream."""
        return len(self.bits)

    @property
    def bits_per_edge(self) -> float:
        """Average number of bits per stored edge."""
        if self.num_edges == 0:
            return math.nan
        return self.total_bits / self.num_edges

    @property
    def compression_rate(self) -> float:
        """The paper's metric: 32 / bits-per-edge (larger is better)."""
        if self.num_edges == 0:
            return math.nan
        return UNCOMPRESSED_BITS_PER_EDGE / self.bits_per_edge

    def size_in_bytes(self) -> int:
        """Compressed payload size, rounded up to whole bytes, plus offsets."""
        payload = (self.total_bits + 7) // 8
        offsets = self.offsets.nbytes
        return payload + offsets

    # -- helpers ------------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range [0, {self.num_nodes})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CGRGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"bits_per_edge={self.bits_per_edge:.2f}, scheme={self.config.vlc_scheme})"
        )


def encode_graph(
    adjacency: Sequence[Sequence[int]],
    config: CGRConfig | None = None,
) -> CGRGraph:
    """Convenience wrapper around :meth:`CGRGraph.from_adjacency`."""
    return CGRGraph.from_adjacency(adjacency, config)


def encode_node_adjacency(
    writer: BitWriter,
    config: CGRConfig,
    node: int,
    neighbors: Sequence[int],
) -> int:
    """Append the CGR encoding of one node's adjacency list to ``writer``.

    This is the per-node half of :meth:`CGRGraph.from_adjacency`, exposed so
    incremental layers (:mod:`repro.dynamic`) can re-encode a single node --
    e.g. when compacting a node's update delta back into interval/residual
    form -- without paying a whole-graph encode.  ``neighbors`` is sorted and
    de-duplicated first, exactly as the full-graph encoder does.  Returns the
    number of bits written.
    """
    cleaned = sorted(set(int(v) for v in neighbors))
    if cleaned and cleaned[0] < 0:
        raise ValueError(
            f"node {node} has negative neighbour id {cleaned[0]}; "
            "CGR encodes non-negative node ids only"
        )
    before = writer.bit_length
    _encode_node(writer, config.scheme, config, node, cleaned)
    return writer.bit_length - before


# ---------------------------------------------------------------------------
# Encoding internals
# ---------------------------------------------------------------------------

def _encode_node(
    writer: BitWriter,
    scheme: VLCScheme,
    config: CGRConfig,
    node: int,
    neighbors: Sequence[int],
) -> None:
    """Append the compressed adjacency list of ``node`` to ``writer``."""
    form = split_intervals_residuals(neighbors, config.min_interval_length)
    if config.residual_segment_bits is None:
        scheme.encode(writer, to_vlc_value(form.degree))
        if form.degree == 0:
            return
        _encode_intervals(writer, scheme, config, node, form)
        _encode_residual_run(writer, scheme, node, form.residuals)
        return

    _encode_intervals(writer, scheme, config, node, form, always=True)
    _encode_segmented_residuals(writer, scheme, config, node, form.residuals)


def _encode_intervals(
    writer: BitWriter,
    scheme: VLCScheme,
    config: CGRConfig,
    node: int,
    form: IntervalResidualForm,
    always: bool = False,
) -> None:
    """Write ``itvNum`` and the interval tuples.

    ``always`` forces the interval header even for degree-0 nodes, which the
    segmented layout needs because it has no leading ``degNum``.
    """
    if not always and form.degree == 0:
        return
    scheme.encode(writer, to_vlc_value(form.interval_count))
    min_len = config.min_interval_length
    length_shift = 0 if min_len == float("inf") else int(min_len)
    previous_end = node
    for index, interval in enumerate(form.intervals):
        if index == 0:
            gap = zigzag_encode(interval.start - node)
        else:
            gap = interval.start - previous_end - 1
        scheme.encode(writer, to_vlc_value(gap))
        scheme.encode(writer, to_vlc_value(interval.length - length_shift))
        previous_end = interval.end


def _encode_residual_run(
    writer: BitWriter,
    scheme: VLCScheme,
    node: int,
    residuals: Sequence[int],
) -> None:
    """Write a run of residual gaps (first relative to ``node``, zig-zagged)."""
    previous: int | None = None
    for index, residual in enumerate(residuals):
        if index == 0:
            gap = zigzag_encode(residual - node)
        else:
            assert previous is not None
            gap = residual - previous - 1
        scheme.encode(writer, to_vlc_value(gap))
        previous = residual


def _segment_bounds(
    scheme: VLCScheme, seg_bits: int, node: int, residuals: Sequence[int]
) -> list[int]:
    """Partition a residual run into segments; return their boundaries.

    The result is ``[0, b1, ..., len(residuals)]``: segment ``i`` holds
    ``residuals[bounds[i]:bounds[i + 1]]``.  An empty run is one empty
    segment, ``[0, 0]``.  The rule is the one in the module docstring and
    costs O(k) code-length evaluations for ``k`` residuals: every follower
    code is sized once, every segment start sizes its zig-zagged head code,
    a suffix sum sizes the remaining run and a running sum grows each
    segment.  A run that fits ``2 * seg_bits`` even at its widest possible
    gap code is one segment after O(1) evaluations.  Nothing is written;
    :func:`_encode_segmented_residuals` writes the segments afterwards.

    Raises :class:`ValueError` when a segment's single first residual (with
    its ``resNum`` field) is wider than ``seg_bits`` and more residuals
    follow it, because that segment cannot be padded to ``seg_bits``.
    """
    total = len(residuals)
    if total == 0:
        return [0, 0]
    length = scheme.encoded_length
    head = length(zigzag_encode(residuals[0] - node) + 1)
    # Code lengths grow with the value and no follower gap exceeds the run's
    # span, so a run whose bound fits 2 * seg_bits is one segment without
    # sizing each code: most nodes stop here.
    widest = length(max(residuals[-1] - residuals[0], 1))
    if length(total + 1) + head + (total - 1) * widest <= 2 * seg_bits:
        return [0, total]
    # follow[i]: bits of residual i's gap code after residual i - 1.
    follow = [0, *map(length, map(sub, residuals[1:], residuals))]
    rest = sum(follow)  # follower bits of residuals[start + 1:]
    bounds = [0]
    start = 0
    while length(total - start + 1) + head + rest > 2 * seg_bits:
        used = head
        end = start + 1
        while end < total:
            grown = used + follow[end]
            if length(end - start + 2) + grown > seg_bits:
                break
            used = grown
            end += 1
        if end == total:
            break
        width = length(2) + head
        if end == start + 1 and width > seg_bits:
            raise ValueError(
                f"node {node}: residual {residuals[start]} needs {width} "
                f"bits with its resNum field, wider than the {seg_bits}-bit "
                "residual segment"
            )
        bounds.append(end)
        rest -= used - head + follow[end]
        start = end
        head = length(zigzag_encode(residuals[start] - node) + 1)
    bounds.append(total)
    return bounds


def _encode_segmented_residuals(
    writer: BitWriter,
    scheme: VLCScheme,
    config: CGRConfig,
    node: int,
    residuals: Sequence[int],
) -> None:
    """Write ``segNum`` followed by fixed-length residual segments (Figure 6).

    The partition (:func:`_segment_bounds`) is computed from code lengths
    alone in one O(k) pass, then each segment is written and every segment
    but the last is zero-padded to ``residual_segment_bits``.  The rule:
    if ``resNum`` plus the codes of all remaining residuals fit in
    ``2 * residual_segment_bits``, they form the last segment; otherwise the
    segment takes residuals while ``resNum`` plus their codes fit in
    ``residual_segment_bits``, and always at least one.
    """
    seg_bits = config.residual_segment_bits
    assert seg_bits is not None
    bounds = _segment_bounds(scheme, seg_bits, node, residuals)
    last = len(bounds) - 2
    scheme.encode(writer, to_vlc_value(last + 1))
    base = writer.bit_length
    for seg_index in range(last + 1):
        segment = residuals[bounds[seg_index]:bounds[seg_index + 1]]
        scheme.encode(writer, to_vlc_value(len(segment)))
        _encode_residual_run(writer, scheme, node, segment)
        if seg_index != last:
            writer.pad_to(base + (seg_index + 1) * seg_bits)


# ---------------------------------------------------------------------------
# Decoding internals
# ---------------------------------------------------------------------------

def _decode_intervals(
    reader: BitReader,
    scheme: VLCScheme,
    config: CGRConfig,
    node: int,
    layout: NodeLayout,
) -> None:
    """Decode ``itvNum`` and the interval tuples into ``layout``."""
    interval_count = from_vlc_value(scheme.decode(reader))
    min_len = config.min_interval_length
    length_shift = 0 if min_len == float("inf") else int(min_len)
    previous_end = node
    for index in range(interval_count):
        gap = from_vlc_value(scheme.decode(reader))
        if index == 0:
            start = node + zigzag_decode(gap)
        else:
            start = previous_end + gap + 1
        length = from_vlc_value(scheme.decode(reader)) + length_shift
        layout.intervals.append(Interval(start=start, length=length))
        previous_end = start + length - 1


def _decode_residual_run(
    reader: BitReader,
    scheme: VLCScheme,
    node: int,
    count: int,
    out: list[int],
) -> None:
    """Decode ``count`` residual gaps into absolute node ids appended to ``out``.

    One bulk :meth:`~repro.compression.vlc.VLCScheme.decode_run` call per run
    -- the whole run's codes are read with word-level scans/extracts -- then
    one :func:`~repro.compression.gaps.gap_decode_vlc_run` pass turns the raw
    codes into absolute ids.
    """
    if count <= 0:
        return
    out.extend(gap_decode_vlc_run(scheme.decode_run(reader, count), node))
