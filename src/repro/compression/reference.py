"""The seed's bit-granular reader/writer and segment partition, retained as baselines.

This module preserves the original list-of-bits implementation that
:mod:`repro.compression.bitarray` replaced with the packed-word engine: one
Python ``int`` object per bit, per-bit append/read loops, ``str``-concat
exports.  It exists for three reasons:

* the property suite (``tests/test_bitstream_packed.py``) round-trips random
  bit patterns, arbitrary start offsets and every VLC scheme through the
  packed reader *and* this naive reader and asserts exact equality of decoded
  values and cursor positions -- the packed engine is only allowed to be
  faster, never different;
* the decode-throughput benchmark (``benchmarks/test_decode_throughput.py``)
  measures the packed hot path against this implementation, which is the
  seed's real cost profile, and gates the ≥5x speedup the packed engine must
  deliver;
* the seed's residual-segment partition (:func:`probe_segment_partition`),
  which sizes every candidate segment by re-encoding it into a probe writer,
  is the differential oracle of the encoder's O(k) partition: the property
  suite (``tests/test_segment_partition.py``) asserts equal segment
  boundaries and bit-identical streams, and the decode benchmark times
  :func:`probe_encode_graph` against :meth:`CGRGraph.from_adjacency
  <repro.compression.cgr.CGRGraph.from_adjacency>`.

Nothing in the library's serving path imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.compression.bitarray import BitWriter
from repro.compression.cgr import (
    CGRConfig,
    CGRGraph,
    _encode_intervals,
    _encode_node,
    _encode_residual_run,
)
from repro.compression.gaps import from_vlc_value, to_vlc_value, zigzag_decode
from repro.compression.intervals import Interval, split_intervals_residuals


class NaiveBitWriter:
    """Append-only bit buffer storing one Python int per bit (seed verbatim)."""

    def __init__(self) -> None:
        self._bits: list[int] = []

    def __len__(self) -> int:
        return len(self._bits)

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return len(self._bits)

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        self._bits.append(bit)

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits holding ``value`` MSB-first."""
        if width < 0:
            raise ValueError("width must be non-negative")
        if value < 0:
            raise ValueError("value must be non-negative")
        if width == 0:
            if value != 0:
                raise ValueError("non-zero value with zero width")
            return
        if value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        for shift in range(width - 1, -1, -1):
            self._bits.append((value >> shift) & 1)

    def write_unary(self, count: int, terminator: int = 1) -> None:
        """Append ``count`` copies of the non-terminator bit then a terminator."""
        filler = 1 - terminator
        self._bits.extend([filler] * count)
        self._bits.append(terminator)

    def extend(self, other: "NaiveBitWriter") -> None:
        """Append all bits from another writer."""
        self._bits.extend(other._bits)

    def pad_to(self, bit_length: int, fill: int = 0) -> None:
        """Pad with ``fill`` bits until the buffer is ``bit_length`` long."""
        if bit_length < len(self._bits):
            raise ValueError(
                f"cannot pad to {bit_length}: already {len(self._bits)} bits"
            )
        self._bits.extend([fill] * (bit_length - len(self._bits)))

    def to_bitlist(self) -> list[int]:
        """Return a copy of the bits as a list of 0/1 integers."""
        return list(self._bits)

    def to_bitstring(self) -> str:
        """Return the bits as a string of '0'/'1' characters."""
        return "".join(str(b) for b in self._bits)

    def to_bytes(self) -> bytes:
        """Pack the bits into bytes, zero-padding the final byte."""
        out = bytearray((len(self._bits) + 7) // 8)
        for i, bit in enumerate(self._bits):
            if bit:
                out[i >> 3] |= 0x80 >> (i & 7)
        return bytes(out)


@dataclass
class NaiveBitReader:
    """Per-bit cursor over a list of bits (seed verbatim).

    Exposes the same surface as :class:`repro.compression.bitarray.BitReader`
    so the VLC schemes' serial ``decode`` callables run on it unchanged --
    which is exactly what makes it a usable differential baseline.
    """

    bits: list[int]
    position: int = 0

    @classmethod
    def from_writer(cls, writer: NaiveBitWriter, position: int = 0) -> "NaiveBitReader":
        """Create a reader over the bits accumulated by ``writer``."""
        return cls(writer.to_bitlist(), position)

    @classmethod
    def from_bitstring(cls, text: str, position: int = 0) -> "NaiveBitReader":
        """Create a reader from a string of '0'/'1' characters."""
        return cls([int(c) for c in text if c in "01"], position)

    @classmethod
    def from_bytes(cls, data: bytes, bit_length: int | None = None) -> "NaiveBitReader":
        """Create a reader from packed bytes, one Python loop turn per bit."""
        bits: list[int] = []
        for byte in data:
            for shift in range(7, -1, -1):
                bits.append((byte >> shift) & 1)
        if bit_length is not None:
            bits = bits[:bit_length]
        return cls(bits)

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def remaining(self) -> int:
        """Number of bits left after the cursor."""
        return max(0, len(self.bits) - self.position)

    def exhausted(self) -> bool:
        """True when the cursor has reached or passed the end of the stream."""
        return self.position >= len(self.bits)

    def peek_bit(self) -> int:
        """Return the bit under the cursor without advancing."""
        if self.position >= len(self.bits):
            raise EOFError("bit stream exhausted")
        return self.bits[self.position]

    def read_bit(self) -> int:
        """Return the bit under the cursor and advance by one."""
        bit = self.peek_bit()
        self.position += 1
        return bit

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits MSB-first, one loop turn per bit."""
        if width < 0:
            raise ValueError("width must be non-negative")
        if self.position + width > len(self.bits):
            raise EOFError(
                f"need {width} bits at position {self.position}, "
                f"only {self.remaining} remain"
            )
        value = 0
        for _ in range(width):
            value = (value << 1) | self.bits[self.position]
            self.position += 1
        return value

    def read_unary(self, terminator: int = 1) -> int:
        """Read a unary code bit by bit."""
        count = 0
        while True:
            bit = self.read_bit()
            if bit == terminator:
                return count
            count += 1

    def seek(self, position: int) -> None:
        """Move the cursor to an absolute bit offset."""
        if position < 0:
            raise ValueError("position must be non-negative")
        self.position = position

    def fork(self, position: int | None = None) -> "NaiveBitReader":
        """Return an independent reader over the same bits."""
        return NaiveBitReader(
            self.bits, self.position if position is None else position
        )


class NaiveCGRDecoder:
    """The seed's CGR adjacency decoder over a list-of-bits stream.

    Replicates the seed's decode path **structurally as well as bit-wise**:
    like the seed's ``CGRGraph.neighbors``, every per-node decode first
    builds the full :class:`~repro.compression.cgr.NodeLayout` (interval
    objects, residual list, per-segment fork readers) through the schemes'
    serial per-bit ``decode``, then flattens and sorts it.  The
    decode-throughput benchmark times this against the packed graph's hot
    path to measure the end-to-end speedup of the word-level engine on
    identical bits.
    """

    def __init__(self, bits: list[int], offsets: Sequence[int], config) -> None:
        self.bits = bits
        self.offsets = offsets
        self.config = config
        self._scheme = config.scheme

    @classmethod
    def from_graph(cls, graph) -> "NaiveCGRDecoder":
        """Snapshot a :class:`~repro.compression.cgr.CGRGraph`'s stream."""
        return cls(graph.bits.to_bitlist(), graph.offsets, graph.config)

    def layout(self, node: int) -> "NodeLayout":
        """Full structural decode of one node, exactly as the seed did it."""
        from repro.compression.cgr import NodeLayout

        reader = NaiveBitReader(self.bits, int(self.offsets[node]))
        decode = self._scheme.decode
        config = self.config
        min_len = config.min_interval_length
        length_shift = 0 if min_len == float("inf") else int(min_len)
        bit_length = int(self.offsets[node + 1]) - int(self.offsets[node])
        layout = NodeLayout(node=node, degree=0, bit_length=bit_length)

        def decode_intervals() -> None:
            interval_count = from_vlc_value(decode(reader))
            previous_end = node
            for index in range(interval_count):
                gap = from_vlc_value(decode(reader))
                if index == 0:
                    start = node + zigzag_decode(gap)
                else:
                    start = previous_end + gap + 1
                length = from_vlc_value(decode(reader)) + length_shift
                layout.intervals.append(Interval(start=start, length=length))
                previous_end = start + length - 1

        def decode_residual_run(run_reader: NaiveBitReader, count: int) -> None:
            previous: int | None = None
            for index in range(count):
                gap = from_vlc_value(decode(run_reader))
                if index == 0:
                    previous = node + zigzag_decode(gap)
                else:
                    assert previous is not None
                    previous = previous + gap + 1
                layout.residuals.append(previous)

        if config.residual_segment_bits is None:
            degree = from_vlc_value(decode(reader))
            layout.degree = degree
            if degree == 0:
                return layout
            decode_intervals()
            decode_residual_run(reader, degree - layout.interval_coverage)
            return layout

        decode_intervals()
        seg_count = from_vlc_value(decode(reader))
        seg_bits = config.residual_segment_bits
        base = reader.position
        for seg_index in range(seg_count):
            seg_reader = reader.fork(base + seg_index * seg_bits)
            layout.segment_offsets.append(seg_reader.position)
            res_count = from_vlc_value(decode(seg_reader))
            layout.segment_counts.append(res_count)
            decode_residual_run(seg_reader, res_count)
        layout.degree = layout.interval_coverage + len(layout.residuals)
        return layout

    def neighbors(self, node: int) -> list[int]:
        """The node's sorted adjacency list, decoded bit by bit (seed path)."""
        layout = self.layout(node)
        result: list[int] = []
        for interval in layout.intervals:
            result.extend(interval.nodes())
        result.extend(layout.residuals)
        result.sort()
        return result

    def decode_all(self) -> list[list[int]]:
        """Every node's adjacency list (the benchmark's end-to-end workload)."""
        return [self.neighbors(node) for node in range(len(self.offsets) - 1)]


def probe_residual_run_bits(scheme, node: int, residuals: Sequence[int]) -> int:
    """Bits needed for ``resNum`` plus the gap encoding of ``residuals``."""
    probe = BitWriter()
    scheme.encode(probe, to_vlc_value(len(residuals)))
    _encode_residual_run(probe, scheme, node, residuals)
    return probe.bit_length


def probe_segment_partition(
    scheme, seg_bits: int, node: int, residuals: Sequence[int]
) -> list[list[int]]:
    """The seed's greedy segment partition, one probe encode per step.

    Re-encodes the whole remaining run at every segment start and the whole
    candidate segment for every residual it adds, so a run of ``k``
    residuals costs O(k^2) code writes.  Returns the segments' residuals.
    """
    # Partition the residuals greedily into segments of at most ``seg_bits``
    # bits each; the final segment may be up to twice as long so that no
    # trailing fragment shorter than a segment is created.
    segments: list[list[int]] = []
    index = 0
    total = len(residuals)
    while index < total:
        remaining = residuals[index:]
        if probe_residual_run_bits(scheme, node, remaining) <= 2 * seg_bits:
            segments.append(list(remaining))
            index = total
            break
        chunk: list[int] = []
        while index < total:
            candidate = chunk + [residuals[index]]
            if chunk and probe_residual_run_bits(scheme, node, candidate) > seg_bits:
                break
            chunk = candidate
            index += 1
        segments.append(chunk)
    if not segments:
        segments = [[]]
    return segments


def _probe_segmented_residuals(writer, scheme, config, node: int, residuals) -> None:
    """Write ``segNum`` and the segments of :func:`probe_segment_partition`."""
    seg_bits = config.residual_segment_bits
    segments = probe_segment_partition(scheme, seg_bits, node, residuals)
    scheme.encode(writer, to_vlc_value(len(segments)))
    base = writer.bit_length
    for seg_index, segment in enumerate(segments):
        scheme.encode(writer, to_vlc_value(len(segment)))
        _encode_residual_run(writer, scheme, node, segment)
        is_last = seg_index == len(segments) - 1
        if not is_last:
            target = base + (seg_index + 1) * seg_bits
            writer.pad_to(target)


def probe_encode_graph(adjacency: Sequence[Sequence[int]], config=None):
    """Encode a graph as :meth:`CGRGraph.from_adjacency` does, seed partition.

    Interval areas, residual gap codes and the unsegmented layout go through
    the encoder's own code; the segmented residual area (partition,
    ``segNum``/``resNum`` fields, padding) is the seed's
    (:func:`probe_segment_partition`).  Returns a
    :class:`~repro.compression.cgr.CGRGraph`.
    """
    config = config or CGRConfig.paper_defaults()
    scheme = config.scheme
    writer = BitWriter()
    offsets = np.zeros(len(adjacency) + 1, dtype=np.int64)
    num_edges = 0
    for node, raw_neighbors in enumerate(adjacency):
        offsets[node] = writer.bit_length
        neighbors = sorted(set(raw_neighbors))
        num_edges += len(neighbors)
        if config.residual_segment_bits is None:
            _encode_node(writer, scheme, config, node, neighbors)
            continue
        form = split_intervals_residuals(neighbors, config.min_interval_length)
        _encode_intervals(writer, scheme, config, node, form, always=True)
        _probe_segmented_residuals(writer, scheme, config, node, form.residuals)
    offsets[len(adjacency)] = writer.bit_length
    return CGRGraph(len(adjacency), num_edges, writer, offsets, config)


__all__ = [
    "NaiveBitReader",
    "NaiveBitWriter",
    "NaiveCGRDecoder",
    "probe_encode_graph",
    "probe_residual_run_bits",
    "probe_segment_partition",
]
