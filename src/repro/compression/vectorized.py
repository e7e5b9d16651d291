"""Vectorized CGR decode: the paper's parallel decode on numpy.

The paper's GPU kernels hide the inherent serialism of VLC streams by
decoding *many* streams at once -- one warp per node, one lane per segment.
This module is the CPU realization of the same idea: instead of walking one
node's codes with Python-level loops, it advances **every requested node's
stream by one code per numpy round**:

* the unary prefix of all active streams is found in one gather from a
  precomputed zero-run table (built from ``np.unpackbits`` output -- the
  bulk byte-to-bit conversion the packed engine already uses);
* all payloads are fetched in one gather: an 8-byte window per code, folded
  into a ``uint64`` and shifted/masked per element;
* residual gaps are turned back into absolute node ids with one segmented
  ``cumsum`` over all runs at once (the zig-zag of each run's first gap is
  applied with a vectorized ``where``).

Residual segments decode as *independent* streams exactly as Section 5.2
intends, so a graph with ``s`` segments keeps ``s`` lanes busy per round.

One layout walk (:meth:`LayoutDecoder.walk`) serves two outputs:

* :func:`decode_adjacency` -- every node's sorted neighbour list,
  bit-identical to :meth:`CGRGraph.neighbors` (the property and differential
  suites assert exact equality; ``benchmarks/test_decode_throughput.py``
  gates the throughput);
* :func:`repro.traversal.context.build_node_plans` -- the traversal plans of
  any node subset, for which the walk also records every code's bit extent
  (:class:`LayoutWalk`).

The walk's constructor state -- the 64-bit fold and the zero-run table -- is
a pure function of one bit stream.  :meth:`CGRGraph.layout_decoder
<repro.compression.cgr.CGRGraph.layout_decoder>` keeps it on the graph (a
stream is immutable once encoded, so a new base stream after a rebase,
replace or restore is a new graph and gets fresh state).

Scope: gamma and zeta_k streams (the paper's configurations) over plain
:class:`~repro.compression.cgr.CGRGraph` objects.  Everything else (delta
codes, overlay views) raises :class:`VectorizedDecodeUnsupported` and the
caller falls back to the scalar stream decoders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Widest payload the vectorized extractor handles per element (an 8-byte
#: window minus up to 7 bits of in-byte offset).  Wider codes -- absent from
#: realistic graphs -- are fixed up per element through the packed reader.
_MAX_VECTOR_WIDTH = 56

#: Below this many active streams a SIMD round costs more than scalar
#: decoding, so :meth:`LayoutDecoder._decode_runs` hands the stragglers to
#: the scalar window decoder.
_SCALAR_TAIL = 48

#: Longest zero run the unary-scan table stores (one byte per bit).
_SATURATED = 255


def _zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.compression.gaps.zigzag_decode`."""
    return np.where(values & 1 == 0, values >> 1, -((values + 1) >> 1))


def _run_starts(lengths: np.ndarray) -> np.ndarray:
    """Index of each run's first element in the concatenation of the runs."""
    return np.cumsum(lengths) - lengths


def _check_positive(raw: np.ndarray) -> None:
    if raw.size and int(raw.min()) < 1:
        raise ValueError("VLC-decoded values are >= 1")


class VectorizedDecodeUnsupported(ValueError):
    """The graph's configuration has no vectorized decode path."""


def supports(graph) -> bool:
    """Whether :func:`decode_adjacency` can decode ``graph``."""
    scheme_name = getattr(graph.config, "vlc_scheme", None)
    if scheme_name != "gamma" and not (
        isinstance(scheme_name, str) and scheme_name.startswith("zeta")
    ):
        return False
    bits = getattr(graph, "bits", None)
    return hasattr(bits, "to_bytes") and hasattr(graph, "offsets")


def decode_adjacency(graph) -> list[list[int]]:
    """Decode every node's sorted adjacency list in vectorized rounds.

    Exactly equivalent to ``[graph.neighbors(v) for v in range(n)]``.
    Raises :class:`VectorizedDecodeUnsupported` for configurations without a
    vectorized path.  The decode state is transient: a whole-graph decode
    amortises its construction by itself.
    """
    return LayoutDecoder(graph).decode()


@dataclass(frozen=True)
class LayoutWalk:
    """The structural decode of a node subset, as flat arrays.

    Per node (parallel to :attr:`nodes`): interval count, residual-run count
    and, with extents, the header's bit range.  Intervals, runs and residuals
    are concatenated node-major (runs in segment order, residuals in stream
    order).  Bit positions are absolute stream offsets; the ``*_start`` /
    ``*_end`` arrays are ``None`` unless the walk recorded extents.
    """

    nodes: np.ndarray
    #: Decoded degree per node (unsegmented layout), else ``None``.
    degrees: np.ndarray | None
    interval_counts: np.ndarray
    interval_starts: np.ndarray
    interval_lengths: np.ndarray
    #: Residual runs (one per segment; one per non-empty node unsegmented).
    run_counts_per_node: np.ndarray
    run_counts: np.ndarray
    residual_ids: np.ndarray
    #: ``bitStart`` of each node and the end of its header (degree,
    #: interval descriptors and, segmented, ``segNum``).
    header_start: np.ndarray | None = None
    header_end: np.ndarray | None = None
    #: Each interval descriptor's first bit (the first one of a node also
    #: covers the header codes before it) and the end of its length code.
    descriptor_start: np.ndarray | None = None
    descriptor_end: np.ndarray | None = None
    #: Each run's first residual code and its ``resNum`` field's width
    #: (0 on unsegmented layouts, whose count is the header's degree).
    run_data_start: np.ndarray | None = None
    run_count_bits: np.ndarray | None = None
    #: Start and end offset of every residual code.
    residual_starts: np.ndarray | None = None
    residual_ends: np.ndarray | None = None


class LayoutDecoder:
    """Vectorized decode state over one CGR bit stream.

    Holds the 64-bit fold and the zero-run table (about two bytes per
    compressed bit, see :attr:`nbytes`); :meth:`walk` decodes any node
    subset with them.
    """

    def __init__(self, graph) -> None:
        if not supports(graph):
            raise VectorizedDecodeUnsupported(
                f"no vectorized decode for scheme "
                f"{getattr(graph.config, 'vlc_scheme', None)!r} on "
                f"{type(graph).__name__}"
            )
        config = graph.config
        self._bits = graph.bits
        self._config = config
        self._offsets = np.asarray(graph.offsets, dtype=np.int64)
        self._gamma = config.vlc_scheme == "gamma"
        self._k = 0 if self._gamma else int(config.vlc_scheme[4:])
        self._length = len(graph.bits)
        payload = graph.bits.to_bytes()
        data = np.frombuffer(payload + b"\x00" * 16, dtype=np.uint8)
        # One whole-stream fold up front: ``_folded[b]`` is the big-endian
        # 64-bit word starting at byte ``b``, so every later payload gather
        # is a single fancy index plus shift/mask.
        window_count = len(data) - 7
        folded = sliding_window_view(data, 8)[:, 0].astype(np.uint64).copy()
        for column in range(1, 8):
            folded = (folded << np.uint64(8)) | data[column : column + window_count]
        self._folded = folded
        unpacked = np.unpackbits(data[: len(payload)])[: self._length]
        # Zero-run table: ``_zeros[p]`` is the number of 0 bits from ``p``
        # to the next 1 bit (the unary-scan primitive), so each round's
        # scan is a single gather.  Built from the next 1 bit's position with
        # one reverse minimum-accumulate.  Runs are saturated at 255: a code
        # start is followed by at most 62 zeros in any stream this decoder
        # supports, so a saturated entry only ever reads as too wide.
        index = np.arange(self._length + 1, dtype=np.int32)
        index[:-1][unpacked == 0] = self._length
        del unpacked
        reversed_index = index[::-1]
        np.minimum.accumulate(reversed_index, out=reversed_index)
        index -= np.arange(self._length + 1, dtype=np.int32)
        np.minimum(index, _SATURATED, out=index)
        self._zeros = index.astype(np.uint8)

    @property
    def nbytes(self) -> int:
        """Bytes of resident state (fold, zero-run table, offsets)."""
        return self._folded.nbytes + self._zeros.nbytes + self._offsets.nbytes

    # -- one code per active stream per round ---------------------------------

    def _round(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode one code at each of ``positions``; return (values, ends)."""
        zeros = self._zeros[positions]
        terminators = positions + zeros
        if self._gamma:
            widths = zeros
        else:
            widths = (zeros.astype(np.int64) + 1) * self._k
        starts = terminators + 1
        ends = starts + widths
        if not ends.size:
            return ends, ends
        # Checked first: a saturated zero run reads as too wide here.
        widest = int(widths.max())
        if widest > 62:
            raise VectorizedDecodeUnsupported(
                "code payload wider than 62 bits"
            )
        # A missing terminator reads as ``length``, so its code ends past
        # the stream.
        if int(ends.max()) > self._length:
            raise EOFError("bit stream exhausted")
        if widest <= _MAX_VECTOR_WIDTH:
            if self._gamma:
                # A gamma value is its terminating 1 followed by the
                # payload: one field of ``width + 1`` bits.
                return self._extract(terminators, widths + 1), ends
            return self._extract(starts, widths), ends
        wide = widths > _MAX_VECTOR_WIDTH
        values = self._extract(starts, np.where(wide, 0, widths))
        extract = self._bits.extract
        for index in range(len(values)):
            width = int(widths[index])
            if wide[index]:
                values[index] = extract(int(starts[index]), width)
            if self._gamma:
                values[index] |= 1 << width
        return values, ends

    def _extract(self, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
        """Vectorized MSB-first field gather for widths <= 57 bits.

        Shift the field's first bit to the top of its 64-bit window, then
        down by ``64 - width`` (numpy shifts of 64 or more yield 0, which
        is the value of a zero-width field).
        """
        word = self._folded[starts >> 3]
        word <<= (starts & 7).astype(np.uint64)
        word >>= (64 - widths).astype(np.uint64)
        return word.astype(np.int64)

    def _decode_runs(
        self, positions: np.ndarray, counts: np.ndarray, extents: bool
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """Decode ``counts[i]`` consecutive codes starting at ``positions[i]``.

        All streams advance together, one code per round (streams that
        finish drop out of the frontier).  Once the frontier shrinks below
        :data:`_SCALAR_TAIL` streams the SIMD rounds stop paying for
        themselves, so the stragglers (a hub's long run) are finished with
        the scalar window decoder, one bulk run each.  Returns the decoded
        raw values concatenated stream-major (stream 0's codes in order,
        then stream 1's, ...), every code's end offset in the same order
        when ``extents`` is set (else ``None``), and each stream's final
        end position.
        """
        counts = counts.astype(np.int64)
        final_ends = positions.astype(np.int64).copy()
        total = int(counts.sum())
        out = np.empty(total, np.int64)
        code_ends = np.empty(total, np.int64) if extents else None
        # Streams ordered longest first: after ``r`` rounds the live streams
        # are a prefix, so a round slices instead of compacting arrays.
        # Each stream writes into its own contiguous slot range, so the
        # stream-major order falls out of the writes -- no sort needed.
        order = np.argsort(-counts, kind="stable")
        order = order[counts[order] > 0]
        lengths = counts[order]
        first_slot = _run_starts(counts)[order]
        cursor = positions[order].astype(np.int64)
        # live[r]: streams with more than r codes (the prefix round r runs).
        rounds = int(lengths[0]) if lengths.size else 0
        live = np.searchsorted(
            -lengths, -np.arange(rounds + 1), side="left"
        ).tolist()
        done = 0
        while live[done] > _SCALAR_TAIL:
            active = live[done]
            values, cursor = self._round(cursor[:active])
            out[first_slot[:active] + done] = values
            if code_ends is not None:
                code_ends[first_slot[:active] + done] = cursor
            done += 1
            finished = live[done]
            if finished < active:
                final_ends[order[finished:active]] = cursor[finished:]
        active = live[done]
        if active:
            make_decoder = self._config.scheme.stream_decoder
            source = self._bits
            for stream, start, count, begin in zip(
                order[:active].tolist(), cursor[:active].tolist(),
                (lengths[:active] - done).tolist(),
                (first_slot[:active] + done).tolist(),
            ):
                decoder = make_decoder(source, start)
                values, ends = decoder.run_positions(count)
                try:
                    out[begin : begin + count] = values
                except OverflowError as error:
                    raise VectorizedDecodeUnsupported(
                        "code value wider than 63 bits"
                    ) from error
                if code_ends is not None:
                    code_ends[begin : begin + count] = ends
                final_ends[stream] = decoder.position
        return out, code_ends, final_ends

    # -- gap postprocessing ---------------------------------------------------

    @staticmethod
    def _runs_to_ids(
        values: np.ndarray, run_nodes: np.ndarray, run_lengths: np.ndarray
    ) -> np.ndarray:
        """Absolute node ids from concatenated raw residual-gap runs.

        One segmented cumulative sum: each run's first value is un-shifted
        and zig-zag decoded against its source node; every follower's id is
        simply ``previous + value`` (the "+1" shift and the "gaps are at
        least 1" offset cancel).
        """
        if values.size == 0:
            return values
        _check_positive(values)
        starts = _run_starts(run_lengths)
        contrib = values.copy()
        contrib[starts] = run_nodes + _zigzag_decode(values[starts] - 1)
        running = np.cumsum(contrib)
        start_of = np.repeat(starts, run_lengths)
        return running - running[start_of] + contrib[start_of]

    # -- the layout walk ------------------------------------------------------

    def walk(self, nodes: np.ndarray, extents: bool = False) -> LayoutWalk:
        """Decode the layout of every node in ``nodes`` (any order, any subset).

        With ``extents`` the walk also records the bit extent of every
        header, interval descriptor and residual code -- what traversal
        plans charge memory traffic for.  Raises :class:`ValueError` for ids
        outside ``[0, num_nodes)``.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        count = len(nodes)
        node_count = len(self._offsets) - 1
        if count and (int(nodes.min()) < 0 or int(nodes.max()) >= node_count):
            raise ValueError(f"node ids out of range [0, {node_count})")
        cursor = self._offsets[nodes]
        header_start = cursor.copy() if extents else None
        config = self._config
        min_len = config.min_interval_length
        length_shift = 0 if min_len == float("inf") else int(min_len)
        segmented = config.residual_segment_bits is not None

        if segmented:
            active = np.arange(count, dtype=np.int64)
            degrees = None
        else:
            raw_deg, cursor = self._round(cursor)
            degrees = raw_deg - 1
            _check_positive(raw_deg)
            active = np.flatnonzero(degrees > 0)

        # Interval headers: itvNum for every live node, then 2*itvNum codes.
        itv_raw, ends = self._round(cursor[active])
        _check_positive(itv_raw)
        itv_counts = np.zeros(count, np.int64)
        itv_counts[active] = itv_raw - 1
        cursor[active] = ends
        pair_values, pair_ends, cursor[active] = self._decode_runs(
            cursor[active], 2 * itv_counts[active], extents
        )

        # Interval geometry, vectorized: the start-position chain
        # ``start_i = start_{i-1} + length_{i-1} + gap_i`` collapses to one
        # segmented cumsum per node (with the first start zig-zag decoded
        # against the node), mirroring :meth:`_runs_to_ids`.
        gap_raw = pair_values[0::2]
        length_raw = pair_values[1::2]
        _check_positive(pair_values)
        lengths = length_raw - 1 + length_shift
        itv_live = itv_counts[active] > 0
        itv_runs = itv_counts[active][itv_live]
        itv_owner_first = active[itv_live]
        first_interval = _run_starts(itv_runs)
        contrib = gap_raw - 1
        contrib[1:] += lengths[:-1]
        contrib[first_interval] = nodes[itv_owner_first] + _zigzag_decode(
            gap_raw[first_interval] - 1
        )
        running = np.cumsum(contrib)
        start_of = np.repeat(first_interval, itv_runs)
        interval_starts = running - running[start_of] + contrib[start_of]

        descriptor_start = descriptor_end = None
        if extents:
            descriptor_end = pair_ends[1::2]
            descriptor_start = np.empty_like(descriptor_end)
            descriptor_start[1:] = descriptor_end[:-1]
            descriptor_start[first_interval] = header_start[itv_owner_first]

        # Residual runs: per segment (segmented) or one per live node.
        if segmented:
            seg_raw, cursor = self._round(cursor)
            _check_positive(seg_raw)
            seg_counts = seg_raw - 1
            seg_bits = int(config.residual_segment_bits)
            seg_index = np.arange(int(seg_counts.sum()), dtype=np.int64)
            seg_index -= np.repeat(_run_starts(seg_counts), seg_counts)
            seg_positions = np.repeat(cursor, seg_counts) + seg_index * seg_bits
            res_raw, run_positions = self._round(seg_positions)
            _check_positive(res_raw)
            res_counts = res_raw - 1
            runs_per_node = seg_counts
            run_owner = np.repeat(active, seg_counts)
            run_count_bits = run_positions - seg_positions if extents else None
        else:
            coverage = np.bincount(
                np.repeat(itv_owner_first, itv_runs),
                weights=lengths,
                minlength=count,
            ).astype(np.int64)
            res_counts = np.maximum(degrees - coverage, 0)[active]
            run_positions = cursor[active]
            runs_per_node = (degrees > 0).astype(np.int64)
            run_owner = active
            run_count_bits = np.zeros(len(active), np.int64) if extents else None

        live_runs = res_counts > 0
        run_values, residual_ends, _ = self._decode_runs(
            run_positions, res_counts, extents
        )
        residual_ids = self._runs_to_ids(
            run_values,
            nodes[run_owner[live_runs]],
            res_counts[live_runs],
        )
        residual_starts = None
        if extents:
            # A code starts where the previous one ended; a run's first
            # code at the run's data start.
            residual_starts = np.empty_like(residual_ends)
            residual_starts[1:] = residual_ends[:-1]
            residual_starts[_run_starts(res_counts[live_runs])] = (
                run_positions[live_runs]
            )
        return LayoutWalk(
            nodes=nodes,
            degrees=degrees,
            interval_counts=itv_counts,
            interval_starts=interval_starts,
            interval_lengths=lengths,
            run_counts_per_node=runs_per_node,
            run_counts=res_counts,
            residual_ids=residual_ids,
            header_start=header_start,
            header_end=cursor if extents else None,
            descriptor_start=descriptor_start,
            descriptor_end=descriptor_end,
            run_data_start=run_positions if extents else None,
            run_count_bits=run_count_bits,
            residual_starts=residual_starts,
            residual_ends=residual_ends,
        )

    # -- list output ----------------------------------------------------------

    def decode(self, nodes: np.ndarray | None = None) -> list[list[int]]:
        """The sorted adjacency lists of ``nodes`` (every node by default),
        in the order given, from one walk."""
        if nodes is None:
            nodes = np.arange(len(self._offsets) - 1, dtype=np.int64)
        node_count = len(nodes)
        if node_count <= 0:
            return []
        walk = self.walk(nodes)
        # Stitch the final adjacency lists.  A node's residuals are already
        # sorted (runs are increasing and segments partition the sorted
        # residual list in order), so interval-free nodes need no sort.
        per_node_res = np.bincount(
            np.repeat(
                np.arange(node_count, dtype=np.int64), walk.run_counts_per_node
            ),
            weights=walk.run_counts,
            minlength=node_count,
        ).astype(np.int64)
        res_bounds = np.cumsum(per_node_res).tolist()
        itv_bounds = np.cumsum(walk.interval_counts).tolist()
        residual_list = walk.residual_ids.tolist()
        starts_list = walk.interval_starts.tolist()
        lengths_list = walk.interval_lengths.tolist()
        result: list[list[int]] = []
        res_begin = 0
        itv_begin = 0
        for node_index in range(node_count):
            res_end = res_bounds[node_index]
            itv_end = itv_bounds[node_index]
            if itv_begin == itv_end:
                result.append(residual_list[res_begin:res_end])
            else:
                merged: list[int] = []
                for index in range(itv_begin, itv_end):
                    start = starts_list[index]
                    merged.extend(range(start, start + lengths_list[index]))
                if res_begin != res_end:
                    merged.extend(residual_list[res_begin:res_end])
                    merged.sort()
                # Intervals are increasing and disjoint, so without
                # residuals the concatenation is already sorted.
                result.append(merged)
            itv_begin = itv_end
            res_begin = res_end
        return result


__all__ = [
    "LayoutWalk",
    "LayoutDecoder",
    "VectorizedDecodeUnsupported",
    "decode_adjacency",
    "supports",
]
