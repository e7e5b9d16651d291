"""Algorithm 4: warp-centric parallel VLC decoding, and the strategy using it.

A VLC stream is inherently serial -- the start of a code is only known once
its predecessor has been decoded.  The warp-centric decoder sidesteps this by
speculation: every lane decodes starting from one of the next ``warp_size``
bit positions, and a pointer-jumping pass (Lemma 5.2: O(log2 K) rounds) marks
which of those speculative decodings start at real code boundaries, doubling
the number of identified codes every round starting from the known-valid
position 0.

:class:`WarpCentricStrategy` applies the decoder to frontier nodes whose
residual runs are long enough that serial decoding would dominate the warp's
time; short runs keep using the task-stealing path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.compression.bitarray import BitReader
from repro.compression.gaps import zigzag_decode
from repro.compression.vlc import VLCScheme
from repro.traversal.context import (
    DECODE_BITS_PER_ROUND,
    ExpandContext,
    NodePlan,
    ResidualSegmentPlan,
)
from repro.traversal.task_stealing import TaskStealingStrategy

#: Upper bound on a single code word's length used when charging the memory
#: read of one speculative-decode window (gaps in scaled graphs stay well
#: below 2^32, so 64 bits is a safe cap).
MAX_CODE_BITS = 64


@dataclass
class ParallelDecodeResult:
    """Outcome of one speculative-decode window."""

    #: The validated decoded values, in stream order (still carrying the
    #: CGR "+1" shift -- callers undo it when turning gaps into node ids).
    values: list[int]
    #: Absolute bit position where the next window should start.
    next_position: int
    #: Number of pointer-jumping rounds executed (the O(log2 K) cost).
    marking_rounds: int
    #: Lane index (== bit offset within the window) of each validated value.
    valid_offsets: list[int]
    #: Length in bits of the longest validated code word (the speculative
    #: decode round lasts as long as its slowest lane).
    max_code_bits: int = 1


def parallel_vlc_decode(
    reader: BitReader,
    warp_size: int,
    scheme: VLCScheme,
    max_values: int,
) -> ParallelDecodeResult:
    """Decode up to ``max_values`` codes from one ``warp_size``-bit window.

    ``reader`` must be positioned at a valid code boundary.  Lane ``i``
    speculatively decodes starting at ``reader.position + i``; the marking
    pass then identifies which lanes started at true boundaries, exactly as
    in Algorithm 4 / Figure 5 of the paper.
    """
    if warp_size < 1:
        raise ValueError("warp_size must be >= 1")
    if max_values < 1:
        raise ValueError("max_values must be >= 1")
    base = reader.position

    values: list[int | None] = [None] * warp_size
    # ``positions[i]``: offset (relative to the window start) of the first bit
    # after the code decoded from offset ``i``; window-or-beyond when invalid.
    # Each lane's speculative decode is one bulk ``decode_run_positions``
    # call: a word-level unary scan plus one field extract against the packed
    # stream, never a per-bit walk.
    positions: list[int] = [warp_size] * warp_size
    decode_run_positions = scheme.decode_run_positions
    for lane in range(warp_size):
        fork = reader.fork(base + lane)
        try:
            lane_values, lane_ends = decode_run_positions(fork, 1)
        except (EOFError, ValueError):
            continue
        values[lane] = lane_values[0]
        positions[lane] = lane_ends[0] - base

    # Pointer-jumping marking pass (Algorithm 4, lines 9-15): every round,
    # each already-marked lane marks the lane its pointer designates, and
    # *every* lane replaces its pointer by "the pointer of its pointer", so
    # the distance covered doubles per round (Lemma 5.2).
    flags = [False] * warp_size
    flags[0] = True
    jump = list(positions)
    marking_rounds = 0
    max_rounds = 2 * (int(math.log2(warp_size)) + 2) if warp_size > 1 else 1
    while marking_rounds < max_rounds:
        if not any(flags[lane] and jump[lane] < warp_size for lane in range(warp_size)):
            break
        marking_rounds += 1
        previous_jump = list(jump)
        newly_marked = []
        for lane in range(warp_size):
            target = previous_jump[lane]
            if target < warp_size:
                if flags[lane]:
                    newly_marked.append(target)
                jump[lane] = previous_jump[target]
        for target in newly_marked:
            flags[target] = True

    valid_offsets = [
        lane for lane in range(warp_size) if flags[lane] and values[lane] is not None
    ]
    valid_offsets.sort()
    taken = valid_offsets[:max_values]
    decoded_values = [values[offset] for offset in taken]
    if taken:
        next_position = base + positions[taken[-1]]
        max_code_bits = max(positions[offset] - offset for offset in taken)
    else:
        next_position = base
        max_code_bits = 1
    return ParallelDecodeResult(
        values=[int(v) for v in decoded_values if v is not None],
        next_position=next_position,
        marking_rounds=max(1, marking_rounds),
        valid_offsets=taken,
        max_code_bits=max(1, max_code_bits),
    )


class WarpCentricStrategy(TaskStealingStrategy):
    """Task stealing plus warp-centric decoding of long residual runs."""

    name = "Warp-centric"

    def __init__(self, long_residual_threshold: int | None = None) -> None:
        self.long_residual_threshold = long_residual_threshold

    def _threshold(self, ctx: ExpandContext) -> int:
        if self.long_residual_threshold is not None:
            return self.long_residual_threshold
        return 4 * ctx.warp.size

    def residual_phase(self, ctx: ExpandContext, plans: Sequence[NodePlan]) -> None:
        """Warp-decode a *dominant* residual run; task-steal everything else.

        Spreading lanes over many medium runs (task stealing) already keeps
        the warp busy, so dedicating the whole warp to one run only pays off
        when that run dwarfs the rest of the chunk -- the starvation case the
        paper targets.  The dominance test below selects at most one such run
        per chunk.
        """
        threshold = self._threshold(ctx)
        long_plans: list[NodePlan] = []
        short_plans = list(plans)
        counts = sorted((plan.residual_count for plan in plans), reverse=True)
        if counts and counts[0] >= threshold:
            second = counts[1] if len(counts) > 1 else 0
            if counts[0] >= 2 * max(1, second):
                dominant = max(plans, key=lambda plan: plan.residual_count)
                long_plans = [dominant]
                short_plans = [plan for plan in plans if plan is not dominant]

        super().residual_phase(ctx, short_plans)

        for plan in long_plans:
            for segment in plan.residual_segments:
                if segment.count > 0:
                    self._warp_decode_segment(ctx, plan.node, segment)

    # -- warp-collaborative decode of one residual run ---------------------------

    def _warp_decode_segment(
        self,
        ctx: ExpandContext,
        source: int,
        segment: ResidualSegmentPlan,
    ) -> None:
        """Decode one residual run window-by-window with the whole warp."""
        scheme = ctx.graph.config.scheme
        warp_size = ctx.warp.size
        position = segment.data_start_bit
        previous: int | None = None
        decoded = 0
        staged: list[tuple[int, int]] = []
        while decoded < segment.count:
            reader = BitReader(ctx.graph.bits, position)
            result = parallel_vlc_decode(
                reader, warp_size, scheme, segment.count - decoded
            )
            # Cost: every lane decodes its speculative candidate concurrently,
            # so the decode phase lasts as long as the longest code in the
            # window; the pointer-jumping rounds then touch only
            # registers/shared memory.
            decode_rounds = max(1, -(-result.max_code_bits // DECODE_BITS_PER_ROUND))
            ctx.warp.step_rounds(warp_size, decode_rounds)
            ctx.warp.memory.access_bit_ranges([(position, warp_size + MAX_CODE_BITS)])
            ctx.warp.step_rounds(warp_size, result.marking_rounds)
            ctx.warp.memory.shared_access(warp_size * result.marking_rounds)

            if not result.values:
                # Degenerate window (single code longer than the window and
                # not decodable speculatively): fall back to one serial decode
                # so progress is always made.
                fallback = BitReader(ctx.graph.bits, position)
                value = scheme.decode(fallback)
                result = ParallelDecodeResult(
                    values=[value],
                    next_position=fallback.position,
                    marking_rounds=1,
                    valid_offsets=[0],
                )

            for raw in result.values:
                gap = raw - 1  # undo the CGR "+1" shift
                if previous is None:
                    neighbor = source + zigzag_decode(gap)
                else:
                    neighbor = previous + gap + 1
                previous = neighbor
                staged.append((source, neighbor))
                ctx.warp.memory.shared_access(1)
                decoded += 1
            # Handle a full warp-width batch as soon as one is staged; the
            # remainder is flushed after the whole run is decoded.
            while len(staged) >= warp_size:
                ctx.handle(staged[:warp_size])
                staged = staged[warp_size:]
            position = result.next_position
        ctx.handle(staged)
