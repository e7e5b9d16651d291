"""Algorithm 2: Two-Phase Traversal.

The interval segments and the residual segments of the lanes' adjacency lists
are processed in two separate phases so no lane ever waits on a lane sitting
in the other decode branch:

* **Interval phase** (``handleIntervals`` + ``expandInterval``): in each round
  every lane that still has intervals decodes its next descriptor; then the
  warp collaboratively expands them -- long intervals (length >= warp size)
  are expanded a warp-width slice at a time under an elected leader, and the
  leftovers of all lanes are drained together through a shared-memory buffer
  using an exclusive scan.
* **Residual phase** (``handleResiduals``): every lane decodes and handles its
  own residual gaps round by round; lanes that finish early idle (that is the
  imbalance Task Stealing later removes).
"""

from __future__ import annotations

from typing import Sequence

from repro.traversal.context import ExpandContext, NodePlan
from repro.traversal.strategy import ExpansionStrategy, LaneResidualState


class TwoPhaseStrategy(ExpansionStrategy):
    """Interval phase then residual phase, as in Algorithm 2."""

    name = "TwoPhaseTraversal"

    def expand_chunk(self, ctx: ExpandContext, chunk: Sequence[int]) -> None:
        """Expand one chunk: interval phase, then residual phase."""
        plans = self.load_plans(ctx, chunk)
        self.interval_phase(ctx, plans)
        self.residual_phase(ctx, plans)

    # -- interval phase ---------------------------------------------------------

    def interval_phase(self, ctx: ExpandContext, plans: Sequence[NodePlan]) -> None:
        """Decode and collaboratively expand every lane's intervals."""
        max_intervals = max((len(plan.intervals) for plan in plans), default=0)
        for round_index in range(max_intervals):
            # Each lane with an interval left decodes its next descriptor.
            ranges: list[tuple[int, int] | None] = [None] * ctx.warp.size
            current: list[tuple[int, int, int] | None] = [None] * ctx.warp.size
            for lane, plan in enumerate(plans):
                if round_index < len(plan.intervals):
                    interval = plan.intervals[round_index]
                    ranges[lane] = plan.interval_descriptor_bits[round_index]
                    current[lane] = (plan.node, interval.start, interval.length)
            ctx.decode_step(ranges)
            self._expand_intervals(ctx, current)

    def _expand_intervals(
        self,
        ctx: ExpandContext,
        current: list[tuple[int, int, int] | None],
    ) -> None:
        """``expandInterval``: long-interval stage then short-interval stage."""
        warp_size = ctx.warp.size
        # Stage 1: while any lane holds an interval at least warp_size long,
        # elect it leader and let the whole warp expand one warp-width slice.
        while True:
            lengths = [item[2] if item is not None else 0 for item in current]
            flags = ctx.pad_to_warp([length >= warp_size for length in lengths])
            flags = [bool(f) for f in flags]
            if not ctx.warp.any(flags):
                break
            leader = flags.index(True)
            source, start, length = current[leader]  # type: ignore[misc]
            # Leader broadcast (shfl) then one cooperative handle round.
            ctx.warp.shfl(ctx.pad_to_warp([start] * len(current)), leader)
            pairs = [(source, start + offset) for offset in range(warp_size)]
            ctx.handle_step(pairs)
            current[leader] = (source, start + warp_size, length - warp_size)

        # Stage 2: drain all remaining (short) intervals cooperatively.
        leftovers: list[tuple[int, int]] = []
        lengths = [item[2] if item is not None else 0 for item in current]
        scan_input = [max(0, length) for length in lengths]
        scan_input += [0] * (warp_size - len(scan_input))
        ctx.warp.exclusive_scan(scan_input)
        for item in current:
            if item is None:
                continue
            source, start, length = item
            for offset in range(length):
                leftovers.append((source, start + offset))
        for begin in range(0, len(leftovers), warp_size):
            slice_pairs = leftovers[begin:begin + warp_size]
            ctx.warp.memory.shared_access(len(slice_pairs))
            ctx.handle_step(ctx.pad_to_warp(slice_pairs))

    # -- residual phase ---------------------------------------------------------

    def residual_phase(self, ctx: ExpandContext, plans: Sequence[NodePlan]) -> None:
        """Round-by-round per-lane residual decoding (no stealing)."""
        states = [LaneResidualState.from_plan(plan) for plan in plans]
        while any(state.remaining > 0 for state in states):
            ranges: list[tuple[int, int] | None] = [None] * ctx.warp.size
            pairs: list[tuple[int, int] | None] = [None] * ctx.warp.size
            for lane, state in enumerate(states):
                if state.remaining > 0:
                    neighbor, bit_range = state.decode_next()
                    ranges[lane] = bit_range
                    pairs[lane] = (state.source, neighbor)
            ctx.decode_step(ranges)
            ctx.handle_step(pairs)
