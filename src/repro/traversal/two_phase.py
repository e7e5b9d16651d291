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

from itertools import repeat
from typing import Sequence

from repro.compression.intervals import Interval
from repro.traversal.context import ExpandContext, NodePlan
from repro.traversal.strategy import (
    ExpansionStrategy,
    lockstep_rounds,
    residual_columns,
)


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
        lanes = [plan for plan in plans if plan.intervals]
        descriptors = [plan.interval_descriptor_bits for plan in lanes]
        starts = [[start for start, _ in lane] for lane in descriptors]
        bits = [[num_bits for _, num_bits in lane] for lane in descriptors]
        index = 0
        while lanes:
            # Each lane with an interval left decodes its next descriptor.
            ctx.decode_rounds(starts, bits, index, index + 1)
            self._expand_intervals(
                ctx, [(plan.node, plan.intervals[index]) for plan in lanes]
            )
            index += 1
            lanes = [plan for plan in lanes if len(plan.intervals) > index]

    def _expand_intervals(
        self, ctx: ExpandContext, current: Sequence[tuple[int, Interval]]
    ) -> None:
        """``expandInterval`` over the active lanes' ``(source, interval)``.

        Stage 1 elects, while any interval is at least a warp long, the first
        such lane as leader (``any`` vote), broadcasts its interval (``shfl``:
        one shared access) and expands one warp-width slice of it with the
        whole warp.  The leader stays the first long lane until it is shorter
        than a warp, so the slices come lane by lane, in lane order.  Stage 2
        drains every lane's leftover neighbours, in lane order, through a
        shared-memory buffer in warp-width rounds.
        """
        warp_size = ctx.warp.size
        memory = ctx.warp.memory
        handle = ctx.handle
        leftovers: list[tuple[int, int]] = []
        for source, interval in current:
            start, length = interval.start, interval.length
            while length >= warp_size:
                memory.shared_access(1)  # shfl: the leader's interval
                handle(list(zip(repeat(source), range(start, start + warp_size))))
                start += warp_size
                length -= warp_size
            leftovers.extend(zip(repeat(source), range(start, start + length)))
        # exclusiveScan of the leftover lengths (one shared access per lane),
        # then one shared-buffer access per leftover neighbour.
        memory.shared_access(warp_size + len(leftovers))
        for begin in range(0, len(leftovers), warp_size):
            handle(leftovers[begin:begin + warp_size])

    # -- residual phase ---------------------------------------------------------

    def residual_phase(self, ctx: ExpandContext, plans: Sequence[NodePlan]) -> None:
        """Round-by-round per-lane residual decoding (no stealing)."""
        lanes = [(plan.node, *residual_columns(plan)) for plan in plans]
        lockstep_rounds(ctx, lanes, max((len(lane[1]) for lane in lanes), default=0))
