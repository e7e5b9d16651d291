"""Algorithm 3: Task Stealing for the residual phase.

Two-Phase Traversal still leaves the residual phase imbalanced: a lane with a
long residual run keeps the whole warp busy while lanes with short runs idle.
``handleResiduals+`` fixes the *handling* half of that cost: once any lane has
drained its own residuals, the remaining lanes decode into a shared-memory
buffer and every lane -- including the idle ones -- cooperatively pushes the
buffered neighbours through ``appendIfUnvisited``.  Decoding itself stays
serial per lane (gaps depend on their predecessors), which is exactly the
limitation the warp-centric decoder and residual segmentation attack next.
"""

from __future__ import annotations

from typing import Sequence

from repro.traversal.context import ExpandContext, NodePlan
from repro.traversal.strategy import LaneResidualState
from repro.traversal.two_phase import TwoPhaseStrategy


class TaskStealingStrategy(TwoPhaseStrategy):
    """Two-Phase Traversal with the stolen-residual handling of Algorithm 3."""

    name = "TaskStealing"

    def residual_phase(self, ctx: ExpandContext, plans: Sequence[NodePlan]) -> None:
        """Run the two stealing stages over the chunk's residual work."""
        states = [LaneResidualState.from_plan(plan) for plan in plans]
        self.stage_one(ctx, states)
        self.stage_two(ctx, states)

    # -- stage 1: every lane works on its own residuals -------------------------

    def stage_one(self, ctx: ExpandContext, states: Sequence[LaneResidualState]) -> None:
        """While *all* lanes still have residuals, each decodes and handles its own."""
        if not states:
            return
        while all(state.remaining > 0 for state in states):
            ranges: list[tuple[int, int] | None] = [None] * ctx.warp.size
            pairs: list[tuple[int, int] | None] = [None] * ctx.warp.size
            for lane, state in enumerate(states):
                neighbor, bit_range = state.decode_next()
                ranges[lane] = bit_range
                pairs[lane] = (state.source, neighbor)
            ctx.decode_step(ranges)
            ctx.handle_step(pairs)

    # -- stage 2: decode into shared memory, handle cooperatively ---------------

    def stage_two(self, ctx: ExpandContext, states: Sequence[LaneResidualState]) -> None:
        """Loaded lanes keep decoding; idle lanes steal the handling work."""
        remaining = [state.remaining for state in states]
        if not any(count > 0 for count in remaining):
            return
        scan_input = list(remaining) + [0] * (ctx.warp.size - len(remaining))
        ctx.warp.exclusive_scan(scan_input)

        staged: list[tuple[int, int]] = []
        # Decoding rounds: still one residual per loaded lane per round, but
        # the decoded values go to shared memory instead of being handled
        # immediately by the decoding lane.
        while any(state.remaining > 0 for state in states):
            ranges: list[tuple[int, int] | None] = [None] * ctx.warp.size
            for lane, state in enumerate(states):
                if state.remaining > 0:
                    neighbor, bit_range = state.decode_next()
                    ranges[lane] = bit_range
                    staged.append((state.source, neighbor))
                    ctx.warp.memory.shared_access(1)
            ctx.decode_step(ranges)

        # Cooperative handling: all lanes drain the shared buffer warp-width
        # at a time, so the handle cost is ceil(total / warp_size) rounds.
        for begin in range(0, len(staged), ctx.warp.size):
            slice_pairs = staged[begin:begin + ctx.warp.size]
            ctx.handle_step(ctx.pad_to_warp(slice_pairs))
