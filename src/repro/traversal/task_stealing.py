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
from repro.traversal.strategy import lockstep_rounds, residual_columns, stage_rounds
from repro.traversal.two_phase import TwoPhaseStrategy


class TaskStealingStrategy(TwoPhaseStrategy):
    """Two-Phase Traversal with the stolen-residual handling of Algorithm 3."""

    name = "TaskStealing"

    def residual_phase(self, ctx: ExpandContext, plans: Sequence[NodePlan]) -> None:
        """Run the two stealing stages over the chunk's residual work.

        Stage 1: while *every* lane still has residuals, each decodes and
        handles its own.  Stage 2: once any lane has drained, an
        ``exclusiveScan`` of the remaining counts sizes the shared buffer,
        the loaded lanes keep decoding into it and the whole warp steals the
        handling, ``ceil(staged / warp_size)`` rounds in all.
        """
        lanes = [(plan.node, *residual_columns(plan)) for plan in plans]
        shared_rounds = min((len(lane[1]) for lane in lanes), default=0)
        lockstep_rounds(ctx, lanes, shared_rounds)
        if any(len(lane[1]) > shared_rounds for lane in lanes):
            # exclusiveScan of the remaining counts: one shared access per lane.
            ctx.warp.memory.shared_access(ctx.warp.size)
            stage_rounds(ctx, lanes, shared_rounds)
