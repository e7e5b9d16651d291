"""Residual Segmentation traversal (Section 5.2).

When the CGR encoder splits long residual areas into fixed-size segments, the
start offset of every segment is known from ``segNum`` and ``segLen`` alone --
no serial decoding is needed to reach it.  The traversal can therefore hand
*segments*, not nodes, to lanes: a super node with forty segments occupies
forty lane-slots instead of serialising one lane for its whole residual run.
That is the optimization that rescues the twitter-like skewed datasets in
Figure 9 and the segment-length trade-off studied in Figure 14.
"""

from __future__ import annotations

from typing import Sequence

from repro.traversal.context import ExpandContext, NodePlan, ResidualSegmentPlan
from repro.traversal.strategy import stage_rounds
from repro.traversal.warp_decode import WarpCentricStrategy


class ResidualSegmentationStrategy(WarpCentricStrategy):
    """Distribute residual segments across lanes (full GCGT configuration)."""

    name = "ResidualSegmentation"

    def residual_phase(self, ctx: ExpandContext, plans: Sequence[NodePlan]) -> None:
        """Serve every residual segment as an independent warp-wave task."""
        # Every non-empty residual segment of every frontier node becomes an
        # independent task; tasks are served in warp-sized waves.
        tasks = [
            (plan.node, segment)
            for plan in plans
            for segment in plan.residual_segments
            if segment.count > 0
        ]
        warp_size = ctx.warp.size
        for begin in range(0, len(tasks), warp_size):
            self._process_wave(ctx, tasks[begin:begin + warp_size])

    def _process_wave(
        self,
        ctx: ExpandContext,
        wave: Sequence[tuple[int, ResidualSegmentPlan]],
    ) -> None:
        """One wave: each lane decodes one segment; handling is cooperative.

        The whole wave is charged in one pass over the segments' residual
        columns: one decode round for the ``resNum`` headers, then one
        lock-step round per residual index (lane ``i`` decodes its ``i``-th
        residual, exhausted lanes idle) with every decoded value staged in
        shared memory, then warp-width handle rounds over the staged pairs
        in round-major order.
        """
        segments = [segment for _, segment in wave]
        # Reading each segment's ``resNum`` header is one extra coalesced-ish
        # access per lane; charge it as a single decode round over the wave.
        ctx.decode_rounds(
            [(segment.data_start_bit - segment.count_bits,) for segment in segments],
            [(max(1, segment.count_bits),) for segment in segments],
        )
        stage_rounds(ctx, [
            (source, segment.ids, segment.starts, segment.bits)
            for source, segment in wave
        ])
