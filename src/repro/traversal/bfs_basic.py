"""Algorithm 1: the intuitive one-lane-per-frontier strategy.

Each lane independently decodes the compressed adjacency list of its own
frontier node, neighbour by neighbour, exactly as ``BfsBasic`` /
``getNextNeighbor`` in the paper.  Because the lanes of a warp execute in
lock-step, a lane that needs to decode an *interval* descriptor cannot run in
the same round as a lane that needs to decode a *residual* gap -- they sit in
different control branches -- and a lane with a short list idles while its
neighbours grind through long ones.  The simulation reproduces exactly this
behaviour (and therefore the step counts of Figure 4(b)) by building each
lane's operation stream and scheduling it under the divergence rule
"different decode branches serialise; handling unifies".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.traversal.context import ExpandContext, NodePlan
from repro.traversal.strategy import ExpansionStrategy, LaneResidualState

#: Operation kinds, in the priority order the warp scheduler serves them.
OP_DECODE_INTERVAL = "decode_interval"
OP_DECODE_RESIDUAL = "decode_residual"
OP_HANDLE = "handle"

_DECODE_PRIORITY = (OP_DECODE_INTERVAL, OP_DECODE_RESIDUAL)


@dataclass(frozen=True)
class LaneOp:
    """One per-lane micro-operation of the intuitive decoder."""

    kind: str
    #: Bit range read from the compressed stream (decode ops only).
    bit_range: tuple[int, int] | None = None
    #: ``(source, neighbor)`` pair to filter and append (handle ops only).
    pair: tuple[int, int] | None = None


def build_lane_ops(ctx: ExpandContext, plan: NodePlan) -> list[LaneOp]:
    """The exact operation stream one lane executes for one frontier node.

    Mirrors ``getNextNeighbor``: interval neighbours need a descriptor decode
    only when a new interval starts; every residual needs its own gap decode;
    every neighbour ends with a handle (``appendIfUnvisited``) operation.
    """
    ops: list[LaneOp] = []
    source = plan.node
    for interval, descriptor_bits in zip(plan.intervals, plan.interval_descriptor_bits):
        ops.append(LaneOp(OP_DECODE_INTERVAL, bit_range=descriptor_bits))
        for neighbor in interval.nodes():
            ops.append(LaneOp(OP_HANDLE, pair=(source, neighbor)))
    residual_state = LaneResidualState.from_plan(plan)
    while residual_state.remaining > 0:
        neighbor, bit_range = residual_state.decode_next()
        ops.append(LaneOp(OP_DECODE_RESIDUAL, bit_range=bit_range))
        ops.append(LaneOp(OP_HANDLE, pair=(source, neighbor)))
    return ops


class IntuitiveStrategy(ExpansionStrategy):
    """The naive per-lane scheduling of Algorithm 1."""

    name = "Intuitive"

    def expand_chunk(self, ctx: ExpandContext, chunk: Sequence[int]) -> None:
        """Expand one warp-sized chunk with naive per-lane scheduling."""
        plans = self.load_plans(ctx, chunk)
        streams = [build_lane_ops(ctx, plan) for plan in plans]
        cursors = [0] * len(streams)

        def pending_kinds() -> set[str]:
            kinds = set()
            for lane, stream in enumerate(streams):
                if cursors[lane] < len(stream):
                    kinds.add(stream[cursors[lane]].kind)
            return kinds

        while True:
            kinds = pending_kinds()
            if not kinds:
                break
            # Divergence rule: serve one decode branch at a time; once no lane
            # is waiting on a decode, all lanes at a handle run together.
            kind_to_run = None
            for kind in _DECODE_PRIORITY:
                if kind in kinds:
                    kind_to_run = kind
                    break
            if kind_to_run is None:
                kind_to_run = OP_HANDLE

            selected: list[tuple[int, LaneOp]] = []
            for lane, stream in enumerate(streams):
                if cursors[lane] < len(stream) and stream[cursors[lane]].kind == kind_to_run:
                    selected.append((lane, stream[cursors[lane]]))

            if kind_to_run == OP_HANDLE:
                pairs: list[tuple[int, int] | None] = [None] * ctx.warp.size
                for slot, (lane, op) in enumerate(selected):
                    pairs[slot] = op.pair
                ctx.handle_step(pairs)
            else:
                ranges: list[tuple[int, int] | None] = [None] * ctx.warp.size
                for slot, (lane, op) in enumerate(selected):
                    ranges[slot] = op.bit_range
                ctx.decode_step(ranges)

            for lane, _ in selected:
                cursors[lane] += 1
