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
from repro.traversal.strategy import ExpansionStrategy, residual_columns

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
    for neighbor, start, num_bits in zip(*residual_columns(plan)):
        ops.append(LaneOp(OP_DECODE_RESIDUAL, bit_range=(start, num_bits)))
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
        while True:
            heads = [
                (lane, stream[cursor])
                for lane, (stream, cursor) in enumerate(zip(streams, cursors))
                if cursor < len(stream)
            ]
            if not heads:
                break
            # Divergence rule: serve one decode branch at a time; once no lane
            # is waiting on a decode, all lanes at a handle run together.
            kinds = {op.kind for _, op in heads}
            kind_to_run = next(
                (kind for kind in _DECODE_PRIORITY if kind in kinds), OP_HANDLE
            )
            selected = [(lane, op) for lane, op in heads if op.kind == kind_to_run]
            if kind_to_run == OP_HANDLE:
                ctx.handle([op.pair for _, op in selected])
            else:
                # One decode round: each selected lane reads one code.
                ctx.decode_rounds(
                    [(op.bit_range[0],) for _, op in selected],
                    [(op.bit_range[1],) for _, op in selected],
                )
            for lane, _ in selected:
                cursors[lane] += 1
