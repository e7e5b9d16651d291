"""Base class and shared helpers for expansion strategies."""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import chain, islice, repeat, zip_longest
from typing import Sequence

from repro.traversal.context import ExpandContext, NodePlan


class ExpansionStrategy(ABC):
    """Processes one warp-sized chunk of frontier nodes.

    A strategy is responsible for decoding each frontier node's compressed
    adjacency list, passing every neighbour through the application filter and
    appending qualified neighbours to the next frontier -- while charging the
    simulated warp for every lock-step round and memory access it would
    perform on real hardware.  Subclasses differ only in *scheduling*: how the
    decode and handle work is distributed over the lanes.
    """

    #: Display name used by the benchmark figures.
    name: str = "abstract"

    @abstractmethod
    def expand_chunk(self, ctx: ExpandContext, chunk: Sequence[int]) -> None:
        """Expand ``chunk`` (at most ``warp.size`` frontier nodes)."""

    # -- helpers shared by the concrete strategies -----------------------------

    def load_plans(
        self, ctx: ExpandContext, chunk: Sequence[int]
    ) -> Sequence[NodePlan]:
        """Charge the frontier load and return one :class:`NodePlan` per lane.

        Plans come through :meth:`ExpandContext.chunk_plans`, so a resident
        engine serves them from its decoded-plan cache; the simulated cost
        accounting is unchanged either way (plans are structural only -- the
        strategies still charge every decode round explicitly).
        """
        ctx.frontier_load_step(chunk)
        return ctx.chunk_plans(chunk)


#: One lane's residual work: the source node and its residuals' columns
#: ``(ids, starts, bits)``, as :func:`residual_columns` returns them.
ResidualLane = tuple[int, Sequence[int], Sequence[int], Sequence[int]]


def residual_columns(
    plan: NodePlan,
) -> tuple[Sequence[int], Sequence[int], Sequence[int]]:
    """``(ids, starts, bits)`` of every residual of ``plan``, in segment order.

    A node's residual area may span several segments (after residual
    segmentation); a lane that owns the whole node walks them in order, so
    their columns are concatenated.  A node whose residuals sit in one
    segment gets that segment's own columns.
    """
    segments = [segment for segment in plan.residual_segments if segment.count > 0]
    if len(segments) == 1:
        only = segments[0]
        return only.ids, only.starts, only.bits
    return (
        tuple(chain.from_iterable(segment.ids for segment in segments)),
        tuple(chain.from_iterable(segment.starts for segment in segments)),
        tuple(chain.from_iterable(segment.bits for segment in segments)),
    )


def lockstep_rounds(
    ctx: ExpandContext, lanes: Sequence[ResidualLane], stop: int
) -> None:
    """``handleResiduals``: rounds ``0 .. stop-1`` of per-lane decode + handle.

    In round ``i`` every lane that still has an ``i``-th residual decodes it
    and hands its own pair to the same round's ``appendIfUnvisited``; the
    decode and handle calls alternate round by round.
    """
    starts = [lane[2] for lane in lanes]
    bits = [lane[3] for lane in lanes]
    for index in range(stop):
        ctx.decode_rounds(starts, bits, index, index + 1)
        ctx.handle([
            (source, ids[index]) for source, ids, _, _ in lanes if len(ids) > index
        ])


def stage_rounds(
    ctx: ExpandContext, lanes: Sequence[ResidualLane], first: int = 0
) -> None:
    """Decode into shared memory, then handle cooperatively.

    Every lane decodes its residuals from index ``first`` on in lock-step
    rounds (exhausted lanes idle), writing each decoded neighbour to a
    shared-memory buffer in round-major order (one shared access each);
    then the whole warp drains the buffer in warp-width ``appendIfUnvisited``
    rounds.
    """
    ctx.decode_rounds([lane[2] for lane in lanes], [lane[3] for lane in lanes], first)
    staged = [
        pair
        for row in zip_longest(*[
            zip(repeat(source), islice(ids, first, None))
            for source, ids, _, _ in lanes
        ])
        for pair in row
        if pair is not None
    ]
    ctx.warp.memory.shared_access(len(staged))
    warp_size = ctx.warp.size
    for begin in range(0, len(staged), warp_size):
        ctx.handle(staged[begin:begin + warp_size])
