"""Base class and shared helpers for expansion strategies."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
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


@dataclass
class LaneResidualState:
    """Mutable per-lane position inside a node's residual area.

    The residual area of a node may span several segments (after residual
    segmentation); a lane replays them in order from the plan's
    pre-decoded columns, concatenated over the node's segments.
    """

    source: int
    ids: Sequence[int]
    starts: Sequence[int]
    bits: Sequence[int]
    position: int = 0

    @classmethod
    def from_plan(cls, plan: NodePlan) -> "LaneResidualState":
        """A lane positioned on the first residual of ``plan``."""
        segments = [s for s in plan.residual_segments if s.count > 0]
        if len(segments) == 1:
            only = segments[0]
            return cls(plan.node, only.ids, only.starts, only.bits)
        ids: list[int] = []
        starts: list[int] = []
        bits: list[int] = []
        for segment in segments:
            ids.extend(segment.ids)
            starts.extend(segment.starts)
            bits.extend(segment.bits)
        return cls(plan.node, ids, starts, bits)

    @property
    def remaining(self) -> int:
        """Residuals left to decode across all remaining segments."""
        return len(self.ids) - self.position

    def decode_next(self) -> tuple[int, tuple[int, int]]:
        """Replay the next residual; return ``(neighbor, bit_range)``.

        The neighbour and bit range are exactly what a live cursor decode
        of the stream returns, so the charged decode rounds are those of
        the real decode.
        """
        index = self.position
        if index >= len(self.ids):
            raise RuntimeError("no residuals remain for this lane")
        self.position = index + 1
        return self.ids[index], (self.starts[index], self.bits[index])
