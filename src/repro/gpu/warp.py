"""The simulated warp: lock-step lanes and their round accounting.

A warp is the smallest lock-step unit on the GPU.  :class:`Warp` carries its
width, the metrics object its rounds are charged to and the
:class:`~repro.gpu.memory.DeviceMemory` its lanes read through.  The paper's
intra-warp primitives (Appendix A and the footnotes of Section 4: ``shfl``
broadcasts, ``any``/``ballot`` votes, ``exclusiveScan`` prefix sums) have no
objects here: the traversal kernels read per-lane work as columns of the
chunk's plans and charge each primitive's cost -- a shared-memory access per
broadcast, one per lane per scan, nothing for a vote -- at the point where
the pseudo-code calls it, so the simulated step counts line up with Figure 4.
"""

from __future__ import annotations

from repro.gpu.memory import DeviceMemory
from repro.gpu.metrics import KernelMetrics


class Warp:
    """A group of ``size`` lock-step lanes and the metrics their rounds feed."""

    def __init__(
        self,
        size: int,
        metrics: KernelMetrics | None = None,
        memory: DeviceMemory | None = None,
    ) -> None:
        if size < 1:
            raise ValueError("warp size must be >= 1")
        self.size = size
        self.metrics = metrics if metrics is not None else KernelMetrics()
        self.memory = memory if memory is not None else DeviceMemory(self.metrics)

    # -- step accounting -----------------------------------------------------

    def step(self, active_lanes: int) -> None:
        """Record one lock-step instruction round with ``active_lanes`` busy."""
        self.metrics.record_round(active_lanes, self.size)

    def step_rounds(self, active_lanes: int, rounds: int) -> None:
        """Record ``rounds`` identical lock-step rounds in one call.

        Equivalent to calling :meth:`step` ``rounds`` times; the bulk form
        keeps the hot decode loops out of per-round Python call overhead.
        """
        self.metrics.record_rounds(active_lanes, self.size, rounds)
