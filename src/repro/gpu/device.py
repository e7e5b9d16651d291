"""GPU device abstraction: capacity, warp geometry and cost weights.

The paper runs on a TITAN V (5120 cores, 12 GB device memory); the central
resource question of the whole work is whether a graph representation fits in
that memory.  :class:`GPUDevice` carries the simulated device's warp size,
memory capacity and cost model, performs the out-of-memory check that the
Gunrock baseline fails on the two largest datasets (Figure 8), and hands out
fresh :class:`~repro.gpu.warp.Warp`/:class:`~repro.gpu.memory.DeviceMemory`
pairs to traversal engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.memory import CACHE_LINE_BYTES, DeviceMemory
from repro.gpu.metrics import CostModel, KernelMetrics
from repro.gpu.warp import Warp


class GPUOutOfMemoryError(MemoryError):
    """Raised when a representation does not fit in simulated device memory."""

    def __init__(self, required_bytes: int, capacity_bytes: int, what: str) -> None:
        super().__init__(
            f"{what} needs {required_bytes} bytes but the device has "
            f"{capacity_bytes} bytes of memory"
        )
        self.required_bytes = required_bytes
        self.capacity_bytes = capacity_bytes
        self.what = what


@dataclass
class GPUDevice:
    """A simulated GPU.

    Attributes:
        warp_size: lanes per warp (32 on NVIDIA hardware; smaller values are
            handy in unit tests and match the 8-lane worked example of
            Figure 4).
        cta_size: threads per block; only used for reporting.
        device_memory_bytes: capacity used by :meth:`check_fits`; ``None``
            disables the check (infinite memory).
        cache_line_bytes: coalescing granularity.
        cost_model: weights for the elapsed-time proxy.
    """

    warp_size: int = 32
    cta_size: int = 256
    device_memory_bytes: int | None = None
    cache_line_bytes: int = CACHE_LINE_BYTES
    cost_model: CostModel = field(default_factory=CostModel)
    #: Number of warps the simulated device keeps in flight.  The simulator
    #: sums the cost of every warp as if they ran back to back; dividing by
    #: this factor yields the elapsed-time proxy comparable with the CPU
    #: baselines' (work / threads) proxy.
    concurrent_warps: int = 64

    def __post_init__(self) -> None:
        if self.warp_size < 1:
            raise ValueError("warp_size must be >= 1")
        if self.cta_size < self.warp_size:
            raise ValueError("cta_size must be at least warp_size")

    # -- memory capacity ------------------------------------------------------

    def check_fits(self, required_bytes: int, what: str = "graph data") -> None:
        """Raise :class:`GPUOutOfMemoryError` if ``required_bytes`` exceeds capacity."""
        if self.device_memory_bytes is None:
            return
        if required_bytes > self.device_memory_bytes:
            raise GPUOutOfMemoryError(required_bytes, self.device_memory_bytes, what)

    # -- execution-state factories ---------------------------------------------

    def new_metrics(self) -> KernelMetrics:
        """A fresh counter set for one traversal run."""
        return KernelMetrics()

    def new_warp(self, metrics: KernelMetrics) -> Warp:
        """A warp wired to ``metrics`` and a matching device-memory model."""
        memory = DeviceMemory(metrics, cache_line_bytes=self.cache_line_bytes)
        return Warp(self.warp_size, metrics=metrics, memory=memory)

    def cost(self, metrics: KernelMetrics) -> float:
        """Blend ``metrics`` into the scalar total-work cost."""
        return self.cost_model.cost(metrics)

    def elapsed_proxy(self, metrics: KernelMetrics) -> float:
        """Total-work cost divided by the device's warp-level parallelism.

        This is the quantity the benchmark figures plot in place of the
        paper's milliseconds when comparing against CPU baselines.
        """
        return self.cost_model.cost(metrics) / max(1, self.concurrent_warps)
