"""A deterministic SIMT (GPU) execution model.

The paper's contribution is a *scheduling* scheme for SIMT hardware: what
matters for its claims is how many lock-step instruction rounds a warp needs,
how many lane-slots sit idle because of divergence or load imbalance, and how
many device-memory transactions the access pattern generates (its Figure 4
literally counts these quantities).  Since this reproduction runs on CPUs, the
``repro.gpu`` package provides those semantics as a simulator:

* :class:`~repro.gpu.warp.Warp` -- a group of lock-step lanes and their
  round accounting (the kernels charge the warp primitives' shared-memory
  cost where the pseudo-code calls them);
* :class:`~repro.gpu.memory.DeviceMemory` -- a device-memory model that counts
  coalesced 128-byte transactions for word and bit-stream accesses;
* :class:`~repro.gpu.metrics.KernelMetrics` -- the counters and the blended
  cost model used as the elapsed-time proxy in every figure;
* :class:`~repro.gpu.device.GPUDevice` -- the container tying warp size,
  memory capacity and cost weights together, including out-of-memory checks.
"""

from repro.gpu.metrics import CostModel, KernelMetrics
from repro.gpu.memory import DeviceMemory
from repro.gpu.warp import Warp
from repro.gpu.device import GPUDevice, GPUOutOfMemoryError

__all__ = [
    "CostModel",
    "KernelMetrics",
    "DeviceMemory",
    "Warp",
    "GPUDevice",
    "GPUOutOfMemoryError",
]
