"""Execution counters and the cost model used as the elapsed-time proxy.

Wall-clock time on a real GPU is dominated by (i) the number of lock-step
instruction rounds the warps execute (including rounds where some lanes are
idle because of divergence) and (ii) the number of device-memory transactions
the access pattern generates.  The simulator counts both, plus a few secondary
quantities, and blends them into a single scalar with :class:`CostModel` so
benchmark figures can be plotted on one axis just like the paper's
milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Weights turning raw counters into one scalar cost.

    The defaults weigh a device-memory transaction much heavier than an
    instruction round, reflecting that graph traversal on GPUs is memory
    bound (Section 1 of the paper); atomics and shared-memory traffic carry
    small extra charges.  The ablation benchmark
    ``benchmarks/test_ablation_cost_model.py`` verifies the paper-level
    conclusions are not sensitive to the exact weights.
    """

    instruction_round_cost: float = 1.0
    memory_transaction_cost: float = 4.0
    atomic_cost: float = 2.0
    shared_memory_cost: float = 0.02

    def cost(self, metrics: "KernelMetrics") -> float:
        """Blend a metrics object into a single scalar."""
        return (
            self.instruction_round_cost * metrics.instruction_rounds
            + self.memory_transaction_cost * metrics.memory_transactions
            + self.atomic_cost * metrics.atomic_operations
            + self.shared_memory_cost * metrics.shared_memory_accesses
        )


@dataclass
class KernelMetrics:
    """Counters accumulated while simulating one or more kernel launches."""

    #: Lock-step rounds executed by warps (the "steps" of Figure 4).
    instruction_rounds: int = 0
    #: Lane-slots that did useful work across all rounds.
    active_lane_slots: int = 0
    #: Lane-slots left idle by divergence or load imbalance.
    idle_lane_slots: int = 0
    #: Coalesced device-memory transactions (128-byte cache lines).
    memory_transactions: int = 0
    #: Raw words requested from device memory (before coalescing).
    memory_words: int = 0
    #: Atomic operations on global memory (frontier queue allocation).
    atomic_operations: int = 0
    #: Shared-memory reads/writes (task stealing, interval buffers, scans).
    shared_memory_accesses: int = 0
    #: Number of kernel launches / traversal iterations merged in.
    launches: int = 0

    def record_round(self, active_lanes: int, total_lanes: int) -> None:
        """Account one lock-step round with ``active_lanes`` lanes doing work."""
        self.record_rounds(active_lanes, total_lanes, 1)

    def record_rounds(
        self, active_lanes: int, total_lanes: int, rounds: int
    ) -> None:
        """Account ``rounds`` identical lock-step rounds in one update.

        Bulk form of :meth:`record_round` for the hot decode loops, keeping
        the per-round accounting in a single place.
        """
        if active_lanes < 0 or active_lanes > total_lanes:
            raise ValueError(
                f"active_lanes {active_lanes} outside [0, {total_lanes}]"
            )
        if rounds <= 0:
            return
        self.instruction_rounds += rounds
        self.active_lane_slots += active_lanes * rounds
        self.idle_lane_slots += (total_lanes - active_lanes) * rounds

    def merge(self, other: "KernelMetrics") -> None:
        """Accumulate another metrics object into this one."""
        self.instruction_rounds += other.instruction_rounds
        self.active_lane_slots += other.active_lane_slots
        self.idle_lane_slots += other.idle_lane_slots
        self.memory_transactions += other.memory_transactions
        self.memory_words += other.memory_words
        self.atomic_operations += other.atomic_operations
        self.shared_memory_accesses += other.shared_memory_accesses
        self.launches += other.launches

    @property
    def lane_utilization(self) -> float:
        """Fraction of lane-slots that did useful work (1.0 = no divergence)."""
        total = self.active_lane_slots + self.idle_lane_slots
        if total == 0:
            return 1.0
        return self.active_lane_slots / total

    def cost(self, model: CostModel | None = None) -> float:
        """Scalar cost under ``model`` (default weights when omitted)."""
        return (model or CostModel()).cost(self)

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary view, convenient for reporting tables."""
        return {
            "instruction_rounds": self.instruction_rounds,
            "active_lane_slots": self.active_lane_slots,
            "idle_lane_slots": self.idle_lane_slots,
            "lane_utilization": self.lane_utilization,
            "memory_transactions": self.memory_transactions,
            "memory_words": self.memory_words,
            "atomic_operations": self.atomic_operations,
            "shared_memory_accesses": self.shared_memory_accesses,
            "launches": self.launches,
            "cost": self.cost(),
        }
