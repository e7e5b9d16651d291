"""Tests for the SIMT simulator: metrics, memory model, warp primitives, device."""

import pytest

from repro.gpu.device import GPUDevice, GPUOutOfMemoryError
from repro.gpu.memory import DeviceMemory
from repro.gpu.metrics import CostModel, KernelMetrics
from repro.gpu.warp import Warp


class TestKernelMetrics:
    def test_record_round_counts_active_and_idle(self):
        metrics = KernelMetrics()
        metrics.record_round(active_lanes=5, total_lanes=8)
        metrics.record_round(active_lanes=8, total_lanes=8)
        assert metrics.instruction_rounds == 2
        assert metrics.active_lane_slots == 13
        assert metrics.idle_lane_slots == 3
        assert metrics.lane_utilization == pytest.approx(13 / 16)

    def test_record_round_validates_bounds(self):
        metrics = KernelMetrics()
        with pytest.raises(ValueError):
            metrics.record_round(active_lanes=9, total_lanes=8)

    def test_merge_accumulates(self):
        a, b = KernelMetrics(), KernelMetrics()
        a.record_round(2, 4)
        b.record_round(4, 4)
        b.memory_transactions = 7
        a.merge(b)
        assert a.instruction_rounds == 2
        assert a.memory_transactions == 7

    def test_cost_uses_model_weights(self):
        metrics = KernelMetrics(instruction_rounds=10, memory_transactions=5)
        model = CostModel(instruction_round_cost=1.0, memory_transaction_cost=2.0,
                          atomic_cost=0.0, shared_memory_cost=0.0)
        assert metrics.cost(model) == 20.0

    def test_as_dict_contains_all_counters(self):
        keys = KernelMetrics().as_dict()
        for name in ("instruction_rounds", "memory_transactions", "lane_utilization", "cost"):
            assert name in keys

    def test_empty_metrics_utilization_is_one(self):
        assert KernelMetrics().lane_utilization == 1.0


class TestDeviceMemory:
    def make(self, cache_lines=0):
        metrics = KernelMetrics()
        return metrics, DeviceMemory(metrics, cache_lines=cache_lines)

    def test_coalesced_words_are_one_transaction(self):
        metrics, memory = self.make()
        memory.access_words(range(32))  # 32 words of 4 bytes = one 128-byte line
        assert metrics.memory_transactions == 1
        assert metrics.memory_words == 32

    def test_scattered_words_cost_one_transaction_each(self):
        metrics, memory = self.make()
        memory.access_words([0, 1000, 2000, 3000])
        assert metrics.memory_transactions == 4

    def test_bit_range_spanning_lines(self):
        metrics, memory = self.make()
        memory.access_bit_range(1000, 200)  # crosses the 1024-bit boundary
        assert metrics.memory_transactions == 2

    def test_bit_ranges_from_lanes_coalesce(self):
        metrics, memory = self.make()
        memory.access_bit_ranges([(0, 10), (20, 10), (40, 10)])
        assert metrics.memory_transactions == 1

    def test_cache_avoids_recharging_hot_lines(self):
        metrics, memory = self.make(cache_lines=16)
        memory.access_words([0, 1, 2])
        memory.access_words([3, 4, 5])  # same line, already cached
        assert metrics.memory_transactions == 1

    def test_cache_namespaces_do_not_alias(self):
        metrics, memory = self.make(cache_lines=16)
        memory.access_words([0], space="labels")
        memory.access_words([0], space="frontier")
        assert metrics.memory_transactions == 2

    def test_cache_evicts_fifo(self):
        metrics, memory = self.make(cache_lines=1)
        memory.access_words([0])
        memory.access_words([1000])
        memory.access_words([0])  # evicted, charged again
        assert metrics.memory_transactions == 3

    def test_atomic_and_shared_counters(self):
        metrics, memory = self.make()
        memory.atomic_add(3)
        memory.shared_access(5)
        assert metrics.atomic_operations == 3
        assert metrics.shared_memory_accesses == 5

    def test_empty_access_is_free(self):
        metrics, memory = self.make()
        assert memory.access_words([]) == 0
        assert metrics.memory_transactions == 0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            DeviceMemory(KernelMetrics(), cache_line_bytes=0)


class TestWarp:
    def test_step_records_into_metrics(self):
        metrics = KernelMetrics()
        warp = Warp(8, metrics=metrics)
        warp.step(active_lanes=3)
        assert metrics.instruction_rounds == 1
        assert metrics.idle_lane_slots == 5

    def test_step_rounds_matches_repeated_steps(self):
        bulk, single = KernelMetrics(), KernelMetrics()
        Warp(8, metrics=bulk).step_rounds(active_lanes=3, rounds=4)
        warp = Warp(8, metrics=single)
        for _ in range(4):
            warp.step(active_lanes=3)
        assert bulk == single
        assert bulk.instruction_rounds == 4
        assert bulk.active_lane_slots == 12
        assert bulk.idle_lane_slots == 20

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Warp(0)


class TestGPUDevice:
    def test_defaults_are_titan_v_like(self):
        device = GPUDevice()
        assert device.warp_size == 32
        assert device.cta_size >= device.warp_size

    def test_check_fits_raises_oom(self):
        device = GPUDevice(device_memory_bytes=100)
        with pytest.raises(GPUOutOfMemoryError):
            device.check_fits(200, what="test data")
        device.check_fits(50)

    def test_unlimited_memory_never_ooms(self):
        GPUDevice(device_memory_bytes=None).check_fits(10**15)

    def test_new_warp_shares_metrics(self):
        device = GPUDevice(warp_size=8)
        metrics = device.new_metrics()
        warp = device.new_warp(metrics)
        warp.step(4)
        assert metrics.instruction_rounds == 1

    def test_elapsed_proxy_divides_by_parallelism(self):
        device = GPUDevice(concurrent_warps=10)
        metrics = KernelMetrics(instruction_rounds=100)
        assert device.elapsed_proxy(metrics) == pytest.approx(device.cost(metrics) / 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            GPUDevice(warp_size=0)
        with pytest.raises(ValueError):
            GPUDevice(warp_size=32, cta_size=16)
