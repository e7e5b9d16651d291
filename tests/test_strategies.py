"""Correctness tests for every expansion strategy (Algorithms 1-3, 5.1, 5.2).

The single most important invariant of the reproduction: no matter which
scheduling strategy decodes the compressed adjacency lists, the set of
neighbours delivered to the filter -- and therefore every application result --
must be identical to the uncompressed adjacency.
"""

import numpy as np
import pytest

from repro.apps.bfs import bfs, reference_bfs_levels
from repro.compression.cgr import CGRConfig, encode_graph
from repro.compression.intervals import Interval
from repro.gpu.device import GPUDevice
from repro.gpu.metrics import KernelMetrics
from repro.gpu.warp import Warp
from repro.traversal.bfs_basic import IntuitiveStrategy, build_lane_ops
from repro.traversal.context import ExpandContext, build_node_plan
from repro.traversal.frontier import FrontierQueue
from repro.traversal.gcgt import GCGTConfig, GCGTEngine, STRATEGY_LADDER
from repro.traversal.segmented import ResidualSegmentationStrategy
from repro.traversal.task_stealing import TaskStealingStrategy
from repro.traversal.two_phase import TwoPhaseStrategy
from repro.traversal.warp_decode import WarpCentricStrategy

ALL_STRATEGIES = [
    IntuitiveStrategy(),
    TwoPhaseStrategy(),
    TaskStealingStrategy(),
    WarpCentricStrategy(),
    WarpCentricStrategy(long_residual_threshold=8),
    ResidualSegmentationStrategy(),
]


def expand_with_strategy(strategy, graph, frontier, warp_size=8, segmented=True):
    """Run one expansion over ``frontier`` and collect every delivered neighbour."""
    config = CGRConfig(residual_segment_bits=128 if segmented else None)
    cgr = encode_graph(graph.adjacency(), config)
    metrics = KernelMetrics()
    warp = Warp(warp_size, metrics=metrics)
    delivered = []

    def record_all(u, v):
        delivered.append((u, v))
        return False

    out = FrontierQueue()
    ctx = ExpandContext(cgr, warp, record_all, out)
    for begin in range(0, len(frontier), warp_size):
        strategy.expand_chunk(ctx, frontier[begin:begin + warp_size])
    return delivered, metrics


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name + str(id(s) % 7))
@pytest.mark.parametrize("fixture_name", ["web_graph", "skewed_graph", "dense_graph"])
def test_every_strategy_delivers_exact_neighbour_multiset(strategy, fixture_name, request):
    graph = request.getfixturevalue(fixture_name)
    frontier = list(range(0, graph.num_nodes, 3))
    delivered, _ = expand_with_strategy(strategy, graph, frontier)
    expected = []
    for node in frontier:
        expected.extend((node, v) for v in graph.neighbors(node))
    assert sorted(delivered) == sorted(expected)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name + str(id(s) % 7))
def test_every_strategy_handles_empty_and_isolated_frontiers(strategy, tiny_graph):
    delivered, _ = expand_with_strategy(strategy, tiny_graph, [3, 4, 7], warp_size=4)
    assert delivered == []


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name + str(id(s) % 7))
def test_strategies_work_with_unsegmented_encoding(strategy, skewed_graph):
    frontier = list(range(0, skewed_graph.num_nodes, 5))
    delivered, _ = expand_with_strategy(
        strategy, skewed_graph, frontier, segmented=False
    )
    expected = []
    for node in frontier:
        expected.extend((node, v) for v in skewed_graph.neighbors(node))
    assert sorted(delivered) == sorted(expected)


def test_two_phase_uses_fewer_rounds_than_intuitive_on_interval_heavy_graph(web_graph):
    frontier = list(range(0, web_graph.num_nodes, 2))
    _, intuitive = expand_with_strategy(IntuitiveStrategy(), web_graph, frontier)
    _, two_phase = expand_with_strategy(TwoPhaseStrategy(), web_graph, frontier)
    assert two_phase.instruction_rounds < intuitive.instruction_rounds


def test_two_phase_interval_expansion_charges_shfl_per_slice_and_one_scan(tiny_graph):
    metrics = KernelMetrics()
    out = FrontierQueue()
    ctx = ExpandContext(
        encode_graph(tiny_graph.adjacency()), Warp(4, metrics=metrics),
        lambda u, v: True, out,
    )
    # Lane 0: two warp-width slices under the leader, one leftover.
    # Lane 1: shorter than a warp, two leftovers.
    TwoPhaseStrategy()._expand_intervals(ctx, [(0, Interval(10, 9)), (1, Interval(20, 2))])
    assert out.pending == list(range(10, 19)) + [20, 21]
    assert metrics.instruction_rounds == 3
    assert metrics.active_lane_slots == 4 + 4 + 3
    assert metrics.idle_lane_slots == 1
    # Stage 1: one shfl per slice + one label exchange per lane of each slice.
    # Stage 2: a warp-wide scan, one buffer access per leftover, then the
    # leftover round's label exchange.
    assert metrics.shared_memory_accesses == (2 + 2 * 4) + (4 + 3 + 3)


def test_task_stealing_reduces_rounds_on_skewed_residuals(skewed_graph):
    frontier = list(range(0, skewed_graph.num_nodes, 2))
    _, two_phase = expand_with_strategy(TwoPhaseStrategy(), skewed_graph, frontier)
    _, stealing = expand_with_strategy(TaskStealingStrategy(), skewed_graph, frontier)
    assert stealing.instruction_rounds <= two_phase.instruction_rounds


def test_residual_segmentation_helps_on_super_node_graph(skewed_graph):
    frontier = list(range(0, skewed_graph.num_nodes, 2))
    _, stealing = expand_with_strategy(TaskStealingStrategy(), skewed_graph, frontier)
    _, segmented = expand_with_strategy(ResidualSegmentationStrategy(), skewed_graph, frontier)
    assert segmented.instruction_rounds <= stealing.instruction_rounds * 1.1


class TestIntuitiveOpStream:
    def test_op_stream_contains_one_handle_per_neighbour(self, web_graph):
        cgr = encode_graph(web_graph.adjacency())
        warp = Warp(8)
        ctx = ExpandContext(cgr, warp, lambda u, v: True, FrontierQueue())
        node = max(range(web_graph.num_nodes), key=web_graph.out_degree)
        plan = build_node_plan(cgr, node)
        ops = build_lane_ops(ctx, plan)
        handles = [op for op in ops if op.kind == "handle"]
        assert len(handles) == web_graph.out_degree(node)
        assert sorted(op.pair[1] for op in handles) == web_graph.neighbors(node)


class TestEngineAcrossConfigurations:
    @pytest.mark.parametrize("name", list(STRATEGY_LADDER))
    def test_bfs_levels_match_reference_for_every_ladder_step(self, name, web_graph):
        config = STRATEGY_LADDER[name]
        engine = GCGTEngine.from_graph(web_graph, config)
        result = bfs(engine, 0)
        assert np.array_equal(result.levels, reference_bfs_levels(web_graph.adjacency(), 0))

    def test_warp_size_does_not_change_results(self, skewed_graph):
        reference = reference_bfs_levels(skewed_graph.adjacency(), 1)
        for warp_size in (4, 8, 16, 32):
            engine = GCGTEngine.from_graph(
                skewed_graph, GCGTConfig(), device=GPUDevice(warp_size=warp_size, cta_size=warp_size)
            )
            assert np.array_equal(bfs(engine, 1).levels, reference)

    def test_strategy_ladder_names_match_configs(self):
        for name, config in STRATEGY_LADDER.items():
            assert config.strategy_name == name
