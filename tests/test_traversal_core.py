"""Tests for frontier queues, cursors, node plans and the expand context."""

import pytest

from repro.compression.cgr import CGRConfig, encode_graph
from repro.gpu.metrics import KernelMetrics
from repro.gpu.warp import Warp
from repro.traversal.context import ExpandContext, build_node_plan
from repro.traversal.cursor import CGRCursor
from repro.traversal.frontier import FrontierQueue
from repro.traversal.strategy import LaneResidualState


class TestFrontierQueue:
    def test_ping_pong_swap(self):
        queue = FrontierQueue([1, 2, 3])
        queue.append(4)
        queue.extend([5, 6])
        assert list(queue) == [1, 2, 3]
        queue.swap()
        assert list(queue) == [4, 5, 6]
        assert queue.pending == []

    def test_chunks(self):
        queue = FrontierQueue(list(range(7)))
        assert list(queue.chunks(3)) == [[0, 1, 2], [3, 4, 5], [6]]
        with pytest.raises(ValueError):
            list(queue.chunks(0))

    def test_bool_and_len(self):
        queue = FrontierQueue()
        assert not queue and len(queue) == 0
        queue.reset([9])
        assert queue and len(queue) == 1


class TestCursor:
    def test_decode_num_matches_scheme(self, tiny_graph):
        cgr = encode_graph(tiny_graph.adjacency(), CGRConfig(residual_segment_bits=None))
        cursor = CGRCursor.at_node(cgr, 0)
        degree, bits = cursor.decode_num()
        assert degree == tiny_graph.out_degree(0)
        assert bits > 0
        assert cursor.position == int(cgr.offsets[0]) + bits

    def test_fork_is_independent(self, tiny_graph):
        cgr = encode_graph(tiny_graph.adjacency())
        cursor = CGRCursor.at_node(cgr, 0)
        fork = cursor.fork_at(cursor.position)
        fork.decode_num()
        assert cursor.position != fork.position


class TestNodePlan:
    def test_plan_matches_layout_unsegmented(self, web_graph):
        cgr = encode_graph(web_graph.adjacency(), CGRConfig(residual_segment_bits=None))
        for node in range(0, web_graph.num_nodes, 23):
            plan = build_node_plan(cgr, node)
            layout = cgr.layout(node)
            assert plan.degree == layout.degree
            assert plan.intervals == layout.intervals
            assert plan.residual_count == layout.residual_count
            assert len(plan.residual_segments) <= 1

    def test_plan_matches_layout_segmented(self, skewed_graph):
        cgr = encode_graph(skewed_graph.adjacency(), CGRConfig(residual_segment_bits=128))
        for node in range(0, skewed_graph.num_nodes, 17):
            plan = build_node_plan(cgr, node)
            layout = cgr.layout(node)
            assert plan.degree == layout.degree
            assert [s.count for s in plan.residual_segments if s.count] == [
                c for c in layout.segment_counts if c
            ] or plan.residual_count == layout.residual_count

    def test_interval_descriptor_ranges_parallel_to_intervals(self, web_graph):
        cgr = encode_graph(web_graph.adjacency())
        for node in range(0, web_graph.num_nodes, 31):
            plan = build_node_plan(cgr, node)
            assert len(plan.interval_descriptor_bits) == len(plan.intervals)


class TestLaneResidualState:
    def test_decodes_all_residuals_in_order(self, skewed_graph):
        cgr = encode_graph(skewed_graph.adjacency(), CGRConfig(residual_segment_bits=128))
        hub = max(range(skewed_graph.num_nodes), key=skewed_graph.out_degree)
        plan = build_node_plan(cgr, hub)
        state = LaneResidualState.from_plan(plan)
        decoded = []
        while state.remaining > 0:
            neighbor, bit_range = state.decode_next()
            decoded.append(neighbor)
            assert bit_range[1] > 0
        layout = cgr.layout(hub)
        assert sorted(decoded) == sorted(layout.residuals)

    def test_decode_next_raises_when_exhausted(self, tiny_graph):
        cgr = encode_graph(tiny_graph.adjacency())
        plan = build_node_plan(cgr, 3)  # node 3 has no neighbours
        state = LaneResidualState.from_plan(plan)
        assert state.remaining == 0
        with pytest.raises(RuntimeError):
            state.decode_next()


class TestExpandContext:
    def make_ctx(self, graph, warp_size=4, filter_fn=None):
        cgr = encode_graph(graph.adjacency())
        metrics = KernelMetrics()
        warp = Warp(warp_size, metrics=metrics)
        out = FrontierQueue()
        ctx = ExpandContext(cgr, warp, filter_fn or (lambda u, v: True), out)
        return ctx, metrics, out

    def test_handle_step_appends_qualified_neighbors(self, tiny_graph):
        seen = set()

        def visit_once(u, v):
            if v in seen:
                return False
            seen.add(v)
            return True

        ctx, metrics, out = self.make_ctx(tiny_graph, filter_fn=visit_once)
        appended = ctx.handle_step([(0, 1), (0, 3), (0, 1), None])
        assert appended == 2
        assert sorted(out.pending) == [1, 3]
        assert metrics.instruction_rounds == 1
        assert metrics.atomic_operations == 1

    def test_handle_step_with_all_idle_lanes_is_free(self, tiny_graph):
        ctx, metrics, _ = self.make_ctx(tiny_graph)
        assert ctx.handle_step([None, None, None, None]) == 0
        assert metrics.instruction_rounds == 0

    def test_decode_step_charges_rounds_by_code_length(self, tiny_graph):
        ctx, metrics, _ = self.make_ctx(tiny_graph)
        ctx.decode_step([(0, 20), None, (5, 4), None])
        # 20 bits at 8 bits/round -> 3 rounds, all with 2 active lanes.
        assert metrics.instruction_rounds == 3
        assert metrics.idle_lane_slots == 3 * 2

    def test_frontier_load_step(self, tiny_graph):
        ctx, metrics, _ = self.make_ctx(tiny_graph)
        ctx.frontier_load_step([0, 1, 2])
        assert metrics.instruction_rounds == 1
        assert metrics.memory_transactions >= 1

    def test_pad_to_warp_validates_length(self, tiny_graph):
        ctx, _, _ = self.make_ctx(tiny_graph, warp_size=2)
        assert ctx.pad_to_warp([1]) == [1, None]
        with pytest.raises(ValueError):
            ctx.pad_to_warp([1, 2, 3])
