"""Tests for frontier queues, cursors, node plans and the expand context."""

import pytest

from repro.compression.cgr import CGRConfig, encode_graph
from repro.gpu.metrics import KernelMetrics
from repro.gpu.warp import Warp
from repro.traversal.context import ExpandContext, build_node_plan
from repro.traversal.cursor import CGRCursor
from repro.traversal.frontier import FrontierQueue
from repro.traversal.strategy import residual_columns


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


class TestResidualColumns:
    def test_segments_concatenate_in_segment_order(self, skewed_graph):
        cgr = encode_graph(skewed_graph.adjacency(), CGRConfig(residual_segment_bits=128))
        hub = max(range(skewed_graph.num_nodes), key=skewed_graph.out_degree)
        plan = build_node_plan(cgr, hub)
        segments = [s for s in plan.residual_segments if s.count > 0]
        assert len(segments) > 1
        ids, starts, bits = residual_columns(plan)
        assert list(ids) == [i for s in segments for i in s.ids]
        assert list(starts) == [i for s in segments for i in s.starts]
        assert list(bits) == [i for s in segments for i in s.bits]
        assert all(num_bits > 0 for num_bits in bits)
        assert sorted(ids) == sorted(cgr.layout(hub).residuals)

    def test_single_segment_returns_its_own_columns(self, web_graph):
        cgr = encode_graph(web_graph.adjacency(), CGRConfig(residual_segment_bits=None))
        node = max(range(web_graph.num_nodes), key=lambda n: cgr.layout(n).residual_count)
        plan = build_node_plan(cgr, node)
        (only,) = [s for s in plan.residual_segments if s.count > 0]
        ids, starts, bits = residual_columns(plan)
        assert ids is only.ids and starts is only.starts and bits is only.bits

    def test_node_without_residuals_has_empty_columns(self, tiny_graph):
        cgr = encode_graph(tiny_graph.adjacency())
        plan = build_node_plan(cgr, 3)  # node 3 has no neighbours
        assert [len(column) for column in residual_columns(plan)] == [0, 0, 0]


class TestExpandContext:
    def make_ctx(self, graph, warp_size=4, filter_fn=None):
        cgr = encode_graph(graph.adjacency())
        metrics = KernelMetrics()
        warp = Warp(warp_size, metrics=metrics)
        out = FrontierQueue()
        ctx = ExpandContext(cgr, warp, filter_fn or (lambda u, v: True), out)
        return ctx, metrics, out

    def test_handle_appends_qualified_neighbors(self, tiny_graph):
        seen = set()

        def visit_once(u, v):
            if v in seen:
                return False
            seen.add(v)
            return True

        ctx, metrics, out = self.make_ctx(tiny_graph, filter_fn=visit_once)
        appended = ctx.handle([(0, 1), (0, 3), (0, 1)])
        assert appended == 2
        assert sorted(out.pending) == [1, 3]
        assert metrics.instruction_rounds == 1
        assert metrics.idle_lane_slots == 1
        assert metrics.atomic_operations == 1

    def test_handle_of_no_pairs_is_free(self, tiny_graph):
        ctx, metrics, _ = self.make_ctx(tiny_graph)
        assert ctx.handle([]) == 0
        assert metrics.instruction_rounds == 0
        assert metrics.memory_transactions == 0

    def test_handle_rejects_more_pairs_than_lanes(self, tiny_graph):
        ctx, _, _ = self.make_ctx(tiny_graph, warp_size=2)
        with pytest.raises(ValueError):
            ctx.handle([(0, 1), (0, 2), (0, 3)])

    def test_decode_rounds_charge_rounds_by_code_length(self, tiny_graph):
        ctx, metrics, _ = self.make_ctx(tiny_graph)
        ctx.decode_rounds([(0,), (5,)], [(20,), (4,)])
        # 20 bits at 8 bits/round -> 3 rounds, all with 2 active lanes.
        assert metrics.instruction_rounds == 3
        assert metrics.idle_lane_slots == 3 * 2

    def test_decode_rounds_idle_exhausted_lanes(self, tiny_graph):
        ctx, metrics, _ = self.make_ctx(tiny_graph)
        # Round 0: both lanes (1 round); rounds 1-2: only the first lane.
        ctx.decode_rounds([(0, 8, 16), (), (40,)], [(8, 8, 8), (), (8,)])
        assert metrics.instruction_rounds == 3
        assert metrics.active_lane_slots == 2 + 1 + 1
        assert metrics.idle_lane_slots == 2 + 3 + 3

    def test_decode_rounds_range_charges_only_its_rounds(self, tiny_graph):
        ctx, metrics, _ = self.make_ctx(tiny_graph)
        ctx.decode_rounds([(0, 8, 16), (40,)], [(8, 8, 24), (8,)], 1, 2)
        assert metrics.instruction_rounds == 1
        assert metrics.active_lane_slots == 1

    def test_decode_rounds_rejects_more_lanes_than_warp(self, tiny_graph):
        ctx, _, _ = self.make_ctx(tiny_graph, warp_size=2)
        with pytest.raises(ValueError):
            ctx.decode_rounds([(0,), (8,), (16,)], [(8,), (8,), (8,)])

    def test_frontier_load_step(self, tiny_graph):
        ctx, metrics, _ = self.make_ctx(tiny_graph)
        ctx.frontier_load_step([0, 1, 2])
        assert metrics.instruction_rounds == 1
        assert metrics.memory_transactions >= 1
