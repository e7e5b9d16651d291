"""Bit-parallel multi-source BFS (MS-BFS) differential and metric tests.

The contract under test: a lane-packed sweep -- in-process
(:func:`repro.traversal.msbfs.msbfs`), superstep-native sharded
(:meth:`repro.shard.executor.ShardExecutor.msbfs`) or routed through
:meth:`repro.service.TraversalService.submit` grouping -- produces, for
every lane, levels and iteration counts **bit-identical** to a sequential
:func:`repro.apps.bfs.bfs` from that lane's source, across graph families,
strategy-ladder rungs and shard counts; and the shared sweep's serving
metrics are attributed per lane without inventing or losing counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.bfs import bfs
from repro.dynamic.updates import EdgeUpdate
from repro.service import BFSQuery, CCQuery, TraversalService
from repro.shard.executor import ShardExecutor
from repro.shard.sharded import ShardedCGRGraph
from repro.traversal.gcgt import GCGTEngine, STRATEGY_LADDER
from repro.traversal.msbfs import LANE_WIDTH, msbfs

#: Sources exercising hubs, tails and (per family) unreachable pockets.
BATCH = (0, 3, 3, 17, 59, 120, 199)

GRAPH_FIXTURES = ("web_graph", "skewed_graph", "dense_graph")


def _sequential(graph, sources, config=None):
    """Ground truth: one fresh-engine sequential BFS per distinct source."""
    results = {}
    for source in set(sources):
        engine = GCGTEngine.from_graph(graph, config=config)
        results[source] = bfs(engine, source)
    return results


def _assert_lanes_match(result, sources, reference):
    for lane, source in enumerate(sources):
        extracted = result.result_for(lane)
        expected = reference[source]
        assert extracted.source == source
        np.testing.assert_array_equal(extracted.levels, expected.levels)
        assert extracted.iterations == expected.iterations


# ---------------------------------------------------------------------------
# In-process sweep: families x strategy-ladder rungs
# ---------------------------------------------------------------------------

class TestInProcessDifferential:
    @pytest.mark.parametrize("fixture_name", GRAPH_FIXTURES)
    @pytest.mark.parametrize("rung", sorted(STRATEGY_LADDER))
    def test_lanes_bit_identical_across_families_and_rungs(
        self, fixture_name, rung, request
    ):
        graph = request.getfixturevalue(fixture_name)
        config = STRATEGY_LADDER[rung]
        engine = GCGTEngine.from_graph(graph, config=config)
        result = msbfs(engine, BATCH)
        _assert_lanes_match(
            result, BATCH, _sequential(graph, BATCH, config=config)
        )

    def test_duplicate_sources_get_identical_independent_lanes(self, web_graph):
        sources = (5, 5, 5, 9)
        result = msbfs(GCGTEngine.from_graph(web_graph), sources)
        np.testing.assert_array_equal(
            result.lane_levels[0], result.lane_levels[1]
        )
        first, second = result.result_for(0), result.result_for(1)
        # Extracted rows are copies: mutating one lane leaves its twin alone.
        first.levels[0] = -7
        assert second.levels[0] != -7

    def test_sweeps_bounded_by_deepest_lane_not_sum(self, web_graph):
        engine = GCGTEngine.from_graph(web_graph)
        result = msbfs(engine, BATCH)
        assert result.sweeps == max(result.lane_iterations)
        assert result.sweeps < sum(result.lane_iterations)

    def test_validation_errors(self, web_graph):
        engine = GCGTEngine.from_graph(web_graph)
        with pytest.raises(ValueError):
            msbfs(engine, [])
        with pytest.raises(ValueError):
            msbfs(engine, list(range(LANE_WIDTH + 1)))
        with pytest.raises(IndexError):
            msbfs(engine, [0, web_graph.num_nodes])
        with pytest.raises(IndexError):
            msbfs(engine, [0, -1])
        result = msbfs(engine, [0, 1])
        with pytest.raises(IndexError):
            result.result_for(2)
        with pytest.raises(IndexError):
            result.result_for(-1)


# ---------------------------------------------------------------------------
# Superstep-native sharded sweep
# ---------------------------------------------------------------------------

class TestShardedDifferential:
    @pytest.mark.parametrize("fixture_name", GRAPH_FIXTURES)
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_lanes_bit_identical_across_shard_counts(
        self, fixture_name, shards, request
    ):
        graph = request.getfixturevalue(fixture_name)
        sharded = ShardedCGRGraph.from_graph(graph, shards)
        with ShardExecutor(sharded) as executor:
            result = executor.msbfs(BATCH)
        _assert_lanes_match(result, BATCH, _sequential(graph, BATCH))

    def test_exchange_carries_masks_not_per_lane_messages(self, web_graph):
        # The lane-packed exchange for a full-width batch must cost far less
        # than 64 sequential per-source exchanges: messages carry masks.
        sharded = ShardedCGRGraph.from_graph(web_graph, 4)
        sources = list(range(LANE_WIDTH))
        with ShardExecutor(sharded) as packed:
            packed.msbfs(sources)
            packed_exchange = packed.exchange_volume
        with ShardExecutor(ShardedCGRGraph.from_graph(web_graph, 4)) as seq:
            for source in sources:
                seq.bfs(source)
            sequential_exchange = seq.exchange_volume
        assert packed_exchange < sequential_exchange / 4

    def test_validation_errors(self, web_graph):
        with ShardExecutor(ShardedCGRGraph.from_graph(web_graph, 2)) as ex:
            with pytest.raises(ValueError):
                ex.msbfs([])
            with pytest.raises(ValueError):
                ex.msbfs(list(range(LANE_WIDTH + 1)))
            with pytest.raises(IndexError):
                ex.msbfs([web_graph.num_nodes])


# ---------------------------------------------------------------------------
# Service routing: grouping, lane spill, per-lane metrics, epoch pinning
# ---------------------------------------------------------------------------

class TestServiceBatching:
    @pytest.fixture()
    def service(self, web_graph):
        with TraversalService() as service:
            service.register_graph("web", web_graph)
            yield service

    @pytest.mark.parametrize("size", [1, 63, 64, 65])
    def test_batch_sizes_including_lane_spill(self, service, web_graph, size):
        sources = [(7 * index) % web_graph.num_nodes for index in range(size)]
        reference = _sequential(web_graph, sources)
        results = service.submit([BFSQuery("web", s) for s in sources])
        assert len(results) == size
        for source, result in zip(sources, results):
            np.testing.assert_array_equal(
                result.value.levels, reference[source].levels
            )
            assert result.value.iterations == reference[source].iterations
        lanes = [r.metrics.batch_lanes for r in results]
        if size == 1:
            assert lanes == [1]
        elif size <= LANE_WIDTH:
            assert lanes == [size] * size
            assert [r.metrics.batch_lane for r in results] == list(range(size))
        else:
            # Spill: one full sweep plus a remainder sweep, in order.
            assert lanes == [LANE_WIDTH] * LANE_WIDTH + [size - LANE_WIDTH] * (
                size - LANE_WIDTH
            )
            assert results[LANE_WIDTH].metrics.batch_lane == 0

    def test_grouping_skips_interleaved_other_queries(self, service):
        results = service.submit(
            [BFSQuery("web", 0), CCQuery("web"), BFSQuery("web", 9)]
        )
        assert [r.kind for r in results] == ["bfs", "cc", "bfs"]
        assert results[0].metrics.batch_lanes == 2
        assert results[2].metrics.batch_lanes == 2
        assert results[2].metrics.batch_lane == 1

    def test_lane_metrics_sum_to_sweep_totals(self, service, web_graph):
        queries = [BFSQuery("web", s) for s in (0, 9, 44, 150)]
        stats_before = service.stats()
        results = service.submit(queries)
        stats_after = service.stats()
        assert stats_after.queries_served == stats_before.queries_served + 4
        # Additive counters split per lane sum back to the service deltas.
        assert sum(r.metrics.cache_misses for r in results) == (
            stats_after.cache_misses - stats_before.cache_misses
        )
        assert sum(r.metrics.cache_hits for r in results) == (
            stats_after.cache_hits - stats_before.cache_hits
        )
        assert sum(r.metrics.cache_miss_decode_ns for r in results) == (
            stats_after.cache_miss_decode_ns - stats_before.cache_miss_decode_ns
        )
        assert all(r.metrics.encode_calls == 0 for r in results)
        costs = [r.metrics.cost for r in results]
        assert costs == [pytest.approx(costs[0])] * len(costs)

    def test_batched_answers_equal_individual_answers(self, web_graph):
        sources = (0, 9, 44, 150, 399)
        with TraversalService() as batched:
            batched.register_graph("web", web_graph)
            grouped = batched.submit([BFSQuery("web", s) for s in sources])
        with TraversalService() as single:
            single.register_graph("web", web_graph)
            individually = [
                single.submit([BFSQuery("web", s)])[0] for s in sources
            ]
        for one, many in zip(individually, grouped):
            np.testing.assert_array_equal(
                one.value.levels, many.value.levels
            )
            assert one.value.iterations == many.value.iterations
            assert one.metrics.iterations == many.metrics.iterations

    def test_batch_straddling_apply_updates_pins_epochs(self, service, web_graph):
        sources = (0, 9, 44)
        before = service.submit([BFSQuery("web", s) for s in sources])
        assert all(r.metrics.graph_epoch == 0 for r in before)

        tail = web_graph.num_nodes - 1
        service.apply_updates("web", [EdgeUpdate.insert(0, tail)])
        after = service.submit([BFSQuery("web", s) for s in sources])
        assert all(r.metrics.graph_epoch == 1 for r in after)
        # The whole post-update sweep sees the inserted edge.
        assert after[0].value.level_of(tail) == 1

        mutated = web_graph.with_edge_updates([EdgeUpdate.insert(0, tail)])
        reference = _sequential(mutated, sources)
        for source, result in zip(sources, after):
            np.testing.assert_array_equal(
                result.value.levels, reference[source].levels
            )

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_registrations_group_through_executor(
        self, web_graph, shards
    ):
        sources = (0, 9, 44, 150)
        reference = _sequential(web_graph, sources)
        with TraversalService() as service:
            service.register_graph("web", web_graph, shards=shards)
            results = service.submit([BFSQuery("web", s) for s in sources])
        for source, result in zip(sources, results):
            np.testing.assert_array_equal(
                result.value.levels, reference[source].levels
            )
            assert result.metrics.batch_lanes == len(sources)
        assert sum(r.metrics.exchange_volume for r in results) > 0
        assert all(
            1 <= r.metrics.shard_fanout <= shards for r in results
        )

    def test_admission_rejects_before_any_counter_moves(self, service):
        stats_before = service.stats()
        with pytest.raises(IndexError):
            service.submit([BFSQuery("web", 0), BFSQuery("web", 10_000)])
        with pytest.raises(IndexError):
            service.submit([BFSQuery("web", -1)])
        with pytest.raises(KeyError):
            service.submit([BFSQuery("nope", 0)])
        stats_after = service.stats()
        assert stats_after.queries_served == stats_before.queries_served
        assert stats_after.cache_misses == stats_before.cache_misses
        assert stats_after.cache_hits == stats_before.cache_hits
