"""Dynamic-graph subsystem: delta overlay, compaction, epochs, serving.

The contract under test is the differential one: **after any sequence of
edge updates (and any interleaving of compactions), traversal over the
delta overlay is indistinguishable from a from-scratch encode of the
mutated graph** -- BFS levels and CC labels bit-identical, BC floats to
1e-9 (the established bar of ``tests/test_differential.py``) -- across all
five strategy-ladder rungs and through the batched service path.  Around
that sit unit tests of the overlay's normalisation and bookkeeping, the
compaction policy, epoch-keyed plan-cache invalidation, and the regression
test for the eviction under-count when a graph is replaced in the registry.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.bc import betweenness_centrality
from repro.apps.bfs import bfs
from repro.apps.cc import connected_components
from repro.compression import cgr
from repro.compression.cgr import CGRGraph
from repro.dynamic import (
    CompactionPolicy,
    DeltaOverlay,
    EdgeUpdate,
    coerce_updates,
    symmetrized,
)
from repro.graph.generators import power_law_graph, uniform_dense_graph
from repro.graph.graph import Graph
from repro.service import BFSQuery, CCQuery, BCQuery, DecodedAdjacencyCache, GraphRegistry, TraversalService
from repro.traversal.gcgt import GCGTEngine, STRATEGY_LADDER


def overlay_for(graph: Graph, policy: CompactionPolicy | None = None) -> DeltaOverlay:
    base = CGRGraph.from_adjacency(graph.adjacency())
    return DeltaOverlay(base, policy=policy or CompactionPolicy.never())


def chain_graph(n: int) -> Graph:
    """0 -> 1 -> ... -> n-1 plus a long interval-friendly run out of node 0."""
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(0, v) for v in range(2, min(n, 12))]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# Update vocabulary
# ---------------------------------------------------------------------------

class TestEdgeUpdate:
    def test_validates_kind_and_ids(self):
        with pytest.raises(ValueError, match="kind"):
            EdgeUpdate("upsert", 0, 1)
        with pytest.raises(ValueError, match="non-negative"):
            EdgeUpdate.insert(-1, 2)

    def test_coerce_accepts_tuples_and_objects(self):
        batch = coerce_updates([("insert", 0, 1), EdgeUpdate.delete(2, 3)])
        assert batch == [EdgeUpdate.insert(0, 1), EdgeUpdate.delete(2, 3)]

    def test_symmetrized_emits_both_directions_in_order(self):
        batch = symmetrized([("insert", 0, 1)])
        assert batch == [EdgeUpdate.insert(0, 1), EdgeUpdate.insert(1, 0)]


# ---------------------------------------------------------------------------
# Overlay unit behaviour: normalisation, merged reads, epochs
# ---------------------------------------------------------------------------

class TestDeltaOverlayUnit:
    def test_insert_and_delete_merge_into_reads(self):
        overlay = overlay_for(chain_graph(20))
        overlay.apply([EdgeUpdate.insert(0, 15), EdgeUpdate.delete(0, 1)])
        assert 15 in overlay.neighbors(0)
        assert 1 not in overlay.neighbors(0)
        assert overlay.has_edge(0, 15) and not overlay.has_edge(0, 1)
        assert overlay.degree(0) == len(overlay.neighbors(0))

    def test_noop_normalisation_is_counted_not_applied(self):
        graph = chain_graph(10)
        overlay = overlay_for(graph)
        stats = overlay.apply([
            EdgeUpdate.insert(0, 1),   # already present
            EdgeUpdate.delete(5, 9),   # absent
            EdgeUpdate.insert(3, 3),   # self-loop
        ])
        assert (stats.inserted, stats.deleted, stats.ignored) == (0, 0, 3)
        assert stats.touched_nodes == set()
        assert overlay.num_edges == graph.num_edges
        assert overlay.epoch == 0  # nothing changed, no epoch bump

    def test_delete_then_reinsert_resurrects_edge(self):
        overlay = overlay_for(chain_graph(10))
        overlay.apply([EdgeUpdate.delete(0, 1)])
        assert not overlay.has_edge(0, 1)
        stats = overlay.apply([EdgeUpdate.insert(0, 1)])
        assert stats.inserted == 1
        assert overlay.has_edge(0, 1)
        assert not overlay.is_dirty(0)  # delta cancelled out entirely

    def test_insert_then_delete_cancels(self):
        overlay = overlay_for(chain_graph(10))
        overlay.apply([EdgeUpdate.insert(2, 7)])
        overlay.apply([EdgeUpdate.delete(2, 7)])
        assert not overlay.has_edge(2, 7)
        assert not overlay.is_dirty(2)

    def test_num_edges_tracks_effective_updates(self):
        graph = chain_graph(12)
        overlay = overlay_for(graph)
        overlay.apply([EdgeUpdate.insert(3, 9), EdgeUpdate.delete(1, 2)])
        assert overlay.num_edges == graph.num_edges  # +1 -1
        overlay.apply([EdgeUpdate.insert(4, 9)])
        assert overlay.num_edges == graph.num_edges + 1

    def test_out_of_range_nodes_raise(self):
        overlay = overlay_for(chain_graph(5))
        with pytest.raises(ValueError, match="out of range"):
            overlay.apply([EdgeUpdate.insert(0, 5)])
        with pytest.raises(ValueError, match="out of range"):
            overlay.apply([EdgeUpdate.delete(7, 0)])

    def test_rejected_batch_is_all_or_nothing(self):
        # A bad update anywhere in the batch must leave the overlay exactly
        # as it was -- otherwise it silently diverges from the registry's
        # bookkeeping (edge counts, epochs).
        graph = chain_graph(20)
        overlay = overlay_for(graph)
        with pytest.raises(ValueError, match="out of range"):
            overlay.apply([EdgeUpdate.insert(2, 15), EdgeUpdate.insert(0, 99)])
        assert not overlay.has_edge(2, 15)
        assert overlay.num_edges == graph.num_edges
        assert overlay.epoch == 0 and not overlay.is_dirty(2)

    def test_tombstone_counter_tracks_resurrect_and_compaction(self):
        overlay = overlay_for(chain_graph(20))
        identity = lambda s, n: True
        assert overlay.wrap_filter(identity) is identity  # no tombstones
        overlay.apply([EdgeUpdate.delete(0, 1), EdgeUpdate.delete(0, 2)])
        assert overlay.wrap_filter(identity) is not identity
        overlay.apply([EdgeUpdate.insert(0, 1)])  # resurrect one
        assert overlay.wrap_filter(identity) is not identity
        overlay.compact(0)  # folds the remaining tombstone away
        assert overlay.wrap_filter(identity) is identity
        assert overlay.stats().pending_tombstones == 0

    def test_epochs_bump_per_effective_batch_and_per_node(self):
        overlay = overlay_for(chain_graph(20))
        assert overlay.epoch == 0 and overlay.node_epoch(0) == 0
        overlay.apply([EdgeUpdate.insert(0, 15)])
        assert overlay.epoch == 1
        assert overlay.node_epoch(0) == 1
        assert overlay.node_epoch(3) == 0  # untouched node keeps its epoch
        overlay.apply([EdgeUpdate.insert(3, 7)])
        assert overlay.node_epoch(3) == 2 and overlay.node_epoch(0) == 1

    def test_merged_plan_carries_insert_segment(self):
        overlay = overlay_for(chain_graph(20))
        before = overlay.build_node_plan(0)
        overlay.apply([EdgeUpdate.insert(0, 17), EdgeUpdate.insert(0, 18)])
        plan = overlay.build_node_plan(0)
        assert plan.degree == before.degree + 2
        extra = plan.residual_segments[-1]
        assert extra.count == 2
        assert set(extra.ids) == {17, 18}
        # The insert run lives in the side stream, past the frozen base.
        assert all(start >= len(overlay.base.bits) for start in extra.starts)

    def test_materialize_equals_with_edge_updates(self):
        graph = chain_graph(30)
        batch = [
            EdgeUpdate.insert(0, 25), EdgeUpdate.delete(0, 3),
            EdgeUpdate.insert(10, 2), EdgeUpdate.delete(28, 29),
        ]
        overlay = overlay_for(graph)
        overlay.apply(batch)
        assert overlay.materialize() == graph.with_edge_updates(batch)


# ---------------------------------------------------------------------------
# Graph.with_edge_updates (the uncompressed reference path)
# ---------------------------------------------------------------------------

class TestGraphWithEdgeUpdates:
    def test_untouched_adjacency_lists_are_shared_not_copied(self):
        graph = chain_graph(50)
        updated = graph.with_edge_updates([EdgeUpdate.insert(0, 30)])
        assert updated._adjacency[17] is graph._adjacency[17]
        assert updated._adjacency[0] is not graph._adjacency[0]

    def test_sequential_semantics_match_overlay(self):
        graph = chain_graph(15)
        batch = [
            EdgeUpdate.insert(1, 9), EdgeUpdate.delete(1, 9),
            EdgeUpdate.insert(1, 9),  # net effect: present
            EdgeUpdate.delete(0, 1),
        ]
        updated = graph.with_edge_updates(batch)
        assert updated.has_edge(1, 9)
        assert not updated.has_edge(0, 1)

    def test_rejects_out_of_range_and_bad_kind(self):
        graph = chain_graph(4)
        with pytest.raises(ValueError):
            graph.with_edge_updates([("insert", 0, 99)])
        with pytest.raises(ValueError, match="kind"):
            graph.with_edge_updates([("upsert", 0, 1)])


# ---------------------------------------------------------------------------
# Compaction
# ---------------------------------------------------------------------------

class TestCompaction:
    def test_policy_thresholds(self):
        policy = CompactionPolicy(min_delta=4, degree_fraction=0.5)
        assert not policy.should_compact(3, extent_degree=4)
        assert policy.should_compact(4, extent_degree=4)
        assert not policy.should_compact(4, extent_degree=100)  # 0.5*100 = 50
        assert CompactionPolicy.eager().should_compact(1, extent_degree=10**6)
        assert not CompactionPolicy.never().should_compact(10**6, 0)

    def test_explicit_compact_folds_delta_into_extent(self):
        overlay = overlay_for(chain_graph(40))
        overlay.apply([EdgeUpdate.insert(0, 30), EdgeUpdate.delete(0, 2)])
        merged = overlay.neighbors(0)
        assert overlay.is_dirty(0)
        assert overlay.compact(0)
        assert not overlay.is_dirty(0)
        assert overlay.stats().compacted_nodes == 1
        assert overlay.neighbors(0) == merged
        # The compacted extent is authoritative: a fresh plan decodes it with
        # no insert segment and no tombstones left to suppress.
        plan = overlay.build_node_plan(0)
        assert plan.degree == len(merged)
        assert not overlay.compact(0)  # already clean

    def test_warm_extent_sets_match_scalar_decodes(self):
        graph = power_law_graph(80, hub_count=3, seed=5)
        overlay = overlay_for(graph)
        overlay.apply([EdgeUpdate.insert(1, 70)])
        overlay.compact(1)
        overlay.warm_extent_sets([0, 1, 2, 5, 5, 79, -1, 80])
        for node in (0, 2, 5, 79):
            assert overlay._extent_sets[node] == frozenset(graph.neighbors(node))
        assert overlay.neighbors(1) == sorted(set(graph.neighbors(1)) | {70})
        with pytest.raises(ValueError):
            overlay.apply([EdgeUpdate.insert(80, 0)])

    def test_auto_compaction_respects_policy(self):
        overlay = overlay_for(
            chain_graph(40), policy=CompactionPolicy(min_delta=3, degree_fraction=0.0)
        )
        overlay.apply([EdgeUpdate.insert(0, 20), EdgeUpdate.insert(0, 21)])
        assert overlay.is_dirty(0)  # delta of 2 below min_delta=3
        stats = overlay.apply([EdgeUpdate.insert(0, 22)])
        assert stats.compactions == 1
        assert not overlay.is_dirty(0)

    def test_compaction_reduces_decode_work_after_deletes(self):
        # Tombstones keep costing decode work until compaction folds them out.
        graph = chain_graph(40)
        overlay = overlay_for(graph)
        victims = [v for v in graph.neighbors(0)[:6]]
        overlay.apply([EdgeUpdate.delete(0, v) for v in victims])
        dirty_plan = overlay.build_node_plan(0)
        overlay.compact(0)
        clean_plan = overlay.build_node_plan(0)
        assert clean_plan.degree == dirty_plan.degree - len(victims)

    def test_garbage_and_side_stream_accounting(self):
        overlay = overlay_for(chain_graph(40))
        assert overlay.stats().side_bits == 0
        overlay.apply([EdgeUpdate.insert(0, 30)])
        overlay.build_node_plan(0)  # forces the insert run encode
        stats = overlay.stats()
        assert stats.side_bits > 0
        overlay.compact(0)
        after = overlay.stats()
        # Old base extent + stale insert run became garbage; live_bits stays
        # consistent with the total.
        assert after.garbage_bits > 0
        assert after.live_bits == after.side_bits + len(overlay.base.bits) - after.garbage_bits

    def test_compact_all(self):
        overlay = overlay_for(chain_graph(30))
        overlay.apply([EdgeUpdate.insert(1, 20), EdgeUpdate.insert(2, 21)])
        assert overlay.compact_all() == 2
        assert overlay.stats().dirty_nodes == 0


# ---------------------------------------------------------------------------
# Differential: overlay == from-scratch encode, all rungs, all apps
# ---------------------------------------------------------------------------

def scripted_batches(graph: Graph) -> list[list[EdgeUpdate]]:
    """Three update batches exercising every overlay mechanism.

    Batch 1 inserts hub fan-out (long insert run) and deletes inside the
    node-0 interval run; batch 2 deletes scattered edges and resurrects one;
    batch 3 mixes inserts and deletes on previously-touched nodes so stale
    plans and insert runs must be rebuilt.
    """
    n = graph.num_nodes
    first = [EdgeUpdate.insert(0, v) for v in range(n - 10, n - 1)]
    first += [EdgeUpdate.delete(0, v) for v in graph.neighbors(0)[1:4]]
    second = [EdgeUpdate.delete(u, graph.neighbors(u)[0])
              for u in range(1, 12) if graph.neighbors(u)]
    second += [EdgeUpdate.insert(0, graph.neighbors(0)[2])] if len(graph.neighbors(0)) > 2 else []
    third = [EdgeUpdate.insert(u, (u * 7 + 3) % n) for u in range(0, 30, 3)]
    third += [EdgeUpdate.delete(0, n - 5), EdgeUpdate.insert(5, n - 2)]
    return [first, second, third]


@pytest.mark.parametrize("rung", list(STRATEGY_LADDER))
def test_differential_scripted_updates_match_fresh_encode(rung):
    """Acceptance: overlay answers == fresh full encode, per rung, per app."""
    config = STRATEGY_LADDER[rung]
    graph = power_law_graph(
        110, avg_degree=6.0, exponent=2.0, max_degree_fraction=0.3,
        hub_count=2, seed=21,
    )
    registry = GraphRegistry(
        default_config=config,
        compaction_policy=CompactionPolicy(min_delta=4, degree_fraction=0.25),
    )
    registry.register("g", graph)
    current = graph
    for batch in scripted_batches(graph):
        registry.apply_updates("g", batch)
        current = current.with_edge_updates(batch)
        entry = registry.resolve("g")

        fresh = GCGTEngine.from_graph(current, config=config)
        np.testing.assert_array_equal(
            bfs(entry.engine.new_session(), 0).levels, bfs(fresh, 0).levels
        )
        und = registry.undirected_variant(entry)
        fresh_und = GCGTEngine.from_graph(current.to_undirected(), config=config)
        np.testing.assert_array_equal(
            connected_components(und.engine.new_session()).labels,
            connected_components(fresh_und).labels,
        )
        ours = betweenness_centrality(entry.engine.new_session(), 3)
        ref = betweenness_centrality(fresh, 3)
        np.testing.assert_array_equal(ours.distances, ref.distances)
        np.testing.assert_allclose(ours.sigma, ref.sigma, rtol=1e-9)
        np.testing.assert_allclose(ours.delta, ref.delta, rtol=1e-9)


def test_differential_through_service_path():
    """The batched service serves post-update answers == fresh encode."""
    graph = uniform_dense_graph(96, degree=12, cluster_size=32, seed=13)
    service = TraversalService()
    service.register_graph("live", graph)
    service.submit([BFSQuery("live", 0), CCQuery("live")])  # warm caches

    current = graph
    for batch in scripted_batches(graph):
        stats = service.apply_updates("live", batch)
        assert stats.changed > 0
        current = current.with_edge_updates(batch)
        results = service.submit(
            [BFSQuery("live", 0), CCQuery("live"), BCQuery("live", 7)]
        )
        fresh = GCGTEngine.from_graph(current)
        np.testing.assert_array_equal(
            results[0].value.levels, bfs(fresh, 0).levels
        )
        np.testing.assert_array_equal(
            results[1].value.labels,
            connected_components(
                GCGTEngine.from_graph(current.to_undirected())
            ).labels,
        )
        np.testing.assert_allclose(
            results[2].value.delta,
            betweenness_centrality(fresh, 7).delta,
            rtol=1e-9,
        )
    # Three batches happened; compactions may add further epoch bumps.
    assert results[0].metrics.graph_epoch >= 3
    assert service.stats().update_batches == 3


def test_updates_never_trigger_full_reencode():
    """The encode-once contract survives update batches: zero new encodes."""
    graph = power_law_graph(100, avg_degree=5.0, hub_count=2, seed=31)
    service = TraversalService()
    service.register_graph("g", graph)
    service.submit([CCQuery("g")])  # materialise the undirected sibling too
    before = cgr.encode_call_count()
    for batch in scripted_batches(graph):
        service.apply_updates("g", batch)
        service.submit([BFSQuery("g", 0), CCQuery("g")])
    assert cgr.encode_call_count() == before
    assert service.registry.encode_calls == 2  # directed + undirected, ever


# ---------------------------------------------------------------------------
# Property tests: random interleavings of updates and compactions
# ---------------------------------------------------------------------------

def _random_interleaving(seed: int, num_nodes: int = 48, steps: int = 60) -> None:
    rng = random.Random(seed)
    graph = Graph.from_edges(
        num_nodes,
        {(rng.randrange(num_nodes), rng.randrange(num_nodes))
         for _ in range(num_nodes * 3)} - {(v, v) for v in range(num_nodes)},
    )
    overlay = overlay_for(graph)
    current = graph
    batch: list[EdgeUpdate] = []
    for _ in range(steps):
        action = rng.random()
        if action < 0.45:
            batch.append(EdgeUpdate.insert(
                rng.randrange(num_nodes), rng.randrange(num_nodes)
            ))
        elif action < 0.8:
            batch.append(EdgeUpdate.delete(
                rng.randrange(num_nodes), rng.randrange(num_nodes)
            ))
        elif action < 0.9 and batch:
            overlay.apply(batch)
            current = current.with_edge_updates(batch)
            batch = []
        else:
            overlay.compact(rng.randrange(num_nodes))
    if batch:
        overlay.apply(batch)
        current = current.with_edge_updates(batch)

    # The merged view equals the from-scratch graph...
    assert overlay.materialize() == current
    # ...and traversal over the overlay equals a from-scratch encode.
    engine = GCGTEngine(overlay)
    fresh = GCGTEngine.from_graph(current)
    for source in (0, num_nodes // 2):
        np.testing.assert_array_equal(
            bfs(engine.new_session(), source).levels,
            bfs(fresh.new_session(), source).levels,
        )


@pytest.mark.parametrize("seed", range(6))
def test_property_random_interleavings_seeded(seed):
    _random_interleaving(seed)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_property_random_interleavings_hypothesis(seed):
    _random_interleaving(seed, num_nodes=24, steps=30)


# ---------------------------------------------------------------------------
# Epoch-keyed plan cache + the eviction under-count regression
# ---------------------------------------------------------------------------

class TestEpochKeyedCache:
    def test_epoch_mismatch_counts_invalidation_and_rebuilds(self):
        cache = DecodedAdjacencyCache(8)
        assert cache.lookup(1, lambda: "v0", epoch=0) == "v0"
        assert cache.lookup(1, lambda: "unused", epoch=0) == "v0"
        assert cache.lookup(1, lambda: "v1", epoch=3) == "v1"  # stale drop
        assert cache.invalidations == 1
        assert cache.epoch_of(1) == 3
        assert (cache.hits, cache.misses) == (1, 2)

    def test_explicit_invalidate(self):
        cache = DecodedAdjacencyCache(8)
        cache.lookup(5, lambda: "x")
        assert cache.invalidate(5) and not cache.invalidate(5)
        assert 5 not in cache
        assert cache.invalidations == 1

    def test_update_invalidates_touched_nodes_only(self):
        graph = chain_graph(30)
        service = TraversalService()
        entry = service.register_graph("g", graph)
        service.submit([BFSQuery("g", 0)])
        resident_before = len(entry.plan_cache)
        assert resident_before > 2
        service.apply_updates("g", [EdgeUpdate.insert(0, 20)])
        # Only node 0 was dropped; everything else stays warm.
        assert len(entry.plan_cache) == resident_before - 1
        assert 0 not in entry.plan_cache

    def test_clear_counts_dropped_plans_as_evictions(self):
        cache = DecodedAdjacencyCache(8)
        for node in range(5):
            cache.lookup(node, lambda n=node: n)
        assert cache.evictions == 0
        cache.clear()
        assert cache.evictions == 5  # the fix: wholesale drops are counted

    def test_replacement_reregistration_eviction_regression(self):
        """Regression: re-registering the same nodes after a registry
        replacement must surface the displaced plans in ``evictions``.

        Before the fix, ``clear()`` silently discarded every resident plan,
        so a monitoring loop watching ``ServiceStats.cache_evictions`` saw a
        cache that apparently never churned even though replacement threw
        away (and re-decoded) every hot node.
        """
        graph = chain_graph(40)
        service = TraversalService()
        entry = service.register_graph("g", graph)
        service.submit([BFSQuery("g", 0)])
        resident = len(entry.plan_cache)
        assert resident > 0 and entry.plan_cache.evictions == 0

        mutated = graph.with_edge_updates([EdgeUpdate.insert(0, 35)])
        replaced = service.replace_graph("g", mutated)
        # Same cache object, counters continuous, dropped plans counted.
        assert replaced.plan_cache is entry.plan_cache
        assert replaced.plan_cache.evictions == resident
        assert len(replaced.plan_cache) == 0

        [result] = service.submit([BFSQuery("g", 0)])
        np.testing.assert_array_equal(
            result.value.levels, bfs(GCGTEngine.from_graph(mutated), 0).levels
        )
        assert replaced.plan_cache.misses > 0


# ---------------------------------------------------------------------------
# Undirected mirroring of directed updates
# ---------------------------------------------------------------------------

class TestUndirectedMirror:
    def test_delete_respects_surviving_reverse_edge(self):
        # 0 <-> 1 both directions; deleting one direction must keep the
        # undirected edge, deleting both must drop it.
        graph = Graph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
        service = TraversalService()
        service.register_graph("g", graph)
        [cc] = service.submit([CCQuery("g")])
        assert cc.value.num_components == 1

        service.apply_updates("g", [EdgeUpdate.delete(0, 1)])
        [cc] = service.submit([CCQuery("g")])
        assert cc.value.num_components == 1  # 1 -> 0 still connects them

        service.apply_updates("g", [EdgeUpdate.delete(1, 0)])
        [cc] = service.submit([CCQuery("g")])
        assert cc.value.num_components == 2

    def test_sibling_created_after_updates_starts_mutated(self):
        graph = chain_graph(20)
        service = TraversalService()
        service.register_graph("g", graph)
        service.apply_updates("g", [EdgeUpdate.delete(0, 1)])
        [cc] = service.submit([CCQuery("g")])  # sibling built lazily, post-update
        ref = connected_components(
            GCGTEngine.from_graph(
                graph.with_edge_updates([EdgeUpdate.delete(0, 1)]).to_undirected()
            )
        )
        np.testing.assert_array_equal(cc.value.labels, ref.labels)


# ---------------------------------------------------------------------------
# Registry/service surface
# ---------------------------------------------------------------------------

class TestDynamicServiceSurface:
    def test_apply_updates_unknown_name_raises(self):
        with pytest.raises(KeyError, match="not registered"):
            TraversalService().apply_updates("nope", [EdgeUpdate.insert(0, 1)])

    def test_updates_fan_out_to_every_config_entry(self):
        graph = chain_graph(25)
        service = TraversalService()
        service.register_graph("g", graph, STRATEGY_LADDER["Intuitive"])
        service.register_graph("g", graph, STRATEGY_LADDER["ResidualSegmentation"])
        service.apply_updates("g", [EdgeUpdate.insert(0, 20)])
        for entry in service.registry.entries():
            assert entry.overlay.has_edge(0, 20)

    def test_stats_surface_update_counters(self):
        graph = chain_graph(25)
        service = TraversalService()
        service.register_graph("g", graph)
        service.apply_updates(
            "g", [EdgeUpdate.insert(0, 20), EdgeUpdate.delete(0, 1)]
        )
        stats = service.stats()
        assert stats.update_batches == 1
        assert stats.edges_inserted == 1
        assert stats.edges_deleted == 1

    def test_replace_covers_every_config_entry(self):
        # Regression: replacing by name must swap *all* config entries, or
        # same-name entries would serve divergent topologies afterwards.
        graph = chain_graph(25)
        service = TraversalService()
        service.register_graph("g", graph, STRATEGY_LADDER["Intuitive"])
        service.register_graph("g", graph, STRATEGY_LADDER["ResidualSegmentation"])
        mutated = graph.with_edge_updates([EdgeUpdate.insert(0, 20)])
        service.replace_graph("g", mutated)
        service.apply_updates("g", [EdgeUpdate.insert(1, 10)])
        for entry in service.registry.entries():
            assert entry.overlay.has_edge(0, 20)
            assert entry.overlay.has_edge(1, 10)
            assert entry.adjacency() == mutated.with_edge_updates(
                [EdgeUpdate.insert(1, 10)]
            ).adjacency()

    def test_tombstone_only_batches_do_not_reencode_insert_runs(self):
        overlay = overlay_for(chain_graph(30))
        overlay.apply([EdgeUpdate.insert(0, 20), EdgeUpdate.insert(0, 21)])
        overlay.build_node_plan(0)  # encodes the insert run once
        side_before = overlay.stats().side_bits
        overlay.apply([EdgeUpdate.delete(0, 1)])  # tombstone-only for node 0
        plan = overlay.build_node_plan(0)
        assert overlay.stats().side_bits == side_before  # run reused, not re-encoded
        assert set(plan.residual_segments[-1].ids) == {20, 21}

    def test_csr_rebuilds_lazily_after_updates(self):
        graph = chain_graph(25)
        service = TraversalService()
        entry = service.register_graph("g", graph)
        assert entry.csr.num_edges == graph.num_edges
        service.apply_updates("g", [EdgeUpdate.insert(0, 20)])
        assert entry.csr.num_edges == graph.num_edges + 1
        assert entry.csr.neighbors(0).tolist() == entry.overlay.neighbors(0)
