"""Batched plan decode on plan-cache misses.

Two contracts:

* **Differential:** :func:`repro.traversal.context.build_node_plans` (and the
  overlay's merged :meth:`DeltaOverlay.build_node_plans`) return plans equal
  to the scalar :func:`build_node_plan` -- the oracle -- for every node and
  for random subsets, across every ladder rung's encoding, gamma and zeta
  codes, degree-0 nodes, hubs with long residual runs, clean / dirty /
  compacted overlay nodes, and after rebase and restore.
* **Counter identity:** an engine that batch-decodes a frontier window's
  misses serves the same answers, modelled cost and cache counters as one
  that builds every plan on its own lookup.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

import repro.traversal.gcgt as gcgt
from repro.apps.bfs import bfs
from repro.compression.cgr import CGRConfig, CGRGraph
from repro.compression.vectorized import (
    _SCALAR_TAIL,
    VectorizedDecodeUnsupported,
)
from repro.dynamic import CompactionPolicy, DeltaOverlay, EdgeUpdate
from repro.graph.generators import web_locality_graph
from repro.graph.graph import Graph
from repro.service import BFSQuery, CCQuery, TraversalService
from repro.service.cache import DecodedAdjacencyCache
from repro.traversal.context import build_node_plan, build_node_plans
from repro.traversal.gcgt import STRATEGY_LADDER, GCGTEngine

HUB = 5
ISOLATED_EVERY = 17


def _test_graph(nodes: int = 240, seed: int = 3) -> Graph:
    """A web-like graph with degree-0 nodes and one scattered-neighbour hub.

    The hub's neighbours are every other node, so they never form
    intervals: its residual run is far longer than ``_SCALAR_TAIL``.
    """
    adjacency = [list(row) for row in web_locality_graph(nodes, seed=seed).adjacency()]
    for node in range(0, nodes, ISOLATED_EVERY):
        adjacency[node] = []
    adjacency[HUB] = sorted(set(range(1, nodes, 2)) - {HUB})
    assert len(adjacency[HUB]) > 2 * _SCALAR_TAIL
    return Graph(adjacency)


def _scalar(graph, nodes):
    return [build_node_plan(graph, node) for node in nodes]


def _subsets(num_nodes: int, seed: int = 0):
    rng = random.Random(seed)
    yield [HUB]
    yield [0, ISOLATED_EVERY, HUB]
    for size in (1, 7, 64, num_nodes // 2):
        yield rng.sample(range(num_nodes), size)
    yield list(reversed(range(num_nodes)))


ENCODINGS = [
    pytest.param(rung, scheme, id=f"{rung}-{scheme}")
    for rung in STRATEGY_LADDER
    for scheme in ("gamma", "zeta2", "zeta3")
]


class TestBatchPlansEqualScalar:
    @pytest.mark.parametrize("rung,scheme", ENCODINGS)
    def test_every_node_and_random_subsets(self, rung, scheme):
        config = replace(
            STRATEGY_LADDER[rung].effective_cgr_config(), vlc_scheme=scheme
        )
        cgr = CGRGraph.from_adjacency(_test_graph().adjacency(), config)
        every = list(range(cgr.num_nodes))
        assert build_node_plans(cgr, every) == _scalar(cgr, every)
        for subset in _subsets(cgr.num_nodes):
            assert build_node_plans(cgr, subset) == _scalar(cgr, subset)

    def test_degree_zero_and_hub_plans(self):
        for segment_bits in (None, 256):
            config = CGRConfig(residual_segment_bits=segment_bits)
            cgr = CGRGraph.from_adjacency(_test_graph().adjacency(), config)
            isolated, hub = build_node_plans(cgr, [ISOLATED_EVERY, HUB])
            assert isolated.degree == 0 and hub.degree > 2 * _SCALAR_TAIL
            assert [isolated, hub] == _scalar(cgr, [ISOLATED_EVERY, HUB])

    def test_long_segments_run_past_the_scalar_tail(self):
        # Segments wide enough that one segment's run outlasts the SIMD
        # rounds and is finished by the scalar window decoder.
        config = CGRConfig(residual_segment_bits=4096)
        cgr = CGRGraph.from_adjacency(_test_graph().adjacency(), config)
        hub = build_node_plan(cgr, HUB)
        assert max(s.count for s in hub.residual_segments) > _SCALAR_TAIL
        every = list(range(cgr.num_nodes))
        assert build_node_plans(cgr, every) == _scalar(cgr, every)

    @pytest.mark.parametrize("scheme", ["gamma", "zeta2", "zeta3"])
    def test_codes_wider_than_the_vector_window(self, scheme):
        # Gaps near 2**58 give payloads past the 56-bit gather window; the
        # decoder fixes those codes up one by one.
        adjacency = [
            [(node + 1) % 80, 2**58 + 7 * node] if node % 3 else [2**57 + node]
            for node in range(80)
        ]
        for segment_bits in (None, 256):
            config = CGRConfig(vlc_scheme=scheme, residual_segment_bits=segment_bits)
            cgr = CGRGraph.from_adjacency(adjacency, config)
            assert cgr.decode_all() == [sorted(row) for row in adjacency]
            every = list(range(cgr.num_nodes))
            assert build_node_plans(cgr, every) == _scalar(cgr, every)

    @pytest.mark.parametrize("scheme", ["gamma", "zeta3"])
    def test_ids_past_int64_fall_back_to_the_scalar_decoders(self, scheme):
        # Regression: a straggler run decoded by the scalar window decoder
        # could return an id past int64, and ``decode_all`` raised
        # OverflowError instead of falling back.
        config = CGRConfig(vlc_scheme=scheme)
        small = CGRGraph.from_adjacency([[1, 2**300], [0]], config)
        assert small.decode_all() == [[1, 2**300], [0]]
        with pytest.raises(VectorizedDecodeUnsupported):
            build_node_plans(small, [0])
        assert build_node_plans(small, [1]) == _scalar(small, [1])

    def test_empty_and_repeated_nodes(self):
        cgr = CGRGraph.from_adjacency(_test_graph().adjacency())
        assert build_node_plans(cgr, []) == []
        assert build_node_plans(cgr, [HUB, 3, HUB]) == _scalar(cgr, [HUB, 3, HUB])

    def test_out_of_range_nodes_raise(self):
        cgr = CGRGraph.from_adjacency(_test_graph().adjacency())
        with pytest.raises(ValueError):
            build_node_plans(cgr, [0, cgr.num_nodes])
        with pytest.raises(ValueError):
            build_node_plans(cgr, [-1])

    def test_delta_codes_have_no_batch_path(self, monkeypatch):
        config = CGRConfig(vlc_scheme="delta")
        cgr = CGRGraph.from_adjacency(_test_graph().adjacency(), config)
        with pytest.raises(VectorizedDecodeUnsupported):
            build_node_plans(cgr, [0, 1])
        engine = GCGTEngine(cgr, plan_cache=DecodedAdjacencyCache(8))
        batches = _spy_batches(monkeypatch)
        every = list(range(cgr.num_nodes))
        assert engine.resolve_plans(every) == _scalar(cgr, every)
        assert batches == []

    def test_decoder_state_is_resident_per_stream(self):
        cgr = CGRGraph.from_adjacency(_test_graph().adjacency())
        state = cgr.layout_decoder()
        assert cgr.layout_decoder() is state
        assert 0 < state.nbytes < 3 * cgr.total_bits  # about two bytes per bit
        other = CGRGraph.from_adjacency(_test_graph().adjacency())
        assert other.layout_decoder() is not state


def _mutated_overlay() -> DeltaOverlay:
    """An overlay with clean, dirty (insert + tombstone) and compacted nodes."""
    base = CGRGraph.from_adjacency(_test_graph().adjacency())
    overlay = DeltaOverlay(base, policy=CompactionPolicy.never())
    overlay.apply([
        EdgeUpdate.insert(1, 200),
        EdgeUpdate.insert(1, 201),
        EdgeUpdate.delete(HUB, 3),
        EdgeUpdate.insert(ISOLATED_EVERY, 9),
        EdgeUpdate.insert(40, 3),
        EdgeUpdate.delete(40, int(base.neighbors(40)[0])),
    ])
    overlay.compact(40)
    overlay.apply([EdgeUpdate.insert(41, 2)])
    overlay.compact(41)
    return overlay


class TestOverlayBatchPlans:
    def test_clean_dirty_and_compacted_nodes(self):
        overlay = _mutated_overlay()
        assert overlay.is_dirty(1) and overlay.is_dirty(HUB)
        assert not overlay.is_dirty(40) and not overlay.is_dirty(41)
        every = list(range(overlay.num_nodes))
        expected = [overlay.build_node_plan(node) for node in every]
        assert overlay.build_node_plans(every) == expected
        for subset in _subsets(overlay.num_nodes, seed=1):
            assert overlay.build_node_plans(subset) == [
                overlay.build_node_plan(node) for node in subset
            ]

    def test_after_rebase_replace_and_restore(self, tmp_path, monkeypatch):
        service = TraversalService()
        graph = _test_graph()
        entry = service.register_graph("g", graph)
        service.apply_updates("g", [
            EdgeUpdate.insert(1, 200), EdgeUpdate.delete(HUB, 3),
        ])
        first_state = entry.overlay.base.layout_decoder()

        def check(overlay):
            every = list(range(overlay.num_nodes))
            assert overlay.build_node_plans(every) == [
                overlay.build_node_plan(node) for node in every
            ]
            return overlay.base.layout_decoder()

        check(entry.overlay)
        service.rebase_graph("g")
        rebased = service.registry.resolve("g")
        assert check(rebased.overlay) is not first_state
        service.apply_updates("g", [EdgeUpdate.insert(2, 150)])
        service.registry.snapshot("g", tmp_path / "snap")

        restored_service = TraversalService()
        restored = restored_service.registry.restore(tmp_path / "snap")
        restored_state = check(restored.overlay)
        assert restored_state is not rebased.overlay.base.layout_decoder()
        batches = []
        original = DeltaOverlay.build_node_plans
        monkeypatch.setattr(
            DeltaOverlay, "build_node_plans",
            lambda self, nodes: batches.append(len(nodes)) or original(self, nodes),
        )
        restored.engine.resolve_plans(list(range(graph.num_nodes)))
        assert batches  # the restored engine batch-decodes its misses
        monkeypatch.undo()

        replaced = service.replace_graph("g", web_locality_graph(150, seed=9))
        assert check(replaced.overlay) is not rebased.overlay.base.layout_decoder()


def _spy_batches(monkeypatch) -> list:
    """Record the node lists every batch decode of a static graph gets."""
    batches = []
    original = gcgt.build_node_plans

    def spy(graph, nodes):
        batches.append(list(nodes))
        return original(graph, nodes)

    monkeypatch.setattr(gcgt, "build_node_plans", spy)
    return batches


class TestEnginePrefetch:
    """Window resolution batch-decodes (prefetches) predicted misses."""

    def _engine(self, capacity):
        overlay = DeltaOverlay(CGRGraph.from_adjacency(_test_graph().adjacency()))
        return GCGTEngine(overlay, plan_cache=DecodedAdjacencyCache(capacity))

    def test_prefetches_only_predicted_misses(self, monkeypatch):
        engine = self._engine(4096)
        cache = engine.plan_cache
        nodes = list(range(100))
        engine.resolve_plans(nodes[:50])
        assert (cache.hits, cache.misses) == (0, 50)
        engine.graph.apply([EdgeUpdate.insert(60, 1)])
        batches = []
        original = DeltaOverlay.build_node_plans

        def spy(self, batch):
            batches.append(list(batch))
            return original(self, batch)

        monkeypatch.setattr(DeltaOverlay, "build_node_plans", spy)
        decode_before = cache.miss_decode_ns
        plans = engine.resolve_plans(nodes + nodes)
        # Distinct, not resident at their epoch, not dirty (60 is dirty).
        assert batches == [[n for n in nodes[50:] if n != 60]]
        assert plans == [engine.graph.build_node_plan(n) for n in nodes + nodes]
        assert (cache.hits, cache.misses) == (50 + 100, 50 + 50)
        assert cache.miss_decode_ns > decode_before

    def test_predicted_hits_evicted_in_the_window_are_rebuilt(self):
        engine = self._engine(40)
        cache = engine.plan_cache
        engine.resolve_plans([0])  # resident, so predicted to hit below
        window = list(range(1, 60)) + [0]
        plans = engine.resolve_plans(window)
        assert plans == [engine.graph.build_node_plan(n) for n in window]
        # Node 0 was the least recently used plan when node 40 missed.
        assert (cache.hits, cache.misses) == (0, 61)
        assert cache.evictions == 61 - 40

    def test_small_windows_and_all_hit_caches_skip_the_batch(self, monkeypatch):
        engine = self._engine(4096)
        batches = []
        original = DeltaOverlay.build_node_plans
        monkeypatch.setattr(
            DeltaOverlay, "build_node_plans",
            lambda self, nodes: batches.append(len(nodes)) or original(self, nodes),
        )
        engine.resolve_plans(list(range(gcgt.MIN_PLAN_BATCH - 1)))
        assert batches == []
        engine.resolve_plans(list(range(engine.num_nodes)))
        assert batches == [engine.num_nodes - gcgt.MIN_PLAN_BATCH + 1]
        calls = []
        cache = engine.plan_cache
        original_epoch_of = cache.epoch_of
        cache.epoch_of = lambda node: calls.append(node) or original_epoch_of(node)
        hits = cache.hits
        engine.resolve_plans(list(range(engine.num_nodes)))
        bfs(engine, 1)
        assert calls == []  # the all-hit path makes no per-node pass
        assert batches == [engine.num_nodes - gcgt.MIN_PLAN_BATCH + 1]
        assert cache.hits > hits + engine.num_nodes and cache.misses == engine.num_nodes

    def test_without_a_cache_every_plan_is_built(self, monkeypatch):
        cgr = CGRGraph.from_adjacency(_test_graph().adjacency())
        engine = GCGTEngine(cgr)
        batches = _spy_batches(monkeypatch)
        every = list(range(cgr.num_nodes))
        assert engine.resolve_plans(every + every[:5]) == _scalar(
            cgr, every + every[:5]
        )
        assert batches == [every]
        assert engine.node_plan(HUB) == build_node_plan(cgr, HUB)

    def test_batch_failure_falls_back_to_scalar_builds(self, monkeypatch):
        engine = self._engine(64)
        expected = bfs(GCGTEngine(engine.graph), 1).levels

        def explode(self, nodes):
            raise RuntimeError("batch decode failed")

        monkeypatch.setattr(DeltaOverlay, "build_node_plans", explode)
        every = list(range(100))
        assert engine.resolve_plans(every) == [
            engine.graph.build_node_plan(node) for node in every
        ]
        assert list(bfs(engine, 1).levels) == list(expected)
        assert engine.plan_cache.build_failures == 0

    def test_decode_miss_events_sum_to_miss_decode_ns(self):
        engine = self._engine(64)
        events = []

        class _Span:
            def event(self, name, **detail):
                events.append((name, detail))

        class _Tracer:
            enabled = True

            def current(self):
                return _Span()

        cache = engine.plan_cache
        cache.tracer = _Tracer()
        built = []
        original = DeltaOverlay.build_node_plans

        def spy(self, nodes):
            built.append(len(nodes))
            return original(self, nodes)

        DeltaOverlay.build_node_plans = spy
        try:
            bfs(engine, 1)
        finally:
            DeltaOverlay.build_node_plans = original
        assert built  # some window was batch-decoded
        assert len(events) == cache.misses
        assert all(name == "decode_miss" for name, _ in events)
        assert sum(d["decode_ns"] for _, d in events) == cache.miss_decode_ns


def test_engine_resolves_plan_builder_on_each_miss(monkeypatch):
    # Regression: the engine captured ``graph.build_node_plan`` when it was
    # built, so a wrapper active at that moment outlived its removal.
    overlay = DeltaOverlay(CGRGraph.from_adjacency(_test_graph().adjacency()))
    wrapped = []
    original = DeltaOverlay.build_node_plan

    def wrapper(self, node):
        wrapped.append(node)
        return original(self, node)

    monkeypatch.setattr(DeltaOverlay, "build_node_plan", wrapper)
    engine = GCGTEngine(overlay, plan_cache=DecodedAdjacencyCache(8))
    monkeypatch.undo()
    plan = engine.node_plan(3)  # a miss
    assert engine.plan_cache.misses == 1
    assert wrapped == []
    assert plan == overlay.build_node_plan(3)


# ---------------------------------------------------------------------------
# Counter identity: batched engine vs scalar-only engine
# ---------------------------------------------------------------------------

def _serve(capacity: int) -> list:
    """Run one fixed query sequence; return per-query observables."""
    service = TraversalService(cache_capacity=capacity)
    graph = _test_graph(nodes=400, seed=5)
    service.register_graph("g", graph)
    rng = random.Random(11)
    script = []
    for step in range(6):
        script.append([BFSQuery("g", rng.randrange(graph.num_nodes))])
        script.append([BFSQuery("g", rng.randrange(graph.num_nodes)) for _ in range(3)])
        if step == 2:
            script.append([CCQuery("g")])
        if step == 3:
            script.append(("update", [
                EdgeUpdate.insert(rng.randrange(400), rng.randrange(400))
                for _ in range(12)
            ]))
    observed = []
    for batch in script:
        if isinstance(batch, tuple):
            service.apply_updates("g", batch[1])
            continue
        before = service.stats().cache_evictions
        for result in service.submit(batch):
            metrics = result.metrics
            answer = getattr(result.value, "levels", None)
            if answer is None:
                answer = result.value.labels
            observed.append((
                metrics.cost, metrics.elapsed_proxy, metrics.cache_hits,
                metrics.cache_misses, metrics.cache_invalidations,
                list(np.asarray(answer)),
            ))
        observed.append(("evictions", service.stats().cache_evictions - before))
    return observed


@pytest.mark.parametrize("capacity", [8, 512, 4096])
def test_batched_and_scalar_engines_count_identically(capacity, monkeypatch):
    calls = []
    original = DeltaOverlay.build_node_plans

    def spy(self, nodes):
        calls.append(len(nodes))
        return original(self, nodes)

    monkeypatch.setattr(DeltaOverlay, "build_node_plans", spy)
    batched = _serve(capacity)
    assert calls, "the batched run never batch-decoded a window"
    calls.clear()
    monkeypatch.setattr(gcgt, "MIN_PLAN_BATCH", 1 << 60)  # scalar only
    scalar = _serve(capacity)
    assert calls == []
    assert batched == scalar
