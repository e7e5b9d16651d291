"""The registry keeps one resident topology per entry: its serving state.

Every whole-graph read of a registered entry -- the CSR form, the
undirected CC sibling's mirrored batches, re-registration checks -- decodes
the delta overlay (unsharded) or the shards' overlays behind the executor
(sharded).  These tests drive the three kinds of entry through seeded update
batches and compare every such read against an uncompressed model graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.cgr import CGRGraph
from repro.dynamic.overlay import DeltaOverlay
from repro.dynamic.updates import EdgeUpdate
from repro.graph.csr import CSRGraph
from repro.graph.generators import web_locality_graph
from repro.graph.graph import Graph
from repro.service import GraphRegistry

#: Registration arguments of the three kinds of entry.
KINDS = {
    "unsharded": {},
    "inline": {"shards": 2},
    "process": {"shards": 2, "executor_backend": "process"},
}


def _batch(model: Graph, rng: np.random.Generator) -> list[EdgeUpdate]:
    """One seeded batch of mixed updates against ``model``.

    It deletes ``u -> v`` while inserting ``v -> u`` (the reverse edge
    survives, so the undirected edge must too), deletes random edges
    whatever their reverse, and inserts random edges.
    """
    edges = list(model.edges())
    batch: list[EdgeUpdate] = []
    for index in rng.choice(len(edges), size=6, replace=False).tolist():
        source, target = edges[index]
        if index % 2:
            batch.append(EdgeUpdate.insert(target, source))
        batch.append(EdgeUpdate.delete(source, target))
    for source, target in rng.integers(model.num_nodes, size=(6, 2)).tolist():
        batch.append(EdgeUpdate.insert(source, target))
    return batch


def _assert_csr_equals(csr: CSRGraph, model: Graph) -> None:
    expected = CSRGraph.from_graph(model)
    np.testing.assert_array_equal(csr.indptr, expected.indptr)
    np.testing.assert_array_equal(csr.indices, expected.indices)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_resident_topology_is_the_serving_state(kind, tmp_path):
    graph = web_locality_graph(150, seed=11)
    registry = GraphRegistry()
    try:
        entry = registry.register("g", graph, **KINDS[kind])
        sibling = registry.undirected_variant(entry)
        rng = np.random.default_rng(7)
        model = graph
        reverse_survived = 0
        for _ in range(5):
            batch = _batch(model, rng)
            stats = registry.apply_updates("g", batch)
            model = model.with_edge_updates(batch)
            reverse_survived += sum(
                update.kind == "delete"
                and model.has_edge(update.target, update.source)
                for update in stats.applied
            )
            assert entry.adjacency() == model.adjacency()
            assert sibling.adjacency() == model.to_undirected().adjacency()
            assert entry.num_nodes == model.num_nodes
            assert entry.num_edges == model.num_edges
        assert reverse_survived > 0
        _assert_csr_equals(entry.csr, model)

        # Re-registering the original or the live topology is a no-op; a
        # third topology is refused.
        assert registry.register("g", graph, **KINDS[kind]) is entry
        assert registry.register("g", Graph(model.adjacency()), **KINDS[kind]) is entry
        with pytest.raises(ValueError, match="different topology"):
            registry.register("g", web_locality_graph(150, seed=12), **KINDS[kind])

        if kind != "process":  # process workers' overlays are out of reach
            registry.rebase("g")
            _assert_csr_equals(entry.csr, model)
            registry.snapshot("g", tmp_path / "snap")
            restored_registry = GraphRegistry()
            restored = restored_registry.restore(tmp_path / "snap")
            _assert_csr_equals(restored.csr, model)
            assert (
                restored_registry.undirected_variant(restored).adjacency()
                == model.to_undirected().adjacency()
            )
            restored_registry.close()

        replacement = web_locality_graph(150, seed=13)
        replaced = registry.replace("g", replacement)
        _assert_csr_equals(replaced.csr, replacement)
        assert (
            registry.undirected_variant(replaced).adjacency()
            == replacement.to_undirected().adjacency()
        )
    finally:
        registry.close()


def test_unsharded_restore_decodes_no_adjacency(tmp_path, monkeypatch):
    graph = web_locality_graph(150, seed=11)
    registry = GraphRegistry()
    registry.register("g", graph)
    batch = [EdgeUpdate.insert(0, 149), EdgeUpdate.delete(*next(graph.edges()))]
    registry.apply_updates("g", batch)
    registry.snapshot("g", tmp_path / "snap")

    def refuse(*args, **kwargs):
        raise AssertionError("restore decoded adjacency")

    with monkeypatch.context() as patch:
        patch.setattr(DeltaOverlay, "neighbors", refuse)
        patch.setattr(CGRGraph, "decode_all", refuse)
        restored = GraphRegistry().restore(tmp_path / "snap")
    _assert_csr_equals(restored.csr, graph.with_edge_updates(batch))
