"""Tests for the personalized PageRank extension (Section 6)."""

import numpy as np
import pytest

from repro.apps.pagerank import personalized_pagerank, reference_pagerank
from repro.baselines.gpucsr import GPUCSREngine
from repro.compression.cgr import CGRGraph
from repro.dynamic.overlay import DeltaOverlay
from repro.dynamic.updates import EdgeUpdate
from repro.graph.generators import web_locality_graph
from repro.graph.graph import Graph
from repro.traversal.gcgt import GCGTEngine


@pytest.fixture
def strongly_connected_graph() -> Graph:
    """A small graph with no dangling nodes (every node has out-edges)."""
    n = 24
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, (i + 7) % n))
        edges.append((i, (i * 3 + 1) % n))
    return Graph.from_edges(n, edges)


class TestPersonalizedPageRank:
    @pytest.mark.parametrize("builder", [GCGTEngine.from_graph, GPUCSREngine.from_graph])
    def test_close_to_power_iteration_reference(self, strongly_connected_graph, builder):
        graph = strongly_connected_graph
        engine = builder(graph)
        result = personalized_pagerank(
            engine, source=0, epsilon=1e-7, degrees=graph.degrees()
        )
        reference = reference_pagerank(graph.adjacency(), source=0)
        assert np.allclose(result.estimates, reference, atol=2e-3)

    def test_source_has_largest_estimate(self, strongly_connected_graph):
        engine = GCGTEngine.from_graph(strongly_connected_graph)
        result = personalized_pagerank(
            engine, source=5, epsilon=1e-6, degrees=strongly_connected_graph.degrees()
        )
        assert result.top_nodes(1) == [5]
        assert result.pushes > 0

    def test_mass_is_conserved_up_to_truncation(self, strongly_connected_graph):
        graph = strongly_connected_graph
        engine = GCGTEngine.from_graph(graph)
        result = personalized_pagerank(engine, source=0, epsilon=1e-6, degrees=graph.degrees())
        total = result.estimates.sum() + result.residuals.sum()
        assert total == pytest.approx(1.0, abs=1e-6)
        assert result.estimates.sum() <= 1.0 + 1e-9

    def test_residuals_below_threshold_at_termination(self, strongly_connected_graph):
        graph = strongly_connected_graph
        engine = GCGTEngine.from_graph(graph)
        epsilon = 1e-5
        result = personalized_pagerank(engine, source=0, epsilon=epsilon, degrees=graph.degrees())
        thresholds = epsilon * np.maximum(1.0, graph.degrees())
        assert np.all(result.residuals <= thresholds + 1e-12)

    def test_works_without_precomputed_degrees(self, strongly_connected_graph):
        engine = GCGTEngine.from_graph(strongly_connected_graph)
        result = personalized_pagerank(engine, source=0, epsilon=1e-3)
        assert result.estimates[0] > 0

    def test_measured_degrees_follow_overlay_updates(self):
        # Regression: measured degrees were cached per engine for the life
        # of the process, so an engine whose overlay absorbed updates kept
        # splitting residuals by its old degrees (estimates summed to 1.63).
        graph = web_locality_graph(200, seed=3)
        overlay = DeltaOverlay(CGRGraph.from_adjacency(graph.adjacency()))
        engine = GCGTEngine(overlay)
        personalized_pagerank(engine, 0, epsilon=1e-6)
        absent = [t for t in range(1, 200) if not graph.has_edge(0, t)][:5]
        batch = [EdgeUpdate.insert(0, target) for target in absent]
        overlay.apply(batch)
        updated = personalized_pagerank(engine, 0, epsilon=1e-6)
        fresh = personalized_pagerank(
            GCGTEngine.from_graph(graph.with_edge_updates(batch)), 0, epsilon=1e-6
        )
        assert updated.estimates.sum() <= 1.0
        assert np.allclose(updated.estimates, fresh.estimates)

    def test_gcgt_and_csr_engines_agree(self, strongly_connected_graph):
        graph = strongly_connected_graph
        gcgt = personalized_pagerank(
            GCGTEngine.from_graph(graph), 0, epsilon=1e-6, degrees=graph.degrees()
        )
        csr = personalized_pagerank(
            GPUCSREngine.from_graph(graph), 0, epsilon=1e-6, degrees=graph.degrees()
        )
        assert np.allclose(gcgt.estimates, csr.estimates)

    def test_parameter_validation(self, strongly_connected_graph):
        engine = GCGTEngine.from_graph(strongly_connected_graph)
        with pytest.raises(ValueError):
            personalized_pagerank(engine, 0, alpha=1.5)
        with pytest.raises(ValueError):
            personalized_pagerank(engine, 0, epsilon=0.0)
        with pytest.raises(IndexError):
            personalized_pagerank(engine, 999)
