"""Differential harness: GCGT vs the exact NaiveCPUEngine reference.

For each of the three synthetic graph families the paper's datasets fall
into (power-law social, uniform-dense brain-like, web-locality), every
application (BFS levels, CC labels, BC scores) must produce *identical*
results on the compressed GCGT engine and on the plain uncompressed
single-threaded CPU engine -- across all five strategy-ladder rungs of
Figure 9 and through the batched :class:`TraversalService` path.  Scheduling
optimizations and the serving layer may change cost, never answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.bc import betweenness_centrality
from repro.apps.bfs import bfs
from repro.apps.cc import connected_components
from repro.baselines.cpu import NaiveCPUEngine
from repro.graph.generators import (
    power_law_graph,
    uniform_dense_graph,
    web_locality_graph,
)
from repro.service import BCQuery, BFSQuery, CCQuery, TraversalService
from repro.traversal.gcgt import GCGTEngine, STRATEGY_LADDER

#: The three structural families of Table 1, scaled to differential-test size.
GRAPH_FAMILIES = {
    "power-law": lambda: power_law_graph(
        120, avg_degree=6.0, exponent=2.0, max_degree_fraction=0.25,
        hub_count=2, seed=42,
    ),
    "uniform-dense": lambda: uniform_dense_graph(
        96, degree=12, cluster_size=32, seed=43,
    ),
    "web-locality": lambda: web_locality_graph(120, avg_degree=8.0, seed=44),
}

#: BFS/BC sources: the node-id extremes plus an interior node.
SOURCES = (0, 57)


@pytest.fixture(scope="module")
def family_graphs():
    return {name: build() for name, build in GRAPH_FAMILIES.items()}


@pytest.fixture(scope="module")
def references(family_graphs):
    """Exact answers from the Naive CPU engine, computed once per family."""
    refs = {}
    for name, graph in family_graphs.items():
        undirected = graph.to_undirected()
        refs[name] = {
            "bfs": {s: bfs(NaiveCPUEngine(graph), s).levels for s in SOURCES},
            "cc": connected_components(NaiveCPUEngine(undirected)).labels,
            "bc": {s: betweenness_centrality(NaiveCPUEngine(graph), s)
                   for s in SOURCES},
            "undirected": undirected,
        }
    return refs


def _assert_bc_matches(result, expected):
    np.testing.assert_array_equal(result.distances, expected.distances)
    np.testing.assert_allclose(result.sigma, expected.sigma, rtol=1e-9)
    np.testing.assert_allclose(result.delta, expected.delta, rtol=1e-9)


@pytest.mark.parametrize("rung", list(STRATEGY_LADDER))
@pytest.mark.parametrize("family", list(GRAPH_FAMILIES))
class TestStrategyLadderDifferential:
    """Every ladder rung, every family, every application: exact agreement."""

    def test_bfs_levels_match_naive(self, family, rung, family_graphs, references):
        graph = family_graphs[family]
        engine = GCGTEngine.from_graph(graph, config=STRATEGY_LADDER[rung])
        for source in SOURCES:
            result = bfs(engine, source)
            np.testing.assert_array_equal(
                result.levels, references[family]["bfs"][source]
            )

    def test_cc_labels_match_naive(self, family, rung, family_graphs, references):
        undirected = references[family]["undirected"]
        engine = GCGTEngine.from_graph(undirected, config=STRATEGY_LADDER[rung])
        result = connected_components(engine)
        np.testing.assert_array_equal(result.labels, references[family]["cc"])

    def test_bc_scores_match_naive(self, family, rung, family_graphs, references):
        graph = family_graphs[family]
        engine = GCGTEngine.from_graph(graph, config=STRATEGY_LADDER[rung])
        for source in SOURCES:
            _assert_bc_matches(
                betweenness_centrality(engine, source),
                references[family]["bc"][source],
            )


@pytest.mark.parametrize("rung", list(STRATEGY_LADDER))
def test_service_batch_matches_naive_on_every_rung(
    rung, family_graphs, references
):
    """A mixed batch through TraversalService agrees with the CPU reference.

    One service per ladder rung (the service's engine configuration), all
    three families registered, BFS + CC + BC submitted as a single batch.
    """
    service = TraversalService(config=STRATEGY_LADDER[rung])
    queries = []
    for family, graph in family_graphs.items():
        service.register_graph(family, graph)
        queries.extend([
            BFSQuery(family, SOURCES[0]),
            CCQuery(family),
            BCQuery(family, SOURCES[1]),
            BFSQuery(family, SOURCES[1]),  # repeat-graph query (warm cache)
        ])

    results = service.submit(queries)
    assert len(results) == len(queries)

    index = 0
    for family in family_graphs:
        refs = references[family]
        bfs_res, cc_res, bc_res, bfs_repeat = results[index:index + 4]
        index += 4
        np.testing.assert_array_equal(
            bfs_res.value.levels, refs["bfs"][SOURCES[0]]
        )
        np.testing.assert_array_equal(cc_res.value.labels, refs["cc"])
        _assert_bc_matches(bc_res.value, refs["bc"][SOURCES[1]])
        np.testing.assert_array_equal(
            bfs_repeat.value.levels, refs["bfs"][SOURCES[1]]
        )


@pytest.mark.parametrize("rung", list(STRATEGY_LADDER))
def test_lone_service_bfs_matches_engine_session_on_every_rung(
    rung, family_graphs
):
    """A lone BFS through the service (a one-lane sweep) is the paper's BFS.

    Levels and iterations equal ``bfs()`` on a fresh session of the same
    entry's engine, and so do the modelled cost and elapsed proxy: serving
    a BFS alone adds no simulated work.
    """
    service = TraversalService(config=STRATEGY_LADDER[rung])
    for family, graph in family_graphs.items():
        entry = service.register_graph(family, graph)
        for source in SOURCES:
            (served,) = service.submit([BFSQuery(family, source)])
            session = entry.engine.new_session()
            expected = bfs(session, source)
            np.testing.assert_array_equal(served.value.levels, expected.levels)
            assert served.value.iterations == expected.iterations
            assert served.metrics.iterations == expected.iterations
            assert served.metrics.cost == session.cost()
            assert served.metrics.elapsed_proxy == (
                service.device.elapsed_proxy(session.metrics)
            )
            assert served.metrics.batch_lanes == 1


def test_service_default_config_is_full_gcgt(family_graphs, references):
    """The default serving configuration is the paper's full GCGT."""
    service = TraversalService()
    for family, graph in family_graphs.items():
        service.register_graph(family, graph)
    results = service.submit(
        [BFSQuery(family, SOURCES[0]) for family in family_graphs]
    )
    for family, result in zip(family_graphs, results):
        np.testing.assert_array_equal(
            result.value.levels, references[family]["bfs"][SOURCES[0]]
        )
