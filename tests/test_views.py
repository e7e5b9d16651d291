"""Differential suite for incrementally maintained query views.

The core of the suite is one matrix: every view kind (CC, exact and
approximate personalized PageRank, unbounded and depth-bounded k-hop) over
three graph families, across shard counts {1, 2, 4} and unsharded, driven
by five scripted update interleavings (insert-only, delete-heavy, mixed
churn, compaction mid-stream, epoch straddling with lazy refresh).  After
**every** batch each view's answer is compared against a from-scratch
recompute on a shadow :class:`~repro.graph.Graph` mutated by the same
applied updates -- bit-identical for CC and k-hop levels, float-for-float
for exact PageRank, and within the residual-norm certificate for
approximate PageRank.

Around the matrix sit focused tests for the seams: lazy/eager equivalence,
bounded-staleness serving, full refresh resetting approximate error,
replacement invalidation, delta-record emission, the maintenance-ledger
counters, registration errors, and the empty-batch no-op regression
(an empty ``apply_updates`` batch must not bump any counter, epoch, cache
or view).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.bfs import UNREACHED, reference_bfs_levels
from repro.apps.cc import reference_components
from repro.apps.pagerank import personalized_pagerank
from repro.baselines.cpu import NaiveCPUEngine
from repro.dynamic import CompactionPolicy, EdgeUpdate
from repro.graph.generators import (
    power_law_graph,
    uniform_dense_graph,
    web_locality_graph,
)
from repro.graph.graph import Graph
from repro.service import CCQuery, TraversalService
from repro.views.base import GraphContext

SOURCE = 0
EXACT_EPS = 1e-4
APPROX_EPS = 1e-3
DEPTH = 3

#: The five resident views every matrix cell registers.
VIEW_SPECS = {
    "cc": ("cc", None),
    "pr_exact": ("pagerank", {"source": SOURCE, "epsilon": EXACT_EPS}),
    "pr_approx": (
        "pagerank",
        {"source": SOURCE, "epsilon": APPROX_EPS, "mode": "approx"},
    ),
    "kh": ("khop", {"source": SOURCE}),
    "kh_depth": ("khop", {"source": SOURCE, "depth": DEPTH}),
}

GRAPH_FAMILIES = {
    "web": lambda: web_locality_graph(48, avg_degree=5.0, seed=3),
    "power": lambda: power_law_graph(48, avg_degree=5.0, seed=5),
    "dense": lambda: uniform_dense_graph(48, degree=5, cluster_size=16, seed=7),
}

SHARD_COUNTS = (None, 2, 4)

SCRIPTS = ("insert_only", "delete_heavy", "mixed", "compaction", "straddle")

BATCHES_PER_SCRIPT = 4
OPS_PER_BATCH = 8


# ---------------------------------------------------------------------------
# Script machinery
# ---------------------------------------------------------------------------

def _existing_edges(model: Graph) -> list[tuple[int, int]]:
    """All directed edges of the shadow graph, deterministic order."""
    return [
        (u, v)
        for u, neighbors in enumerate(model.adjacency())
        for v in neighbors
    ]


def _make_batch(rng, model: Graph, delete_bias: float) -> list[EdgeUpdate]:
    """One update batch: inserts of random pairs, deletes of live edges."""
    n = model.num_nodes
    edges = _existing_edges(model)
    batch: list[EdgeUpdate] = []
    for _ in range(OPS_PER_BATCH):
        if edges and rng.random() < delete_bias:
            u, v = edges[int(rng.integers(len(edges)))]
            batch.append(EdgeUpdate.delete(int(u), int(v)))
        else:
            u, v = rng.integers(0, n, 2)
            if u == v:
                continue
            batch.append(EdgeUpdate.insert(int(u), int(v)))
    return batch


def _script_batches(script: str, rng, model: Graph):
    """Yield the update batches of one scripted interleaving.

    The shadow ``model`` is read for live edges but never mutated here --
    the caller advances it from the *applied* updates the service reports,
    so delete targets drift realistically as the stream progresses.
    """
    for step in range(BATCHES_PER_SCRIPT):
        if script == "insert_only":
            yield _make_batch(rng, model, delete_bias=0.0)
        elif script == "delete_heavy":
            yield _make_batch(rng, model, delete_bias=0.75)
        elif script in ("mixed", "compaction", "straddle"):
            batch = _make_batch(rng, model, delete_bias=0.4)
            if step % 2 == 1 and batch:
                # Same-pair churn inside one batch: net effect must win.
                first = batch[0]
                batch.append(EdgeUpdate.insert(first.source, first.target))
                batch.append(EdgeUpdate.delete(first.source, first.target))
            yield batch
        else:  # pragma: no cover - guarded by SCRIPTS
            raise AssertionError(script)


def _build_service(script: str, shards) -> TraversalService:
    """A service wired for the script (aggressive compaction mid-stream)."""
    service = TraversalService()
    if script == "compaction":
        service.registry.compaction_policy = CompactionPolicy(
            min_delta=1, degree_fraction=0.0
        )
    return service


def _register_all_views(service: TraversalService, refresh: str) -> None:
    for view_name, (kind, params) in VIEW_SPECS.items():
        service.register_view(view_name, "g", kind=kind,
                              params=params, refresh=refresh)


def _assert_views_match(service: TraversalService, model: Graph,
                        where: str) -> None:
    """Every resident view must agree with a from-scratch recompute."""
    cc = service.view_result("cc").value
    cc_oracle = reference_components(model.to_undirected().adjacency())
    assert np.array_equal(cc, cc_oracle), f"cc diverged at {where}"

    oracle_exact = personalized_pagerank(
        NaiveCPUEngine(model), SOURCE, epsilon=EXACT_EPS,
        degrees=model.degrees(),
    )
    exact = service.view_result("pr_exact").value
    assert np.array_equal(exact.estimates, oracle_exact.estimates), (
        f"exact pagerank diverged at {where}"
    )

    oracle_approx = personalized_pagerank(
        NaiveCPUEngine(model), SOURCE, epsilon=APPROX_EPS,
        degrees=model.degrees(),
    )
    approx = service.view_result("pr_approx").value
    l1_gap = float(np.abs(approx.estimates - oracle_approx.estimates).sum())
    bound = (
        approx.error_bound
        + float(np.abs(oracle_approx.residuals).sum())
        + 1e-9
    )
    assert l1_gap <= bound, (
        f"approx pagerank outside certificate at {where}: "
        f"gap={l1_gap} bound={bound}"
    )

    levels_oracle = reference_bfs_levels(model.adjacency(), SOURCE)
    levels = service.view_result("kh").value
    assert np.array_equal(levels, levels_oracle), f"khop diverged at {where}"

    clipped = levels_oracle.copy()
    clipped[clipped > DEPTH] = UNREACHED
    assert np.array_equal(service.view_result("kh_depth").value, clipped), (
        f"depth-bounded khop diverged at {where}"
    )


# ---------------------------------------------------------------------------
# The differential matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("script", SCRIPTS)
@pytest.mark.parametrize("shards", SHARD_COUNTS,
                         ids=lambda s: f"shards{s or 0}")
@pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
def test_views_differential_matrix(family, shards, script):
    """Every view kind stays oracle-identical through every interleaving."""
    graph = GRAPH_FAMILIES[family]()
    service = _build_service(script, shards)
    service.register_graph("g", graph, shards=shards)
    straddling = script == "straddle"
    _register_all_views(service, refresh="lazy" if straddling else "eager")

    rng = np.random.default_rng(hash((family, shards or 0, script)) % 2**32)
    model = graph
    for step, batch in enumerate(_script_batches(script, rng, model)):
        stats = service.apply_updates("g", batch)
        model = model.with_edge_updates(stats.applied)
        if straddling and step % 2 == 0:
            continue  # let lazy views straddle two epochs before reading
        _assert_views_match(service, model, f"{family}/{shards}/{script}@{step}")
    _assert_views_match(service, model, f"{family}/{shards}/{script}@end")


def test_single_shard_matches_unsharded():
    """shards=1 runs the sharded maintenance path, bit-identical results."""
    graph = GRAPH_FAMILIES["web"]()
    flat = TraversalService()
    flat.register_graph("g", graph)
    sharded = TraversalService()
    sharded.register_graph("g", graph, shards=1)
    _register_all_views(flat, refresh="eager")
    _register_all_views(sharded, refresh="eager")

    rng = np.random.default_rng(17)
    model = graph
    for _ in range(3):
        batch = _make_batch(rng, model, delete_bias=0.4)
        applied = flat.apply_updates("g", batch).applied
        sharded.apply_updates("g", batch)
        model = model.with_edge_updates(applied)
        for name in ("cc", "kh", "kh_depth"):
            assert np.array_equal(
                flat.view_result(name).value, sharded.view_result(name).value
            )
        assert np.array_equal(
            flat.view_result("pr_exact").value.estimates,
            sharded.view_result("pr_exact").value.estimates,
        )
    _assert_views_match(sharded, model, "shards1")


# ---------------------------------------------------------------------------
# Refresh policies and staleness
# ---------------------------------------------------------------------------

def test_lazy_views_match_eager_views_after_read():
    """A lazy view drained at read time equals an eager one."""
    graph = GRAPH_FAMILIES["power"]()
    eager = TraversalService()
    eager.register_graph("g", graph)
    lazy = TraversalService()
    lazy.register_graph("g", graph)
    _register_all_views(eager, refresh="eager")
    for view_name, (kind, params) in VIEW_SPECS.items():
        lazy.register_view(view_name, "g", kind=kind, params=params,
                           refresh="lazy")

    rng = np.random.default_rng(23)
    model = graph
    for _ in range(4):
        batch = _make_batch(rng, model, delete_bias=0.3)
        applied = eager.apply_updates("g", batch).applied
        lazy.apply_updates("g", batch)
        model = model.with_edge_updates(applied)
    for name in ("cc", "kh", "kh_depth"):
        assert np.array_equal(
            eager.view_result(name).value, lazy.view_result(name).value
        )
    assert np.array_equal(
        eager.view_result("pr_exact").value.estimates,
        lazy.view_result("pr_exact").value.estimates,
    )


def test_approx_staleness_bound_serves_then_drains():
    """Within ``max_staleness`` the stale answer is served, tagged; beyond
    it the queued deltas drain and the tag snaps fresh."""
    graph = GRAPH_FAMILIES["web"]()
    service = TraversalService()
    service.register_graph("g", graph)
    service.register_view(
        "pr", "g", kind="pagerank",
        params={"source": SOURCE, "mode": "approx", "max_staleness": 2},
        refresh="lazy",
    )

    service.apply_updates("g", [EdgeUpdate.insert(0, 40)])
    result = service.view_result("pr")
    assert result.staleness == 1
    assert result.epoch == 0
    assert service.view_stats("pr").stale_serves == 1

    service.apply_updates("g", [EdgeUpdate.insert(1, 41)])
    service.apply_updates("g", [EdgeUpdate.insert(2, 42)])
    result = service.view_result("pr")  # staleness 3 > budget 2: must drain
    assert result.staleness == 0
    assert result.epoch == 3
    assert service.view_stats("pr").stale_serves == 1

    # An exact view never serves stale, whatever the queue length.
    service.register_view("pr_exact", "g", kind="pagerank",
                          params={"source": SOURCE}, refresh="lazy")
    service.apply_updates("g", [EdgeUpdate.insert(3, 43)])
    assert service.view_result("pr_exact").staleness == 0


def test_full_refresh_resets_approximate_error():
    """``refresh_view(full=True)`` rebuilds: residual error returns to the
    from-scratch level and the refresh is counted."""
    graph = GRAPH_FAMILIES["dense"]()
    service = TraversalService()
    service.register_graph("g", graph)
    service.register_view(
        "pr", "g", kind="pagerank",
        params={"source": SOURCE, "epsilon": APPROX_EPS, "mode": "approx"},
    )
    rng = np.random.default_rng(29)
    model = graph
    for _ in range(3):
        batch = _make_batch(rng, model, delete_bias=0.4)
        model = model.with_edge_updates(service.apply_updates("g", batch).applied)

    refreshed = service.refresh_view("pr", full=True)
    oracle = personalized_pagerank(
        NaiveCPUEngine(model), SOURCE, epsilon=APPROX_EPS,
        degrees=model.degrees(),
    )
    assert np.array_equal(refreshed.value.estimates, oracle.estimates)
    assert service.view_stats("pr").refreshes == 1
    assert refreshed.staleness == 0


# ---------------------------------------------------------------------------
# Maintenance behaviour of individual kinds
# ---------------------------------------------------------------------------

def test_khop_harmless_delete_avoids_recompute():
    """Deleting an edge off every shortest path repairs incrementally;
    deleting a level-stepping edge falls back to one bounded recompute."""
    graph = Graph([[1, 2], [2], [], []])
    service = TraversalService()
    service.register_graph("g", graph)
    service.register_view("kh", "g", kind="khop", params={"source": 0})

    service.apply_updates("g", [EdgeUpdate.delete(1, 2)])  # levels unchanged
    stats = service.view_stats("kh")
    assert stats.full_recomputes == 0
    assert np.array_equal(service.view_result("kh").value,
                          np.array([0, 1, 1, UNREACHED]))

    service.apply_updates("g", [EdgeUpdate.delete(0, 2)])  # on a shortest path
    stats = service.view_stats("kh")
    assert stats.full_recomputes == 1
    assert np.array_equal(service.view_result("kh").value,
                          np.array([0, 1, UNREACHED, UNREACHED]))


def test_khop_insert_sweeps_only_from_changed_frontier():
    """An insert re-sweeps from the endpoint, never a full rebuild."""
    graph = Graph([[1], [2], [3], [], []])
    service = TraversalService()
    service.register_graph("g", graph)
    service.register_view("kh", "g", kind="khop", params={"source": 0})

    service.apply_updates("g", [EdgeUpdate.insert(0, 4)])
    service.apply_updates("g", [EdgeUpdate.insert(4, 3)])  # shortcut: 3 at 2
    stats = service.view_stats("kh")
    assert stats.full_recomputes == 0
    assert stats.incremental_batches == 2
    assert np.array_equal(service.view_result("kh").value,
                          np.array([0, 1, 2, 2, 1]))


def test_cc_deletion_repair_is_component_scoped():
    """Deleting a bridge splits one component; untouched components keep
    their labels without being revisited (bounded repair fan-out)."""
    # Two components: a 0-1-2 path and a 3-4 pair.
    graph = Graph([[1], [2], [], [4], []])
    service = TraversalService()
    service.register_graph("g", graph)
    service.register_view("cc", "g", kind="cc")
    assert np.array_equal(service.view_result("cc").value,
                          np.array([0, 0, 0, 3, 3]))

    service.apply_updates("g", [EdgeUpdate.delete(1, 2)])
    assert np.array_equal(service.view_result("cc").value,
                          np.array([0, 0, 2, 3, 3]))
    stats = service.view_stats("cc")
    # Repair touched the split component's members only (nodes 0..2).
    assert 0 < stats.repair_fanout <= 3
    assert stats.full_recomputes == 0


def test_cc_repair_scope_violation_raises(monkeypatch):
    """A gathered edge leaving the affected components means the resident
    partition was corrupted: the guard raises an explicit RuntimeError (not
    an ``assert``, which ``python -O`` strips)."""
    graph = Graph([[1], [2], [], [4], []])
    service = TraversalService()
    service.register_graph("g", graph)
    service.register_view("cc", "g", kind="cc")
    original = GraphContext.gather_adjacency

    def leaky_gather(context, nodes):
        adjacency = original(context, nodes)
        # Node 4 lies in the untouched 3-4 component, outside the scope.
        adjacency[min(adjacency)] = sorted(adjacency[min(adjacency)] + [4])
        return adjacency

    monkeypatch.setattr(GraphContext, "gather_adjacency", leaky_gather)
    with pytest.raises(RuntimeError, match="CC repair scope violated"):
        service.apply_updates("g", [EdgeUpdate.delete(1, 2)])


@pytest.mark.parametrize("shards", [None, 2], ids=["flat", "shards2"])
@pytest.mark.parametrize("refresh", ["eager", "lazy"])
def test_cc_view_builds_no_undirected_sibling(shards, refresh):
    """A CC view reads the directed entry: registering it and maintaining
    it through mixed batches leaves the undirected CC sibling unbuilt,
    until the first ``CCQuery`` asks for it."""
    graph = GRAPH_FAMILIES["web"]()
    service = TraversalService()
    service.register_graph("g", graph, shards=shards)
    service.register_view("cc", "g", kind="cc", refresh=refresh)
    entry = service.registry.resolve("g")
    assert entry.undirected is None
    assert service.stats().graphs_resident == 1

    rng = np.random.default_rng(41)
    model = graph
    for _ in range(5):
        batch = _make_batch(rng, model, delete_bias=0.5)
        model = model.with_edge_updates(service.apply_updates("g", batch).applied)
        labels = service.view_result("cc").value
        assert np.array_equal(
            labels, reference_components(model.to_undirected().adjacency())
        )
        assert entry.undirected is None
        assert service.stats().graphs_resident == 1

    [answer] = service.submit([CCQuery("g")])
    assert entry.undirected is not None
    assert service.stats().graphs_resident == 2
    assert np.array_equal(answer.value.labels, labels)


@pytest.mark.parametrize("shards", [None, 2], ids=["flat", "shards2"])
def test_cc_delete_with_live_reverse_edge_is_skipped(shards):
    """Deleting ``u -> v`` while ``v -> u`` lives removes no undirected
    edge: the batch is skipped without repair.  Deleting ``v -> u`` next
    removes the edge, and the repair splits the component."""
    # 0 <-> 1 -> 2 form one component; 3, 4, 5 are a second one.
    graph = Graph([[1], [0, 2], [], [4], [5], []])
    service = TraversalService()
    service.register_graph("g", graph, shards=shards)
    service.register_view("cc", "g", kind="cc")
    stats = service.view_stats("cc")

    service.apply_updates("g", [EdgeUpdate.delete(0, 1)])
    assert stats.skipped_batches == 1
    assert stats.incremental_batches == 0
    assert stats.repair_fanout == 0
    assert np.array_equal(service.view_result("cc").value,
                          np.array([0, 0, 0, 3, 3, 3]))

    service.apply_updates("g", [EdgeUpdate.delete(1, 0)])
    assert stats.skipped_batches == 1
    assert stats.incremental_batches == 1
    assert stats.repair_fanout == 3  # the members of {0, 1, 2} only
    assert np.array_equal(service.view_result("cc").value,
                          np.array([0, 1, 1, 3, 3, 3]))


def test_lazy_cc_span_reads_reverse_edges_at_drain_time():
    """A lazy CC view drains its span against the current topology: a
    delete whose reverse edge a later batch inserted removes no undirected
    edge by drain time, so the drain repairs nothing and still matches a
    from-scratch recompute."""
    graph = Graph([[1], [2], [], [4], []])
    service = TraversalService()
    service.register_graph("g", graph)
    service.register_view("cc", "g", kind="cc", refresh="lazy")

    service.apply_updates("g", [EdgeUpdate.delete(0, 1)])  # splits off 0
    service.apply_updates("g", [EdgeUpdate.insert(1, 0)])  # joins it back
    model = graph.with_edge_updates(
        [EdgeUpdate.delete(0, 1), EdgeUpdate.insert(1, 0)]
    )
    assert np.array_equal(
        service.view_result("cc").value,
        reference_components(model.to_undirected().adjacency()),
    )
    stats = service.view_stats("cc")
    assert stats.incremental_batches == 1
    assert stats.repair_fanout == 0


def test_exact_pagerank_skips_batches_outside_support():
    """Updates touching nodes outside the push support set are skipped --
    the stored answer is already float-identical to a replay."""
    # Source component 0-1 far from an isolated pair 10-11.
    adjacency = [[] for _ in range(12)]
    adjacency[0] = [1]
    adjacency[1] = [0]
    service = TraversalService()
    service.register_graph("g", Graph(adjacency))
    service.register_view("pr", "g", kind="pagerank", params={"source": 0})

    before = service.view_result("pr").value.estimates.copy()
    service.apply_updates("g", [EdgeUpdate.insert(10, 11)])
    stats = service.view_stats("pr")
    assert stats.skipped_batches == 1
    assert stats.full_recomputes == 0
    assert np.array_equal(service.view_result("pr").value.estimates, before)

    service.apply_updates("g", [EdgeUpdate.insert(1, 10)])  # touches support
    assert service.view_stats("pr").skipped_batches == 1
    model = Graph(adjacency).with_edge_updates(
        [EdgeUpdate.insert(10, 11), EdgeUpdate.insert(1, 10)]
    )
    oracle = personalized_pagerank(NaiveCPUEngine(model), 0,
                                   degrees=model.degrees())
    assert np.array_equal(service.view_result("pr").value.estimates,
                          oracle.estimates)


# ---------------------------------------------------------------------------
# Delta-record stream and epochs
# ---------------------------------------------------------------------------

def test_delta_records_emitted_per_effective_batch():
    """The registry emits one logical-epoch-tagged record per batch that
    changed something -- and none for ineffective or empty batches."""
    service = TraversalService()
    service.register_graph("g", Graph([[1], [], []]))
    records = []
    service.registry.subscribe(records.append)

    stats = service.apply_updates("g", [EdgeUpdate.insert(1, 2)])
    assert len(records) == 1
    record = records[0]
    assert record.name == "g"
    assert record.epoch == 1
    assert tuple(stats.applied) == record.applied
    assert record.touched_nodes == frozenset(stats.touched_nodes)
    assert service.registry.logical_epoch("g") == 1

    service.apply_updates("g", [EdgeUpdate.delete(0, 2)])  # absent: no-op
    assert len(records) == 1
    assert service.registry.logical_epoch("g") == 1

    service.apply_updates("g", [EdgeUpdate.delete(1, 2)])
    assert len(records) == 2
    assert records[1].epoch == 2


def test_view_results_carry_logical_epoch_tags():
    """Result epochs advance with effective batches, not compactions."""
    service = TraversalService()
    service.registry.compaction_policy = CompactionPolicy(
        min_delta=1, degree_fraction=0.0
    )
    service.register_graph("g", GRAPH_FAMILIES["web"]())
    service.register_view("cc", "g", kind="cc")
    assert service.view_result("cc").epoch == 0

    service.apply_updates("g", [EdgeUpdate.insert(0, 47)])
    result = service.view_result("cc")
    assert result.epoch == 1
    assert result.staleness == 0


def test_empty_update_batch_is_a_true_noop():
    """Regression: an empty batch must not bump ``update_batches``, the
    entry epoch, the logical epoch, any cache counter, or any view."""
    for shards in (None, 2):
        service = TraversalService()
        service.register_graph("g", GRAPH_FAMILIES["web"](), shards=shards)
        service.register_view("cc", "g", kind="cc")
        records = []
        service.registry.subscribe(records.append)

        service.apply_updates("g", [EdgeUpdate.insert(0, 40)])  # warm-up
        before = service.stats()
        epoch_before = service.registry.resolve("g").epoch
        views_before = service.view_stats("cc").batches_consumed
        records.clear()

        stats = service.apply_updates("g", [])
        assert stats.changed == 0

        after = service.stats()
        assert after.update_batches == before.update_batches
        assert after.cache_invalidations == before.cache_invalidations
        assert service.registry.resolve("g").epoch == epoch_before
        assert service.registry.logical_epoch("g") == 1
        assert service.view_stats("cc").batches_consumed == views_before
        assert records == []


# ---------------------------------------------------------------------------
# Lifecycle: replacement, dropping, stats plumbing, validation
# ---------------------------------------------------------------------------

def test_replace_graph_rebuilds_views_from_new_topology():
    """``replace_graph`` has no delta stream: views recompute wholesale."""
    service = TraversalService()
    service.register_graph("g", Graph([[1], [], []]))
    service.register_view("cc", "g", kind="cc")
    service.register_view("kh", "g", kind="khop", params={"source": 0},
                          refresh="lazy")
    service.apply_updates("g", [EdgeUpdate.insert(1, 2)])  # queue a delta

    replacement = Graph([[2], [], [1]])
    service.replace_graph("g", replacement)
    assert np.array_equal(
        service.view_result("cc").value,
        reference_components(replacement.to_undirected().adjacency()),
    )
    assert np.array_equal(
        service.view_result("kh").value,
        reference_bfs_levels(replacement.adjacency(), 0),
    )
    assert service.view_stats("cc").full_recomputes == 1
    assert service.view_stats("kh").full_recomputes == 1


def test_drop_view_stops_maintenance():
    service = TraversalService()
    service.register_graph("g", Graph([[1], []]))
    service.register_view("cc", "g", kind="cc")
    assert "cc" in service.views
    assert service.views.names() == ["cc"]
    service.drop_view("cc")
    assert len(service.views) == 0
    with pytest.raises(KeyError):
        service.view_result("cc")
    with pytest.raises(KeyError):
        service.drop_view("cc")


def test_service_stats_aggregate_view_ledgers():
    service = TraversalService()
    service.register_graph("g", GRAPH_FAMILIES["web"]())
    service.register_view("cc", "g", kind="cc")
    service.register_view("kh", "g", kind="khop", params={"source": SOURCE})
    service.apply_updates("g", [EdgeUpdate.insert(0, 40),
                                EdgeUpdate.insert(5, 41)])

    stats = service.stats()
    assert stats.views_resident == 2
    ledger_sum = (service.view_stats("cc").incremental_batches
                  + service.view_stats("kh").incremental_batches)
    skipped_sum = (service.view_stats("cc").skipped_batches
                   + service.view_stats("kh").skipped_batches)
    assert stats.view_incremental_batches == ledger_sum
    assert stats.view_skipped_batches == skipped_sum
    assert ledger_sum + skipped_sum == 2
    assert stats.view_maintenance_cost >= 0.0
    assert stats.view_avoided_cost > 0.0


def test_maintenance_ledger_shows_savings():
    """Across a realistic stream the avoided recompute cost dominates."""
    service = TraversalService()
    service.register_graph("g", GRAPH_FAMILIES["web"]())
    service.register_view("cc", "g", kind="cc")
    rng = np.random.default_rng(31)
    model = GRAPH_FAMILIES["web"]()
    for _ in range(5):
        batch = _make_batch(rng, model, delete_bias=0.2)
        model = model.with_edge_updates(service.apply_updates("g", batch).applied)
    stats = service.view_stats("cc")
    assert stats.builds == 1
    assert stats.batches_consumed == 5
    assert stats.savings_ratio > 1.0
    assert stats.maintenance_cost < stats.avoided_cost


def test_registration_validation():
    service = TraversalService()
    service.register_graph("g", Graph([[1], []]))
    service.register_view("cc", "g", kind="cc")

    with pytest.raises(ValueError, match="already registered"):
        service.register_view("cc", "g", kind="cc")
    with pytest.raises(ValueError, match="unknown view kind"):
        service.register_view("x", "g", kind="sssp")
    with pytest.raises(ValueError, match="refresh"):
        service.register_view("x", "g", kind="cc", refresh="sometimes")
    with pytest.raises(KeyError):
        service.register_view("x", "missing", kind="cc")
    with pytest.raises(ValueError, match="source"):
        service.register_view("x", "g", kind="pagerank")
    with pytest.raises(ValueError, match="source"):
        service.register_view("x", "g", kind="khop")
    with pytest.raises(ValueError):
        service.register_view("x", "g", kind="cc", params={"bogus": 1})
    with pytest.raises(ValueError):
        service.register_view(
            "x", "g", kind="pagerank",
            params={"source": 0, "mode": "psychic"},
        )
    with pytest.raises(KeyError):
        service.view_stats("missing")
    # Failed registrations must leave nothing behind.
    assert service.views.names() == ["cc"]
