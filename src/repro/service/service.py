"""The batched traversal service.

:class:`TraversalService` is the serving layer the ROADMAP's
heavy-query-traffic north star asks for: graphs are registered once (paying
encode + device residency once, see :mod:`repro.service.registry`), then any
number of mixed BFS/CC/BC queries are answered from the resident state.  Each
query runs on a fresh :class:`~repro.traversal.gcgt.TraversalSession`, so
queries never leak traversal state into each other while sharing the encoded
graph and the decoded-plan LRU cache.

``submit`` takes a heterogeneous batch and returns one
:class:`~repro.service.queries.QueryResult` per query, in order.  Per-query
metrics attribute exactly the encode and cache work that query caused, which
is what the differential and cache-behaviour test suites assert on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from repro.apps.bc import betweenness_centrality
from repro.apps.cc import connected_components
from repro.apps.pagerank import personalized_pagerank
from repro.dynamic.updates import UpdateStats
from repro.gpu.device import GPUDevice
from repro.graph.graph import Graph
from repro.obs.metrics import Bindings
from repro.obs.telemetry import Telemetry
from repro.traversal.gcgt import GCGTConfig
from repro.traversal.msbfs import LANE_WIDTH, msbfs

from repro.service.cache import hit_rate
from repro.service.queries import (
    BCQuery,
    BFSQuery,
    CCQuery,
    PageRankQuery,
    Query,
    QueryMetrics,
    QueryResult,
)
from repro.service.registry import GraphRegistry, RegisteredGraph
from repro.views.base import ViewResult, ViewStats
from repro.views.manager import ViewManager


def _split_count(total: int, lanes: int) -> list[int]:
    """Split an integer counter across lanes so the shares sum back exactly.

    Each lane gets ``total // lanes``; the remainder goes to the first
    lanes.  Used to attribute a shared sweep's additive counters (cache
    deltas, exchange volume) per query without inventing or losing counts.
    """
    base, remainder = divmod(total, lanes)
    return [base + (1 if lane < remainder else 0) for lane in range(lanes)]


@dataclass(frozen=True)
class ServiceStats:
    """Aggregate serving statistics across the life of the service.

    Attributes:
        graphs_resident: resident entries, undirected siblings included.
        encode_calls: full-graph CGR encodes the registry ever performed
            (update batches add none -- that is the dynamic-serving point).
        queries_served: queries answered since construction.
        cache_hits / cache_misses / cache_evictions / cache_invalidations:
            decoded-plan cache counters summed over all resident entries.
        cache_miss_decode_ns: total wall-clock nanoseconds spent decoding
            node plans on cache misses, summed over all resident entries.
        update_batches: edge-update batches absorbed via
            :meth:`TraversalService.apply_updates`.
        edges_inserted / edges_deleted: effective edge mutations applied.
        compactions: per-node delta-to-CGR folds across all overlays.
        bits_per_edge: per-graph live compression accounting -- for every
            directly registered graph name, the live bits (frozen base plus
            overlay side streams, summed across shards for sharded entries)
            divided by the live edge count.  Undirected CC siblings are a
            serving detail and are not listed.
        exchange_volume: total scatter-gather messages exchanged by sharded
            entries across the life of the service (0 with no sharded
            registrations).
        views_resident: materialized views currently registered.
        view_incremental_batches / view_skipped_batches /
        view_full_recomputes / view_stale_serves: the views' aggregate
            maintenance ledger -- batches repaired in place, batches proven
            irrelevant and skipped, batches that fell back to a from-scratch
            recompute, and results served stale under a staleness bound
            (see :class:`~repro.views.ViewStats`).
        view_maintenance_cost / view_avoided_cost: modelled maintenance
            work performed vs the from-scratch recompute work it replaced,
            summed over all views.
    """

    graphs_resident: int
    encode_calls: int
    queries_served: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_invalidations: int = 0
    update_batches: int = 0
    edges_inserted: int = 0
    edges_deleted: int = 0
    compactions: int = 0
    cache_miss_decode_ns: int = 0
    bits_per_edge: dict = field(default_factory=dict)
    exchange_volume: int = 0
    views_resident: int = 0
    view_incremental_batches: int = 0
    view_skipped_batches: int = 0
    view_full_recomputes: int = 0
    view_stale_serves: int = 0
    view_maintenance_cost: float = 0.0
    view_avoided_cost: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of plan lookups served from the caches."""
        return hit_rate(self.cache_hits, self.cache_misses)


class TraversalService:
    """Serve batches of graph-traversal queries over registered graphs."""

    def __init__(
        self,
        device: GPUDevice | None = None,
        config: GCGTConfig | None = None,
        cache_capacity: int = 4096,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.device = device or GPUDevice()
        self.config = config or GCGTConfig()
        self.registry = GraphRegistry(
            device=self.device,
            default_config=self.config,
            cache_capacity=cache_capacity,
        )
        #: Materialized views over registered graphs, maintained from the
        #: registry's delta stream (see :mod:`repro.views`).
        self.views = ViewManager(self.registry)
        #: Telemetry bundle (see :mod:`repro.obs`): the default is an inert
        #: one whose tracer never records, so standalone services pay only
        #: an enabled-flag check per would-be span.
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry.disabled()
        )
        self.tracer = self.telemetry.tracer
        self.views.tracer = self.tracer
        self.queries_served = 0
        #: The maintenance scheduler once :meth:`enable_maintenance` ran
        #: (``None`` until then); hosts drive it via ``tick()`` when idle.
        self.maintenance = None
        # Serializes serving against updates/registration so concurrent
        # callers (e.g. front-door dispatchers vs a writer thread) each see
        # one consistent overlay epoch per query.  Reentrant: view
        # maintenance runs inside update application.
        self._lock = threading.RLock()
        #: This service's callback-backed instruments, frozen at close.
        self._metric_bindings = Bindings()
        self._bind_metrics()

    # -- telemetry wiring -----------------------------------------------------

    def _bind_metrics(self) -> None:
        """Register callback-backed instruments over the live counters.

        Every instrument reads the *same* source :meth:`stats` snapshots
        (registry counters, plan-cache counters, the views' aggregate
        ledger), so the registry and ``ServiceStats`` can never disagree;
        nothing is evaluated until someone collects, so serving cost is
        zero.
        """
        metrics = self.telemetry.metrics
        registry = self.registry
        bind = self._metric_bindings.bind

        def cache_total(field_name: str) -> Callable[[], int]:
            def total() -> int:
                return sum(
                    getattr(cache, field_name)
                    for entry in registry.entries()
                    for cache in entry.all_plan_caches()
                )
            return total

        bind(metrics.counter(
            "service_queries_served_total",
            "Queries answered since service construction.",
        ), lambda: self.queries_served)
        bind(metrics.counter(
            "service_encode_calls_total",
            "Full-graph CGR encodes the registry ever performed.",
        ), lambda: registry.encode_calls)
        bind(metrics.counter(
            "service_update_batches_total",
            "Edge-update batches absorbed.",
        ), lambda: registry.update_batches)
        bind(metrics.counter(
            "service_edges_inserted_total",
            "Effective edge insertions applied.",
        ), lambda: registry.edges_inserted)
        bind(metrics.counter(
            "service_edges_deleted_total",
            "Effective edge deletions applied.",
        ), lambda: registry.edges_deleted)
        cache_events = metrics.counter(
            "service_cache_events_total",
            "Decoded-plan cache events summed over resident entries.",
            labels=("event",),
        )
        for event in ("hits", "misses", "evictions", "invalidations"):
            bind(cache_events, cache_total(event), event=event)
        bind(metrics.counter(
            "service_cache_miss_decode_ns_total",
            "Wall-clock nanoseconds spent decoding plans on cache misses.",
        ), cache_total("miss_decode_ns"))
        bind(metrics.counter(
            "service_exchange_volume_total",
            "Scatter-gather messages exchanged by sharded entries.",
        ), lambda: sum(
            entry.executor.exchange_volume
            for entry in registry.entries()
            if entry.executor is not None
        ))
        bind(metrics.gauge(
            "service_graphs_resident",
            "Resident graph entries, undirected siblings included.",
        ), lambda: len(registry.entries()))
        bind(metrics.gauge(
            "service_views_resident",
            "Materialized views currently registered.",
        ), lambda: len(self.views))
        view_events = metrics.counter(
            "service_view_events_total",
            "Aggregate view-maintenance ledger across all views.",
            labels=("event",),
        )
        for event in (
            "incremental_batches", "skipped_batches",
            "full_recomputes", "stale_serves",
        ):
            bind(
                view_events,
                (lambda name: lambda: getattr(
                    self.views.aggregate_stats(), name
                ))(event),
                event=event,
            )

    def _instrument_entry(self, entry: RegisteredGraph) -> None:
        """Point an entry's plan caches and executor at the service tracer.

        Called wherever entries come into existence (registration, restore,
        replacement, lazy undirected siblings), mirroring how the front
        door installs cancellation checkpoints.
        """
        for cache in entry.all_plan_caches():
            cache.tracer = self.tracer
        if entry.executor is not None:
            entry.executor.tracer = self.tracer

    # -- graph management -----------------------------------------------------

    def register_graph(
        self,
        name: str,
        graph: Graph,
        config: GCGTConfig | None = None,
        shards: int | None = None,
        partitioner=None,
        executor_backend: str = "inline",
    ) -> RegisteredGraph:
        """Encode ``graph`` once and keep it resident under ``name``.

        With ``shards=N`` the graph is registered sharded: split by
        ``partitioner`` (``"hash"``/``"range"``/``"greedy"`` or a
        :class:`~repro.shard.partition.Partitioner` instance), one CGR
        stream and delta overlay per shard, queries served as scatter-gather
        supersteps on ``executor_backend`` (see
        :class:`~repro.shard.executor.ShardExecutor`).  Answers do not
        depend on the sharding: BFS/CC results are bit-identical to an
        unsharded registration, float-valued results (PageRank, BC) follow
        the canonical expansion order (agreeing with the unsharded path to
        addition-order ulps); per-query metrics gain the shard fan-out and
        exchange volume.

        ``executor_backend="process"`` is for read-mostly graphs: its
        overlays live in the worker processes, so maintenance passes skip
        the entry (no compaction, rebase or snapshot) and
        :meth:`save_graph` / :meth:`rebase_graph` refuse it.
        """
        with self._lock:
            entry = self.registry.register(
                name, graph, config,
                shards=shards, partitioner=partitioner,
                executor_backend=executor_backend,
            )
            self._instrument_entry(entry)
            return entry

    def apply_updates(self, name: str, updates) -> UpdateStats:
        """Absorb an edge-update batch into the graph registered as ``name``.

        ``updates`` is a sequence of :class:`~repro.dynamic.EdgeUpdate` (or
        ``(kind, source, target)`` triples), applied in order through the
        entry's delta overlay -- the frozen base encode is never rebuilt.
        Subsequent queries see the mutated graph; answers are identical to
        re-registering the mutated graph from scratch, at a fraction of the
        ingest cost.  Returns what the batch actually changed.
        """
        with self._lock:
            with self.tracer.span("apply_updates", graph=name):
                return self.registry.apply_updates(name, updates)

    def replace_graph(
        self,
        name: str,
        graph: Graph,
        config: GCGTConfig | None = None,
    ) -> RegisteredGraph:
        """Swap the resident graph under ``name`` for entirely new data.

        For wholesale dataset refreshes where an update stream is not
        available; pays a full re-encode (see
        :meth:`~repro.service.GraphRegistry.replace`).  Materialized views
        of ``name`` are rebuilt from the new topology (there is no delta
        stream to repair them from).
        """
        with self._lock:
            entry = self.registry.replace(name, graph, config)
            self._instrument_entry(entry)
            self.views.invalidate_graph(name)
            return entry

    # -- materialized views ----------------------------------------------------

    def register_view(
        self,
        name: str,
        graph: str,
        kind: str,
        params: dict | None = None,
        refresh: str = "eager",
    ) -> ViewResult:
        """Materialize a named query view over a registered graph.

        ``kind`` is ``"cc"``, ``"pagerank"`` or ``"khop"``; ``params`` are
        kind-specific (e.g. ``{"source": 0}`` for PageRank and k-hop,
        ``{"source": 0, "mode": "approx", "max_staleness": 3}`` for
        bounded-staleness PageRank); ``refresh`` is ``"eager"`` (repaired
        inside every :meth:`apply_updates`) or ``"lazy"`` (repaired when
        read).  The view is built now and maintained incrementally from the
        update stream thereafter -- union-find repair for components,
        delta-push residual propagation for PageRank, frontier re-sweeps
        for k-hop levels (see :mod:`repro.views`).  Returns the freshly
        built first result.
        """
        with self._lock:
            return self.views.register_view(
                name, graph, kind, params=params, refresh=refresh
            )

    def view_result(self, name: str) -> ViewResult:
        """The view's current answer, epoch-tagged (see
        :meth:`~repro.views.ViewManager.view_result`); lazy views repair
        first unless within their staleness bound."""
        with self._lock:
            return self.views.view_result(name)

    def refresh_view(self, name: str, full: bool = False) -> ViewResult:
        """Force a view's maintenance now; ``full=True`` rebuilds from the
        live topology (resetting approximate-mode residual error)."""
        with self._lock:
            return self.views.refresh_view(name, full=full)

    def drop_view(self, name: str) -> None:
        """Stop maintaining a view and forget its materialized state (under
        the service lock, so a drop never lands mid-fan-out of a batch)."""
        with self._lock:
            self.views.drop_view(name)

    def view_stats(self, name: str) -> ViewStats:
        """One view's maintenance ledger (cumulative counters)."""
        return self.views.stats(name)

    # -- persistence ----------------------------------------------------------

    def save_graph(
        self,
        name: str,
        directory,
        config: GCGTConfig | None = None,
    ):
        """Snapshot the resident graph ``name`` to disk; returns the manifest.

        The snapshot captures the entry's full serving state -- the frozen
        base encode (written once, reused across epochs) and the dynamic
        overlay's bit-level state at the current epoch -- so a later
        :meth:`load_graph` (typically in a fresh process) resumes serving
        with bit-identical answers and simulated costs, without re-encoding
        anything.  See :mod:`repro.store` and ``docs/FORMAT.md``.
        """
        with self._lock:
            return self.registry.snapshot(name, directory, config)

    def load_graph(self, location) -> RegisteredGraph:
        """Restore a saved graph into this service -- the restart path.

        ``location`` is a snapshot directory or an explicit (possibly
        epoch-tagged) manifest path.  The graph is registered under its
        snapshotted name and configuration and is immediately queryable;
        cold-start cost is file I/O plus a bulk word wrap, gated >=10x
        cheaper than re-encoding by ``benchmarks/test_store_throughput.py``.
        """
        with self._lock:
            entry = self.registry.restore(location)
            self._instrument_entry(entry)
            return entry

    # -- lifecycle maintenance -------------------------------------------------

    def compact_graph(
        self,
        name: str,
        config: GCGTConfig | None = None,
        budget: int | None = None,
        should_yield: Callable[[], bool] | None = None,
    ) -> int:
        """Fold pending per-node deltas of ``name`` back into CGR form.

        The incremental maintenance step: up to ``budget`` dirty nodes
        (unbounded when ``None``) are compacted **largest delta first** --
        the ordering that reclaims the most decode work per re-encode --
        across every overlay backing the entry, sharded per-shard overlays
        and the lazily-built undirected sibling included.  Each compacted
        node's cached plan is invalidated in its owning cache.

        The service lock is taken *per node*, never for the whole pass, so
        a concurrent reader waits for at most one node's re-encode;
        ``should_yield`` is polled between nodes and ends the pass early
        (remaining work is simply picked up by a later tick).  Returns the
        number of nodes folded.
        """
        with self.tracer.span("maintenance.compact", graph=name) as span:
            with self._lock:
                entry = self.registry.resolve(name, config)
                pairs = list(
                    zip(entry.all_overlays(), entry.all_plan_caches())
                )
                if entry.undirected is not None:
                    pairs.extend(
                        zip(
                            entry.undirected.all_overlays(),
                            entry.undirected.all_plan_caches(),
                        )
                    )
                work = sorted(
                    (
                        (overlay.delta_size(node), node, overlay, cache)
                        for overlay, cache in pairs
                        for node in overlay.dirty_nodes()
                    ),
                    key=lambda item: (-item[0], item[1]),
                )
            compacted = 0
            for _, node, overlay, cache in work:
                if budget is not None and compacted >= budget:
                    break
                if should_yield is not None and should_yield():
                    break
                with self._lock:
                    # The node may have been compacted (or its overlay
                    # rebased away) since the work list was built; compact
                    # reports a clean node as a no-op.
                    if overlay.compact(node):
                        cache.invalidate(node)
                        compacted += 1
            if span.recording:
                span.annotate(compacted=compacted, dirty=len(work))
        return compacted

    def rebase_graph(
        self,
        name: str,
        config: GCGTConfig | None = None,
        shard: int | None = None,
    ) -> list[dict]:
        """Fold ``name``'s overlay state into fresh frozen base encode(s).

        The service-locked form of :meth:`~repro.service.GraphRegistry.
        rebase`: answers and topology are unchanged, garbage bits drop to
        zero, the base generation advances (the next snapshot writes a new
        ``base-gen-<g>.cgr``).  Pass ``shard`` to rebase one shard of a
        sharded entry -- the bounded-pause form the maintenance scheduler
        uses.  Returns one summary dict per rebased base.
        """
        with self.tracer.span(
            "maintenance.rebase", graph=name, shard=shard
        ) as span:
            with self._lock:
                reports = self.registry.rebase(name, config, shard=shard)
                # Rebase keeps cache and executor objects (counters and
                # tracer wiring survive); the swapped-in engine reads
                # through them, so no re-instrumentation is needed.
            if span.recording:
                span.annotate(
                    rebased=len(reports),
                    garbage_bits=sum(r["garbage_bits"] for r in reports),
                )
        return reports

    def start_cdc_export(self, name: str, path):
        """Export ``name``'s delta stream to an append-only CDC log.

        Durable change-data-capture: every effective update batch applied
        to ``name`` from now on is appended to ``path`` as one framed,
        CRC-checked record (see :mod:`repro.lifecycle.cdc` and
        ``docs/FORMAT.md``).  A :class:`~repro.lifecycle.FollowerReplica`
        restored from any snapshot of ``name`` tails that log to serve
        bit-identical answers.  Returns the writer (exposing
        ``records_written``); raises :class:`KeyError` for unknown names.
        """
        # Imported lazily: the service layer must not depend on lifecycle
        # at import time (lifecycle builds on the service for followers).
        from repro.lifecycle.cdc import CDCWriter

        with self._lock:
            self.registry.resolve(name)
            writer = CDCWriter(path, name)
            self.registry.subscribe(writer)
        return writer

    def enable_maintenance(self, config=None, directory=None):
        """Stand up the background maintenance scheduler for this service.

        Builds a :class:`~repro.lifecycle.MaintenanceScheduler` (compaction
        / rebase / snapshot+GC in bounded ticks, see
        :mod:`repro.lifecycle.maintenance`), remembers it as
        ``self.maintenance`` and returns it.  The scheduler is driven, not
        threaded: hosts call ``tick()`` when idle -- the front door does so
        automatically between request waves once
        :meth:`~repro.server.FrontDoor.attach_maintenance` is wired.
        """
        from repro.lifecycle.maintenance import MaintenanceScheduler

        self.maintenance = MaintenanceScheduler(
            self, config=config, directory=directory
        )
        return self.maintenance

    # -- serving --------------------------------------------------------------

    def submit(
        self,
        queries: Sequence[Query],
        checkpoint: Callable[[], None] | None = None,
    ) -> list[QueryResult]:
        """Answer a batch of mixed queries, one result per query, in order.

        Every query is **admitted** first -- its graph resolved
        (:class:`KeyError` for unknown names) and its source range-checked
        (:class:`IndexError`) -- before anything is served, so a bad query
        anywhere in the batch fails the whole batch without moving any
        cache or metrics counters.

        Every :class:`~repro.service.queries.BFSQuery` is served by a
        lane-packed MS-BFS sweep (see :mod:`repro.traversal.msbfs`).  BFS
        queries that resolve to the **same registered entry** (same graph,
        same configuration) are grouped, in submission order, into one
        sweep per :data:`~repro.traversal.msbfs.LANE_WIDTH` queries -- a
        lone BFS is a sweep of one lane: each adjacency list the union
        frontier touches is decoded once for up to 64 searches, on both the
        single-engine and scatter-gather sharded paths, with the whole
        group pinned to one overlay epoch.  Results are bit-identical to
        :func:`~repro.apps.bfs.bfs` per query; per-query metrics attribute
        the shared sweep by lane (see
        :attr:`~repro.service.queries.QueryMetrics.batch_lanes`).  CC, BC
        and PageRank queries run on their own traversal session over the
        shared resident graph.

        ``checkpoint``, when given, is a zero-argument callable polled
        **between queries** (and between the lane-packed sweeps of a wide
        BFS group) and, for sharded entries, **between supersteps** inside
        the executor (see :attr:`~repro.shard.ShardExecutor.checkpoint`).
        Raising from it (e.g. :class:`~repro.server.DeadlineExceeded`)
        aborts the rest of the batch at the next poll point -- the
        cooperative-cancellation hook the front door's deadlines ride on.
        Unsharded engines poll only between queries, so a single unsharded
        query runs to completion once started.

        ``submit`` is thread-safe: the service serializes serving against
        :meth:`apply_updates`/registration, so every query reads one
        consistent overlay epoch (recorded in its metrics) even with
        concurrent writers.
        """
        queries = list(queries)
        with self.tracer.span("service.submit", queries=len(queries)):
            with self._lock:
                return self._submit_locked(queries, checkpoint)

    def _submit_locked(
        self,
        queries: list[Query],
        checkpoint: Callable[[], None] | None,
    ) -> list[QueryResult]:
        """The body of :meth:`submit`, under the service lock."""
        entries = [self._admit(query) for query in queries]

        # BFS queries share lane-packed sweeps per entry (a lone one is a
        # group of one); everything else serves individually.  Results land
        # at their submission index.
        groups: dict[int, list[int]] = {}
        for index, (query, entry) in enumerate(zip(queries, entries)):
            if isinstance(query, BFSQuery):
                groups.setdefault(id(entry), []).append(index)
        group_of = {indices[0]: indices for indices in groups.values()}

        results: list[QueryResult | None] = [None] * len(queries)
        for index, (query, entry) in enumerate(zip(queries, entries)):
            if results[index] is not None:
                continue
            if checkpoint is not None:
                checkpoint()
            indices = group_of.get(index)
            if indices is None:
                results[index] = self._serve(query, entry, checkpoint)
            else:
                group = self._serve_bfs_group(
                    [queries[position] for position in indices],
                    entry,
                    checkpoint,
                )
                for position, result in zip(indices, group):
                    results[position] = result
        return results  # type: ignore[return-value]

    def _admit(self, query: Query) -> RegisteredGraph:
        """Validate one query and resolve its resident entry.

        Admission runs before any query in the batch is served: unknown
        graphs raise :class:`KeyError`, out-of-range sources raise
        :class:`IndexError` and unsupported query types raise
        :class:`TypeError` -- uniformly across query kinds, before any
        cache or metrics counters move.
        """
        if not isinstance(query, (BFSQuery, CCQuery, BCQuery, PageRankQuery)):
            raise TypeError(f"unsupported query type {type(query).__name__}")
        entry = self.registry.resolve(query.graph)
        source = getattr(query, "source", None)
        if source is not None and not 0 <= source < entry.num_nodes:
            raise IndexError(
                f"source {source} out of range [0, {entry.num_nodes})"
            )
        return entry

    def _run_metered(
        self,
        entry: RegisteredGraph,
        run: Callable,
        span,
        checkpoint: Callable[[], None] | None,
        encode_before: int,
    ) -> tuple[object, QueryMetrics]:
        """Run ``run(engine)`` inside ``span`` and meter what it cost.

        ``engine`` is the entry's sharded executor (with ``checkpoint``
        installed for the run, polled between supersteps) or a fresh
        traversal session of its engine, so the simulated cost is this
        run's alone.  Returns ``run``'s value and the run's totals as
        :class:`QueryMetrics` (``iterations`` left 0 for the caller): cost
        and elapsed proxy, the shard fan-out and exchange volume by
        executor-counter delta, the entry's plan-cache deltas, encodes
        since ``encode_before`` and the epoch the run read.
        """
        epoch = entry.epoch
        cache_before = entry.cache_counters()
        executor = entry.executor
        if executor is None:
            engine = entry.engine.new_session()
            with span:
                value = run(engine)
            cost = engine.cost()
            elapsed = self.device.elapsed_proxy(engine.metrics)
            shard_fanout = 0
            exchange_volume = 0
        else:
            shard_before = executor.counters()
            executor.checkpoint = checkpoint
            try:
                with span:
                    value = run(executor)
            finally:
                executor.checkpoint = None
            shard_after = executor.counters()
            cost = shard_after.cost - shard_before.cost
            elapsed = shard_after.elapsed_proxy - shard_before.elapsed_proxy
            shard_fanout = sum(
                1
                for before, after in zip(
                    shard_before.shard_touches, shard_after.shard_touches
                )
                if after > before
            )
            exchange_volume = (
                shard_after.exchange_volume - shard_before.exchange_volume
            )
        cache_after = entry.cache_counters()
        return value, QueryMetrics(
            cost=cost,
            elapsed_proxy=elapsed,
            iterations=0,
            cache_hits=cache_after.hits - cache_before.hits,
            cache_misses=cache_after.misses - cache_before.misses,
            encode_calls=self.registry.encode_calls - encode_before,
            cache_invalidations=(
                cache_after.invalidations - cache_before.invalidations
            ),
            graph_epoch=epoch,
            cache_miss_decode_ns=(
                cache_after.miss_decode_ns - cache_before.miss_decode_ns
            ),
            shard_fanout=shard_fanout,
            exchange_volume=exchange_volume,
        )

    def _serve_bfs_group(
        self,
        queries: list[BFSQuery],
        entry: RegisteredGraph,
        checkpoint: Callable[[], None] | None = None,
    ) -> list[QueryResult]:
        """Serve same-entry BFS queries through lane-packed MS-BFS sweeps.

        Queries are packed :data:`~repro.traversal.msbfs.LANE_WIDTH` at a
        time, in submission order; wider groups spill into consecutive
        sweeps (``checkpoint`` polled between them).  Each sweep runs
        either on a fresh traversal session of the entry's engine (so its
        simulated cost is the sweep's alone) or, for sharded entries,
        through the executor's superstep-native
        :meth:`~repro.shard.executor.ShardExecutor.msbfs`.
        """
        results: list[QueryResult] = []
        for start in range(0, len(queries), LANE_WIDTH):
            if checkpoint is not None and start > 0:
                checkpoint()
            results.extend(
                self._serve_bfs_sweep(
                    queries[start:start + LANE_WIDTH], entry, checkpoint
                )
            )
        return results

    def _serve_bfs_sweep(
        self,
        queries: list[BFSQuery],
        entry: RegisteredGraph,
        checkpoint: Callable[[], None] | None = None,
    ) -> list[QueryResult]:
        """One lane-packed sweep: run it, attribute shared work by lane.

        The whole sweep reads one overlay epoch and one counter window (see
        :meth:`_run_metered`).  Float costs divide evenly across lanes;
        additive integer counters split via :func:`_split_count` so
        per-query metrics sum back to the sweep's totals; ``iterations`` is
        each lane's own sequential-equivalent count; ``shard_fanout``
        (non-additive) reports the sweep's fan-out for every lane.  A sweep
        of one lane reports exactly the sweep's totals.
        """
        lanes = len(queries)
        sources = [query.source for query in queries]
        executor = entry.executor
        sweep_span = self.tracer.span(
            "msbfs.sweep", graph=entry.name, lanes=lanes, epoch=entry.epoch,
            sharded=executor is not None,
        )

        def run(engine):
            if executor is None:
                return msbfs(engine, sources)
            return executor.msbfs(sources)

        sweep, total = self._run_metered(
            entry, run, sweep_span, checkpoint, self.registry.encode_calls
        )
        self.queries_served += lanes
        if sweep_span.recording:
            sweep_span.annotate(
                cost=total.cost, sweeps=sweep.sweeps,
                exchange_volume=total.exchange_volume,
            )

        shares = {
            name: _split_count(getattr(total, name), lanes)
            for name in (
                "cache_hits", "cache_misses", "encode_calls",
                "cache_invalidations", "cache_miss_decode_ns",
                "exchange_volume",
            )
        }
        return [
            QueryResult(
                query=query,
                kind="bfs",
                value=sweep.result_for(lane),
                metrics=replace(
                    total,
                    cost=total.cost / lanes,
                    elapsed_proxy=total.elapsed_proxy / lanes,
                    iterations=sweep.lane_iterations[lane],
                    batch_lanes=lanes,
                    batch_lane=lane,
                    **{name: split[lane] for name, split in shares.items()},
                ),
            )
            for lane, query in enumerate(queries)
        ]

    def _serve(
        self,
        query: Query,
        entry: RegisteredGraph,
        checkpoint: Callable[[], None] | None = None,
    ) -> QueryResult:
        """Serve one CC, BC or PageRank query on its own frontier engine."""
        encode_before = self.registry.encode_calls
        if isinstance(query, CCQuery):
            entry = self.registry.undirected_variant(entry)
            self._instrument_entry(entry)
            kind = "cc"

            def run(engine):
                return connected_components(
                    engine, max_iterations=query.max_iterations
                )
        elif isinstance(query, BCQuery):
            kind = "bc"

            def run(engine):
                return betweenness_centrality(engine, query.source)
        elif isinstance(query, PageRankQuery):
            kind = "pagerank"

            def run(engine):
                degrees = np.fromiter(
                    map(len, entry.adjacency()), dtype=np.int64,
                    count=entry.num_nodes,
                )
                return personalized_pagerank(
                    engine,
                    query.source,
                    alpha=query.alpha,
                    epsilon=query.epsilon,
                    degrees=degrees,
                    max_iterations=query.max_iterations,
                )
        else:
            raise TypeError(f"unsupported query type {type(query).__name__}")

        query_span = self.tracer.span(
            "query", graph=query.graph, kind=type(query).__name__,
            sharded=entry.executor is not None,
        )
        value, total = self._run_metered(
            entry, run, query_span, checkpoint, encode_before
        )
        metrics = replace(total, iterations=value.iterations)
        self.queries_served += 1
        if query_span.recording:
            query_span.annotate(
                cost=metrics.cost, iterations=metrics.iterations,
                epoch=metrics.graph_epoch, cache_misses=metrics.cache_misses,
            )
        return QueryResult(query=query, kind=kind, value=value, metrics=metrics)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release sharded entries' worker pools (see
        :meth:`~repro.service.GraphRegistry.close`); idempotent.

        Also breaks the reference cycles a live service keeps, so a closed
        service is freed as soon as its last outside reference goes: its
        instruments (and the maintenance scheduler's) are pinned at their
        final values and the scheduler is dropped.
        """
        if self.maintenance is not None:
            self.maintenance.close()
            self.maintenance = None
        self._metric_bindings.freeze()
        self.registry.close()

    def __enter__(self) -> "TraversalService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection --------------------------------------------------------

    def stats(self) -> ServiceStats:
        """Aggregate registry + cache + update statistics for monitoring."""
        with self._lock:
            return self._stats_locked()

    def _stats_locked(self) -> ServiceStats:
        """The body of :meth:`stats`, under the service lock."""
        entries = self.registry.entries()
        caches = [cache for e in entries for cache in e.all_plan_caches()]
        overlays = [overlay for e in entries for overlay in e.all_overlays()]
        # One compression figure per directly registered name; with several
        # configurations under one name, the last-registered entry reports.
        bits_per_edge = {
            entry.name: entry.bits_per_edge
            for entry in self.registry.primary_entries()
        }
        view_totals = self.views.aggregate_stats()
        return ServiceStats(
            graphs_resident=len(entries),
            encode_calls=self.registry.encode_calls,
            queries_served=self.queries_served,
            cache_hits=sum(c.hits for c in caches),
            cache_misses=sum(c.misses for c in caches),
            cache_evictions=sum(c.evictions for c in caches),
            cache_invalidations=sum(c.invalidations for c in caches),
            update_batches=self.registry.update_batches,
            edges_inserted=self.registry.edges_inserted,
            edges_deleted=self.registry.edges_deleted,
            compactions=sum(o.compactions for o in overlays),
            cache_miss_decode_ns=sum(c.miss_decode_ns for c in caches),
            bits_per_edge=bits_per_edge,
            exchange_volume=sum(
                e.executor.exchange_volume
                for e in entries
                if e.executor is not None
            ),
            views_resident=len(self.views),
            view_incremental_batches=view_totals.incremental_batches,
            view_skipped_batches=view_totals.skipped_batches,
            view_full_recomputes=view_totals.full_recomputes,
            view_stale_serves=view_totals.stale_serves,
            view_maintenance_cost=view_totals.maintenance_cost,
            view_avoided_cost=view_totals.avoided_cost,
        )


__all__ = ["ServiceStats", "TraversalService"]
