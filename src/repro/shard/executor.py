"""Parallel scatter-gather execution over sharded CGR graphs.

:class:`ShardExecutor` turns a :class:`~repro.shard.sharded.ShardedCGRGraph`
into a :class:`~repro.apps.pipeline.FrontierEngine`: every ``expand`` call is
one **superstep** of a bulk-synchronous computation.

* **Scatter** -- the frontier is routed to owning shards
  (:meth:`~repro.shard.partition.GraphPartition.split_frontier`) and each
  shard expands its share through its own resident
  :class:`~repro.traversal.gcgt.GCGTEngine`, collecting the decoded
  ``(source, neighbour)`` pairs.  This is where the expensive work --
  compressed-adjacency decode and the simulated warp traversal --
  parallelises.
* **Gather** -- the collected neighbour lists are replayed through the
  application's filter callback in *canonical order* (frontier order, then
  ascending neighbour id), on the coordinator.  Canonical replay decouples
  results from the sharding: the same float additions in the same order and
  the same admissions for **every** shard count and partitioner, whatever
  the scatter concurrency did.  Integer-valued answers (BFS levels, CC
  labels) equal the warp-scheduled unsharded engine bit for bit; float
  accumulations (PageRank, BC) equal the canonical-order unsharded
  expansion -- the Naive CPU reference -- float for float, and agree with
  the warp-scheduled engine to addition-order ulps.
* **Frontier exchange** -- admitted neighbours form the next frontier; at
  the next superstep they are routed to *their* owners, so a neighbour on a
  different shard than its discoverer is exactly one exchanged message.
  The executor counts the exchange volume and the per-superstep shard
  fan-out, surfaced per query as
  :attr:`~repro.service.queries.QueryMetrics.shard_fanout` /
  :attr:`~repro.service.queries.QueryMetrics.exchange_volume`.

Every per-shard operation is a module-level function of the shard's
:class:`_ShardState`, run through :meth:`ShardExecutor._on_shards` -- the
one place the backend matters:

* ``"inline"`` (default) -- the coordinator holds every shard's state and
  calls each shard in turn; deterministic, no IPC.  Its overlays are
  reachable (:attr:`ShardExecutor.has_local_overlays`), so only it
  snapshots, restores and rebases.
* ``"process"`` -- one single-worker process pool per shard; each worker
  holds its shard's state resident (encoded once at pool start) and
  applies each shipped function to it, so shards run concurrently outside
  the interpreter lock and supersteps ship only ids and neighbour lists.

The shard-throughput gate reads the modelled critical-path cost
(:attr:`ShardExecutor.critical_cost`), the same on both backends, on
``inline``; ``BENCH_shard.json`` records both backends' wall-clock.

Every shard reads through its own :class:`~repro.dynamic.DeltaOverlay`, so
:meth:`ShardExecutor.apply_updates` routes an update batch to owner shards
and absorbs it without re-encoding anything, mirroring the single-graph
dynamic path.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.apps.bfs import BFSResult, UNREACHED
from repro.obs.trace import NOOP_TRACER
from repro.compression.cgr import CGRGraph, UNCOMPRESSED_BITS_PER_EDGE
from repro.dynamic.compaction import CompactionPolicy
from repro.dynamic.overlay import DeltaOverlay
from repro.dynamic.updates import EdgeUpdate, UpdateStats, coerce_updates
from repro.gpu.device import GPUDevice
from repro.gpu.metrics import KernelMetrics
from repro.service.cache import DecodedAdjacencyCache
from repro.shard.sharded import ShardedCGRGraph
from repro.traversal.gcgt import GCGTConfig, GCGTEngine
from repro.traversal.msbfs import (
    MSBFSResult,
    lane_iterations_from_levels,
    validate_sources,
)

#: Supported execution backends.
BACKENDS = ("inline", "process")


class ShardWorkerError(RuntimeError):
    """A shard's worker process died mid-operation (process backend).

    Raised instead of the opaque :class:`~concurrent.futures.process.
    BrokenProcessPool` wherever the executor resolves worker futures, so a
    crashed worker (OOM-killed, segfaulted, interpreter torn down) fails the
    in-flight superstep **fast and loud** with the shard named, rather than
    hanging the coordinator or surfacing as an unrelated pool error several
    calls later.  The executor cannot continue after this -- its worker held
    the shard's only resident engine state -- so the owning registration
    must be rebuilt (re-register or restore the graph).
    """


@dataclass(frozen=True)
class ShardCounters:
    """Point-in-time executor counters (for per-query delta attribution).

    Attributes:
        supersteps: ``expand`` calls executed so far.
        exchange_volume: total scattered ``(source, neighbour)`` messages
            gathered back to the coordinator.
        boundary_messages: the subset of the exchange whose neighbour lives
            on a different shard than its source -- true cross-shard traffic.
        shard_touches: superstep tasks dispatched to each shard so far.
        cost: simulated total-work cost accumulated across shard engines.
        elapsed_proxy: cost divided by the device's warp-level parallelism.
    """

    supersteps: int
    exchange_volume: int
    boundary_messages: int
    shard_touches: tuple[int, ...]
    cost: float
    elapsed_proxy: float


# ---------------------------------------------------------------------------
# Per-shard state and operations (module level so the process backend can
# ship them to workers by import path).
# ---------------------------------------------------------------------------

class _ShardState:
    """One shard's resident engine and overlay plus traversal scratch.

    The engine decodes ``overlay`` through ``cache``.  The scratch arrays
    span the global id space but are authoritative only for the nodes the
    shard owns; each traversal resets them first.
    """

    def __init__(
        self,
        overlay: DeltaOverlay,
        device: GPUDevice,
        config: GCGTConfig,
        cache: DecodedAdjacencyCache,
    ) -> None:
        self.overlay = overlay
        self.engine = GCGTEngine(
            overlay, device=device, config=config, plan_cache=cache
        )
        #: ``(lanes, nodes)`` levels of the in-progress/last MS-BFS.
        self.levels: np.ndarray | None = None
        #: Per-node lane masks of the in-progress/last MS-BFS.
        self.seen: np.ndarray | None = None
        #: Per-node slot scratch of one superstep, :data:`_FREE_SLOT`
        #: between steps, so a step touches only its frontier and edges.
        self.slots: np.ndarray | None = None


def _shard_expand(
    state: _ShardState, nodes: list[int]
) -> tuple[dict[int, list[int]], KernelMetrics]:
    """One shard's expansion of distinct ``nodes``: neighbours per source.

    The collecting filter admits nothing (frontier management happens at the
    coordinator's canonical replay), so the expansion charges exactly the
    decode/traversal work the shard's engine would do anyway.  Tombstone
    suppression of the shard's overlay still runs ahead of the collector, so
    deleted edges never leave the shard.
    """
    collected: dict[int, set[int]] = {node: set() for node in nodes}

    def collect(source: int, neighbor: int) -> bool:
        collected[source].add(neighbor)
        return False

    session = state.engine.new_session()
    session.expand(nodes, collect)
    return (
        {node: sorted(neighbors) for node, neighbors in collected.items()},
        session.metrics,
    )


#: A free entry of :attr:`_ShardState.slots` (above every edge position).
_FREE_SLOT = np.iinfo(np.int64).max


def _shard_msbfs_reset(state: _ShardState, lanes: int) -> None:
    """Start a fresh MS-BFS: clear the shard's lane masks and level matrix."""
    num_nodes = state.overlay.num_nodes
    state.seen = np.zeros(num_nodes, dtype=np.uint64)
    state.slots = np.full(num_nodes, _FREE_SLOT, dtype=np.int64)
    state.levels = np.full((lanes, num_nodes), UNREACHED, dtype=np.int64)


def _shard_msbfs_step(
    state: _ShardState, nodes: np.ndarray, masks: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray, int, KernelMetrics | None]:
    """One shard's MS-BFS superstep: admit lanes shard-side, expand, emit masks.

    ``nodes``/``masks`` are globally merged candidate ids owned by this
    shard with the uint64 lane masks that discovered them last superstep.
    Lanes this shard has not yet seen for a node are admitted at ``depth``
    and recorded per lane; admitted nodes are expanded **once** through the
    shard engine -- one adjacency decode serves every packed search -- and
    each decoded neighbour accumulates the union of its discoverers'
    admitted masks.  Locally-owned lanes already seen are pruned before the
    exchange, so a message carries only lanes its target might still need.

    Running the admission *inside* the shard is what makes sharded BFS
    scale: the exchange carries at most one message per discovered node,
    not one per decoded edge or lane, and the coordinator never replays the
    filter.  Levels are distance-determined per lane, so the merged result
    is bit-identical to sequential ``bfs()`` runs, whatever the sharding.
    """
    seen = state.seen
    lane_levels = state.levels
    gained = masks & ~seen[nodes]
    live = gained != 0
    admitted = nodes[live]
    admitted_masks = gained[live]
    if len(admitted) == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.uint64),
            0,
            None,
        )
    seen[admitted] |= admitted_masks
    for lane in range(lane_levels.shape[0]):
        hit = admitted[(admitted_masks & np.uint64(1 << lane)) != 0]
        if len(hit):
            lane_levels[lane, hit] = depth

    # Record raw (source, neighbour) pairs -- the cheapest per-edge
    # callback -- and OR the discoverers' masks per target afterwards, in
    # bulk: the per-node slots map each source to its admitted mask and
    # each target to its first edge position, and are freed again where
    # touched, so the work scales with the frontier's edges, not the graph.
    sources: list[int] = []
    neighbors: list[int] = []
    add_source = sources.append
    add_neighbor = neighbors.append

    def collect(source: int, neighbor: int) -> bool:
        add_source(source)
        add_neighbor(neighbor)
        return False

    session = state.engine.new_session()
    session.expand(admitted.tolist(), collect)
    slots = state.slots
    slots[admitted] = np.arange(len(admitted))
    source_masks = admitted_masks[slots[np.asarray(sources, dtype=np.int64)]]
    slots[admitted] = _FREE_SLOT
    neighbor_ids = np.asarray(neighbors, dtype=np.int64)
    np.minimum.at(slots, neighbor_ids, np.arange(len(neighbor_ids)))
    reached = np.zeros(len(neighbor_ids), dtype=np.uint64)
    np.bitwise_or.at(reached, slots[neighbor_ids], source_masks)
    slots[neighbor_ids] = _FREE_SLOT
    firsts = np.flatnonzero(reached)
    targets = neighbor_ids[firsts]
    # Lanes this shard already levelled can be pruned here; remote targets
    # carry local zeros in ``seen``, so their masks pass through untouched.
    target_masks = reached[firsts] & ~seen[targets]
    keep = target_masks != 0
    return targets[keep], target_masks[keep], len(admitted), session.metrics


def _shard_levels(state: _ShardState) -> np.ndarray:
    """The shard's traversal levels (authoritative for its owned nodes)."""
    return state.levels


def _shard_apply(state: _ShardState, batch: list[EdgeUpdate]) -> UpdateStats:
    """Absorb an update sub-batch into the shard's overlay."""
    stats = state.overlay.apply(batch)
    cache = state.engine.plan_cache
    for node in stats.touched_nodes:
        cache.invalidate(node)
    return stats


def _shard_live_bits(state: _ShardState) -> int:
    """Live bits of the shard's overlay (side stream included)."""
    return state.overlay.live_bits


def _shard_adjacency(state: _ShardState, nodes) -> list[list[int]]:
    """Merged live adjacency of ``nodes`` (all owned by this shard)."""
    return [state.overlay.neighbors(node) for node in nodes]


def _shard_bulk_adjacency(state: _ShardState, nodes) -> list[list[int]]:
    """Merged live adjacency of ``nodes`` (all owned by this shard), clean
    nodes batch-decoded (see :meth:`~repro.dynamic.DeltaOverlay.adjacency`)."""
    return state.overlay.adjacency(nodes)


def _merge_exchange(
    exchanged: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Merge the shards' exchanged ``(targets, masks)`` per target:
    ascending unique targets, each with its lane masks OR-merged."""
    nodes, slot = np.unique(
        np.concatenate([targets for targets, _ in exchanged]),
        return_inverse=True,
    )
    merged = np.zeros(len(nodes), dtype=np.uint64)
    np.bitwise_or.at(
        merged, slot, np.concatenate([masks for _, masks in exchanged])
    )
    return nodes, merged


#: The process backend's worker-resident shard state, built once by
#: :func:`_worker_init` (a worker serves exactly one shard).
_WORKER_STATE: _ShardState | None = None


def _worker_init(
    adjacency: list[list[int]],
    config: GCGTConfig,
    cache_capacity: int,
    device: GPUDevice,
    compaction_policy: CompactionPolicy,
) -> None:
    """Build the shard's resident state inside the worker process.

    The executor's device and compaction policy are shipped along so the
    worker's cost metrics and compaction behaviour match what the inline
    backend produces from the same arguments.
    """
    global _WORKER_STATE
    cgr = CGRGraph.from_adjacency(adjacency, config.effective_cgr_config())
    _WORKER_STATE = _ShardState(
        DeltaOverlay(cgr, policy=compaction_policy),
        device, config, DecodedAdjacencyCache(cache_capacity),
    )


def _worker_call(fn: Callable, *args):
    """Apply a per-shard operation to the worker's resident shard state."""
    return fn(_WORKER_STATE, *args)


class ShardExecutor:
    """Superstep scatter-gather engine over the shards of one graph.

    Satisfies the :class:`~repro.apps.pipeline.FrontierEngine` protocol, so
    every application in :mod:`repro.apps` -- BFS, connected components,
    personalized PageRank, betweenness centrality -- runs on it unchanged,
    with results bit-identical to the unsharded canonical-order run.

    Args:
        sharded: the partitioned, per-shard-encoded graph.
        backend: ``"inline"`` or ``"process"`` (see module doc); the
            ``"process"`` backend runs one dedicated worker per shard.
        device: simulated device shared by the shard engines (defaults to a
            fresh :class:`~repro.gpu.GPUDevice`).
        config: engine configuration applied to every shard (its encoding
            part must match how ``sharded`` was encoded).
        cache_capacity: per-shard decoded-plan cache capacity.
        compaction_policy: per-shard overlay compaction policy.
        overlays: pre-built per-shard delta overlays to adopt instead of
            wrapping fresh ones around the shard encodes -- the restore path
            of the persistent store (:mod:`repro.store`), which rebuilds
            overlays with their snapshotted side streams, extents and
            pending deltas.  Each overlay must wrap the corresponding shard
            of ``sharded``; only the ``inline`` backend can adopt overlays
            (process workers build their own state).
        initial_epoch: coordinator mutation epoch to start from (a restored
            executor resumes at the snapshot's epoch, so
            :attr:`~repro.service.queries.QueryMetrics.graph_epoch` stays
            monotone across a save/restore cycle).
    """

    def __init__(
        self,
        sharded: ShardedCGRGraph,
        backend: str = "inline",
        device: GPUDevice | None = None,
        config: GCGTConfig | None = None,
        cache_capacity: int = 4096,
        compaction_policy: CompactionPolicy | None = None,
        overlays: list[DeltaOverlay] | None = None,
        initial_epoch: int = 0,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.backend = backend
        if overlays is not None:
            if not self.has_local_overlays:
                raise ValueError(
                    "restored overlays require the 'inline' backend; "
                    "process workers build their own state"
                )
            if len(overlays) != sharded.num_shards:
                raise ValueError(
                    f"got {len(overlays)} overlays for "
                    f"{sharded.num_shards} shards"
                )
            for index, overlay in enumerate(overlays):
                if overlay.base is not sharded.shards[index]:
                    raise ValueError(
                        f"overlay {index} does not wrap shard {index}'s "
                        "encode; overlays must be built over the sharded "
                        "graph's own streams"
                    )
        self.sharded = sharded
        self.partition = sharded.partition
        self.device = device or GPUDevice()
        self.config = config or GCGTConfig()
        self.cache_capacity = cache_capacity
        self.compaction_policy = compaction_policy or CompactionPolicy()
        self._num_edges = sharded.num_edges
        self._closed = False
        #: Per-shard base generation: bumped by :meth:`rebase_shard` every
        #: time a shard's overlay is folded into a fresh base encode, and
        #: seeded from the manifest on restore.  Snapshot base file names
        #: derive from it (``shard-<i>-gen-<g>.cgr``).
        self.base_generations = [0] * sharded.num_shards

        # Cumulative exchange / work counters (see ShardCounters).
        self.supersteps = 0
        self.exchange_volume = 0
        self.boundary_messages = 0
        self.shard_touches = [0] * sharded.num_shards
        #: Coordinator-side mutation epoch: advances once per effective
        #: update batch, whatever the backend, so
        #: :attr:`~repro.service.queries.QueryMetrics.graph_epoch` means the
        #: same thing for every sharded registration.  (Per-shard overlays
        #: keep their own finer-grained epochs for plan-cache keying.)
        self._epoch = initial_epoch
        #: Simulated critical-path cost: per superstep, the *maximum* of the
        #: participating shards' costs (shards run concurrently, the barrier
        #: waits for the slowest), summed over supersteps.  ``cost() /
        #: critical_cost`` is the parallel speedup one worker per shard
        #: achieves under the device cost model -- the same modelling step
        #: the CPU baselines apply (work divided by threads), needed because
        #: wall-clock scaling additionally depends on the host's core count.
        self.critical_cost = 0.0
        self.kernel_metrics = KernelMetrics()
        #: Cooperative cancellation hook: when set, polled once per
        #: superstep (every backend) at the top of each
        #: :meth:`expand`/:meth:`bfs`/:meth:`msbfs` iteration and before
        #: :meth:`gather_adjacency` reads.  Raising from it (e.g. a
        #: deadline or cancel probe, see :mod:`repro.server.deadline`)
        #: aborts the traversal between supersteps -- no partial superstep,
        #: no torn shard state; counters reflect exactly the supersteps
        #: that ran.  Installed per query by
        #: :meth:`~repro.service.TraversalService.submit`.
        self.checkpoint: Callable[[], None] | None = None
        #: Tracing hook, same installation pattern as :attr:`checkpoint`:
        #: the service's telemetry wiring replaces the no-op tracer, after
        #: which every superstep of :meth:`expand`/:meth:`bfs`/:meth:`msbfs`/
        #: :meth:`gather_adjacency` opens one ``superstep`` span (nested
        #: under the calling request's span tree).  Kernel steps carry per-
        #: shard device costs and the critical-path cost; gathers run no
        #: kernel and carry none.  The default records and allocates nothing.
        self.tracer = NOOP_TRACER

        #: Per-shard state held by the coordinator (``inline`` only).
        self._states: list[_ShardState] = []
        #: One single-worker pool per shard (``process`` only).
        self._process_pools: list[ProcessPoolExecutor] = []
        if backend == "process":
            for shard in range(sharded.num_shards):
                self._process_pools.append(ProcessPoolExecutor(
                    max_workers=1,
                    initializer=_worker_init,
                    initargs=(
                        sharded.shard_adjacency(shard),
                        self.config,
                        cache_capacity,
                        self.device,
                        self.compaction_policy,
                    ),
                ))
        else:
            if overlays is not None:
                # Restored overlays may carry update state the base encodes
                # predate; the live edge count is theirs, not the streams'.
                self._num_edges = sum(o.num_edges for o in overlays)
            else:
                overlays = [
                    DeltaOverlay(shard_cgr, policy=self.compaction_policy)
                    for shard_cgr in sharded.shards
                ]
            self._states = [
                _ShardState(
                    overlay, self.device, self.config,
                    DecodedAdjacencyCache(cache_capacity),
                )
                for overlay in overlays
            ]
        # The first per-shard call also forces worker start-up, so
        # construction cost never leaks into superstep timings and worker
        # init errors surface eagerly.
        self._refresh_live_bits()

    # -- graph facts (FrontierEngine surface + registry needs) ----------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the sharded graph (global id space)."""
        return self.sharded.num_nodes

    @property
    def num_edges(self) -> int:
        """Live edge count across all shards (tracks applied updates)."""
        return self._num_edges

    @property
    def num_shards(self) -> int:
        """Number of shards the executor fans out over."""
        return self.sharded.num_shards

    @property
    def epoch(self) -> int:
        """Mutation epoch: effective update batches absorbed, any backend."""
        return self._epoch

    @property
    def has_local_overlays(self) -> bool:
        """Whether the per-shard overlays live in this process.

        Snapshot capture, restore (adopting overlays) and :meth:`rebase_shard`
        need the overlays' bit-level state, so they require this; on the
        ``process`` backend that state lives in the workers, out of reach.
        """
        return self.backend == "inline"

    @property
    def overlays(self) -> list[DeltaOverlay]:
        """Per-shard delta overlays in shard order (empty unless
        :attr:`has_local_overlays`)."""
        return [state.overlay for state in self._states]

    @property
    def plan_caches(self) -> list[DecodedAdjacencyCache]:
        """Per-shard decoded-plan caches in shard order (empty unless
        :attr:`has_local_overlays`)."""
        return [state.engine.plan_cache for state in self._states]

    def live_bits(self) -> int:
        """Live compressed bits across shards (base + overlay side streams).

        After :meth:`close` this reports the last value observed while the
        executor was open (refreshed at close), so monitoring paths like
        :meth:`~repro.service.TraversalService.stats` keep working.
        """
        if not self._closed:
            self._refresh_live_bits()
        return self._final_live_bits

    def _refresh_live_bits(self) -> None:
        """Re-read the shards' aggregate live-bit count.

        The last observed count stays reportable after :meth:`close`, when
        the process backend's workers are gone.
        """
        self._final_live_bits = sum(self._on_all_shards(_shard_live_bits))

    @property
    def bits_per_edge(self) -> float:
        """Aggregate live bits per edge, overlay side streams included."""
        if self._num_edges == 0:
            return float("nan")
        return self.live_bits() / self._num_edges

    @property
    def compression_rate(self) -> float:
        """The paper's metric over aggregate live bits: 32 / bits-per-edge."""
        if self._num_edges == 0:
            return float("nan")
        return UNCOMPRESSED_BITS_PER_EDGE / self.bits_per_edge

    # -- per-shard calls, worker failure and cancellation ----------------------

    def _on_shards(self, fn: Callable, args: dict[int, tuple]) -> dict:
        """Run ``fn(shard_state, *args[shard])`` for every listed shard.

        Returns the results keyed by shard, in ``args`` order.  Inline calls
        run on the coordinator's shard states one after another; process
        calls are all submitted to their shards' workers before any is
        resolved, so the shards run concurrently.
        """
        if self.backend == "inline":
            return {
                shard: fn(self._states[shard], *shard_args)
                for shard, shard_args in args.items()
            }
        futures = {
            shard: self._process_pools[shard].submit(
                _worker_call, fn, *shard_args
            )
            for shard, shard_args in args.items()
        }
        return {
            shard: self._resolve(shard, future)
            for shard, future in futures.items()
        }

    def _on_all_shards(self, fn: Callable, *args) -> list:
        """Run ``fn(shard_state, *args)`` on every shard; results in shard
        order."""
        shards = range(self.num_shards)
        return list(self._on_shards(fn, dict.fromkeys(shards, args)).values())

    def _resolve(self, shard: int, future):
        """Resolve one worker future, failing fast on a dead worker.

        A :class:`~concurrent.futures.process.BrokenProcessPool` means the
        shard's worker process is gone along with its resident engine;
        re-raise it as :class:`ShardWorkerError` naming the shard so the
        caller sees an actionable diagnosis instead of a generic pool
        error (or, worse, a coordinator wedged on a pool that will never
        answer again).
        """
        try:
            return future.result()
        except BrokenProcessPool as error:
            raise ShardWorkerError(
                f"shard {shard} worker process died mid-operation "
                f"({error}); the shard's resident state is lost -- "
                "re-register or restore the graph to rebuild it"
            ) from error

    def _poll_checkpoint(self) -> None:
        """Run the installed cancellation checkpoint, if any (see
        :attr:`checkpoint`)."""
        checkpoint = self.checkpoint
        if checkpoint is not None:
            checkpoint()

    def _charge_superstep(
        self,
        span,
        shard_metrics: dict[int, KernelMetrics | None],
        **annotations,
    ) -> None:
        """Charge one superstep's per-shard kernel work.

        Merges every shard's metrics (``None``: the shard ran no kernel)
        into :attr:`kernel_metrics`, adds the slowest shard's device cost
        to :attr:`critical_cost` -- the barrier waits for it -- and, when
        ``span`` records, annotates it with the touched shards, per-shard
        costs, the step's critical cost and ``annotations``.
        """
        shard_costs: dict[int, float] = {}
        for shard, metrics in shard_metrics.items():
            if metrics is not None:
                self.kernel_metrics.merge(metrics)
                shard_costs[shard] = self.device.cost(metrics)
        critical = max(shard_costs.values(), default=0.0)
        self.critical_cost += critical
        if span.recording:
            span.annotate(
                shards=sorted(shard_metrics),
                shard_costs=shard_costs,
                critical_cost=critical,
                **annotations,
            )

    def _open_superstep(self, nodes: list[int]) -> dict[int, tuple]:
        """Split the distinct ``nodes`` by owner into per-shard call
        arguments, counting one superstep that touches those shards."""
        groups = self.partition.split_frontier(list(dict.fromkeys(nodes)))
        self.supersteps += 1
        for shard in groups:
            self.shard_touches[shard] += 1
        return {shard: (share,) for shard, share in groups.items()}

    def _merge_levels(self) -> np.ndarray:
        """Merge the shards' ``(lanes, nodes)`` MS-BFS levels, each shard
        authoritative for the nodes it owns."""
        shard_levels = self._on_all_shards(_shard_levels)
        merged = np.full_like(shard_levels[0], UNREACHED)
        for shard, owned in enumerate(self.partition.shard_nodes):
            merged[:, owned] = shard_levels[shard][:, owned]
        return merged

    # -- supersteps ------------------------------------------------------------

    def expand(self, frontier, filter_fn) -> list[int]:
        """One superstep: scatter the frontier, gather in canonical order.

        Semantically identical to
        :meth:`repro.traversal.gcgt.TraversalSession.expand` -- the filter
        sees every live ``(source, neighbour)`` pair exactly once per
        frontier occurrence of the source, sources in frontier order and
        neighbours ascending -- so any frontier application runs unchanged.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        self._poll_checkpoint()
        frontier = list(frontier)
        if not frontier:
            return []
        shares = self._open_superstep(frontier)
        with self.tracer.span(
            "superstep", op="expand", frontier=len(frontier)
        ) as span:
            results = self._on_shards(_shard_expand, shares)
            self._charge_superstep(
                span,
                {shard: metrics for shard, (_, metrics) in results.items()},
            )
        assignment = self.partition.assignment
        next_frontier: list[int] = []
        for node in frontier:
            shard = int(assignment[node])
            neighbors = results[shard][0][node]
            if not neighbors:
                continue
            self.exchange_volume += len(neighbors)
            owners = assignment[np.asarray(neighbors, dtype=np.int64)]
            self.boundary_messages += int((owners != shard).sum())
            for neighbor in neighbors:
                if filter_fn(node, neighbor):
                    next_frontier.append(neighbor)
        return next_frontier

    # -- superstep-native traversals -------------------------------------------

    def bfs(self, source: int) -> BFSResult:
        """Sharded single-source BFS: a one-lane :meth:`msbfs` sweep.

        Levels, iterations and visited counts are bit-identical to
        ``bfs(engine, source)`` on the unsharded engine.  This is the path
        the shard-throughput benchmark gates.  Raises :class:`IndexError`
        for an out-of-range source.
        """
        return self.msbfs([source]).result_for(0)

    def msbfs(self, sources) -> MSBFSResult:
        """Sharded lane-packed MS-BFS: one candidate exchange serves 64 lanes.

        The superstep-native analogue of
        :func:`repro.traversal.msbfs.msbfs`, and the only sharded BFS path
        (:meth:`bfs` is its one-lane case).  Unlike the generic
        :meth:`expand` path, which ships every decoded edge to the
        coordinator so arbitrary filters replay in canonical order, BFS
        admission is distance-determined: each shard keeps a ``uint64``
        lane mask per owned node, admits newly-gained lanes locally, and
        expands every admitted node **once per superstep** for all packed
        searches.  The frontier exchange carries ``(node id, lane mask)``
        pairs -- bounded by discovered nodes per level, not by edges or by
        lanes times nodes, because messages for the same target are
        OR-merged at the coordinator before routing.  Per-lane levels and
        iteration counts are bit-identical to ``bfs(engine, source)`` per
        source on the unsharded engine.

        Raises :class:`ValueError` for an empty or over-wide batch and
        :class:`IndexError` for out-of-range sources.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        batch = validate_sources(sources, self.num_nodes)
        lanes = len(batch)
        self._on_all_shards(_shard_msbfs_reset, lanes)

        # Duplicate sources collapse to one candidate with an OR'd mask.
        source_masks: dict[int, int] = {}
        for lane, source in enumerate(batch):
            source_masks[source] = source_masks.get(source, 0) | (1 << lane)
        nodes = np.fromiter(
            sorted(source_masks), dtype=np.int64, count=len(source_masks)
        )
        masks = np.asarray(
            [source_masks[int(node)] for node in nodes], dtype=np.uint64
        )
        sweeps = self._exchange_supersteps(
            self._route(nodes, masks), lanes=lanes
        )
        lane_levels = self._merge_levels()
        return MSBFSResult(
            sources=batch,
            lane_levels=lane_levels,
            lane_iterations=lane_iterations_from_levels(lane_levels),
            sweeps=sweeps,
        )

    def _route(self, nodes: np.ndarray, masks: np.ndarray) -> dict:
        """Split ascending node ids, with their lane masks, by owner shard:
        ``{shard: (nodes, masks)}`` in shard order."""
        owners = self.partition.assignment[nodes]
        routed = {}
        for shard in np.unique(owners):
            selected = owners == shard
            routed[int(shard)] = (nodes[selected], masks[selected])
        return routed

    def _exchange_supersteps(self, candidates: dict, lanes: int) -> int:
        """Run MS-BFS candidate-exchange supersteps until no shard has
        candidates.

        Superstep ``depth`` runs :func:`_shard_msbfs_step` on every shard
        with candidates.  Each step returns its exchanged ``(targets,
        masks)``, its admitted count and its kernel metrics;
        :func:`_merge_exchange` combines the shards' exchanges and
        :meth:`_route` sends them to their owners for the next superstep.
        Each superstep opens a ``superstep`` span.  Returns the number of
        supersteps that admitted any node.
        """
        assignment = self.partition.assignment
        depth = 0
        admitting = 0
        while candidates:
            self._poll_checkpoint()
            self.supersteps += 1
            for shard, (nodes, _) in candidates.items():
                self.shard_touches[shard] += 1
                self.exchange_volume += len(nodes)
            with self.tracer.span(
                "superstep", depth=depth, op="msbfs", lanes=lanes
            ) as span:
                results = self._on_shards(
                    _shard_msbfs_step,
                    {
                        shard: (nodes, masks, depth)
                        for shard, (nodes, masks) in candidates.items()
                    },
                )
                admitted = sum(result[2] for result in results.values())
                self._charge_superstep(
                    span,
                    {shard: result[3] for shard, result in results.items()},
                    admitted=admitted,
                )
                exchanged = []
                for shard, (targets, masks, _, _) in results.items():
                    if len(targets):
                        exchanged.append((targets, masks))
                        self.exchange_volume += len(targets)
                        self.boundary_messages += int(
                            (assignment[targets] != shard).sum()
                        )
            if admitted:
                admitting += 1
            candidates = (
                self._route(*_merge_exchange(exchanged))
                if exchanged else {}
            )
            depth += 1
        return admitting

    # -- work accounting -------------------------------------------------------

    def cost(self) -> float:
        """Simulated total-work cost accumulated across every shard engine."""
        return self.device.cost(self.kernel_metrics)

    def elapsed_proxy(self) -> float:
        """Accumulated cost divided by the device's warp-level parallelism."""
        return self.device.elapsed_proxy(self.kernel_metrics)

    def critical_elapsed_proxy(self) -> float:
        """Superstep critical-path cost over the device's warp parallelism.

        The parallel analogue of :meth:`elapsed_proxy`: per superstep only
        the slowest shard is charged, modelling one worker per shard.
        """
        return self.critical_cost / max(1, self.device.concurrent_warps)

    @property
    def parallel_speedup(self) -> float:
        """Modelled speedup of shard-parallel execution over serial execution:
        total accumulated work divided by the superstep critical path (1.0
        while no work has run)."""
        if self.critical_cost <= 0:
            return 1.0
        return self.cost() / self.critical_cost

    def counters(self) -> ShardCounters:
        """Freeze the exchange counters (for per-query delta attribution)."""
        return ShardCounters(
            supersteps=self.supersteps,
            exchange_volume=self.exchange_volume,
            boundary_messages=self.boundary_messages,
            shard_touches=tuple(self.shard_touches),
            cost=self.cost(),
            elapsed_proxy=self.elapsed_proxy(),
        )

    # -- updates ---------------------------------------------------------------

    def apply_updates(self, updates) -> UpdateStats:
        """Route an edge-update batch to owner shards and absorb it.

        Each update lands on the shard owning its *source* node (where the
        edge is stored), applied through that shard's delta overlay -- no
        shard is ever re-encoded.  Relative order of updates to the same
        source is preserved (they share a shard), which is all the batch
        semantics depend on: updates to different sources commute.  The
        whole batch is range-validated before any shard mutates, so a
        rejected batch is all-or-nothing, exactly like the single-graph
        overlay.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        batch = coerce_updates(updates)
        num_nodes = self.num_nodes
        for update in batch:
            for node in (update.source, update.target):
                if not 0 <= node < num_nodes:
                    raise ValueError(
                        f"node {node} out of range [0, {num_nodes})"
                    )
        sub_batches: dict[int, list[EdgeUpdate]] = {}
        assignment = self.partition.assignment
        for update in batch:
            sub_batches.setdefault(
                int(assignment[update.source]), []
            ).append(update)

        total = UpdateStats()
        results = self._on_shards(
            _shard_apply,
            {shard: (sub_batch,) for shard, sub_batch in sub_batches.items()},
        )
        for stats in results.values():
            total.merge(stats)
        self._refresh_live_bits()
        if total.changed:
            self._epoch += 1
        self._num_edges += total.inserted - total.deleted
        return total

    def rebase_shard(self, shard: int) -> dict:
        """Fold one shard's overlay into a fresh base encode (new generation).

        The shard's merged live adjacency -- base plus side-stream inserts,
        tombstones dropped -- is re-encoded into a new frozen CGR, a fresh
        empty overlay is wrapped around it, and the shard's engine is stood
        up again over the new overlay.  Topology, answers and the live edge
        count are unchanged; what changes is the storage layout: the side
        stream's garbage bits are reclaimed and the next snapshot writes a
        ``shard-<i>-gen-<g>.cgr`` base instead of re-listing the old one.

        The new overlay starts at ``old epoch + 1`` (a rebase is a mutation
        of the shard's bit-level state, and per-epoch delta file names must
        never be reused for different content) and carries the old overlay's
        cumulative counters so service stats stay monotone.  The shard's
        plan-cache *object* is kept and cleared (resident plans drop as
        evictions), mirroring :meth:`GraphRegistry.replace`.

        Requires :attr:`has_local_overlays` (process workers' overlay state
        lives out of reach, exactly like snapshot).  Returns a summary dict:
        shard, new ``generation``, reclaimed ``garbage_bits`` and the new
        overlay ``epoch``.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        if not self.has_local_overlays:
            raise RuntimeError(
                "cannot rebase a process-backed sharded entry: per-shard "
                "overlay state lives in worker processes; use the 'inline' "
                "backend for lifecycle maintenance"
            )
        if not 0 <= shard < self.num_shards:
            raise IndexError(
                f"shard {shard} out of range [0, {self.num_shards})"
            )
        old = self._states[shard]
        reclaimed = old.overlay.garbage_bits
        cgr = CGRGraph.from_adjacency(
            old.overlay.adjacency(), self.config.effective_cgr_config()
        )
        overlay = DeltaOverlay(cgr, policy=self.compaction_policy)
        overlay.epoch = old.overlay.epoch + 1
        overlay.updates_applied = old.overlay.updates_applied
        overlay.updates_ignored = old.overlay.updates_ignored
        overlay.compactions = old.overlay.compactions
        cache = old.engine.plan_cache
        cache.clear()
        self.sharded.shards[shard] = cgr
        self._states[shard] = _ShardState(
            overlay, self.device, self.config, cache
        )
        self.base_generations[shard] += 1
        # The coordinator epoch names sharded snapshot delta files
        # (shard-<i>-epoch-<E>.delta); a rebase changes the bit-level state
        # those files capture, so the epoch must advance or a later snapshot
        # would rewrite an already-published epoch's delta with new content.
        self._epoch += 1
        self._refresh_live_bits()
        return {
            "shard": shard,
            "generation": self.base_generations[shard],
            "garbage_bits": reclaimed,
            "epoch": overlay.epoch,
        }

    # -- materialisation -------------------------------------------------------

    def gather_adjacency(self, nodes) -> dict[int, list[int]]:
        """Read the live adjacency of ``nodes`` from their owner shards.

        The distinct ids are split by owner and each touched shard reads its
        share from its delta overlay (tombstones dropped, side-stream inserts
        and compacted extents merged): sorted neighbour lists keyed by node
        id.  This is the repair-read path of the incremental views
        (:mod:`repro.views`).  It counts as one superstep in the exchange
        ledger and opens one ``superstep`` span (``op="gather"``), but runs
        no simulated kernel: view maintenance reads are not modelled
        queries, so :attr:`kernel_metrics` and :attr:`critical_cost` stay.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        self._poll_checkpoint()
        node_list = [int(node) for node in nodes]
        if not node_list:
            return {}
        num_nodes = self.num_nodes
        for node in node_list:
            if not 0 <= node < num_nodes:
                raise IndexError(
                    f"node {node} out of range [0, {num_nodes})"
                )
        shares = self._open_superstep(node_list)
        with self.tracer.span("superstep", op="gather", nodes=len(node_list)):
            merged = self._read_shares(shares)
        self.exchange_volume += sum(map(len, merged.values()))
        return merged

    def read_adjacency(self, nodes) -> dict[int, list[int]]:
        """Live adjacency of ``nodes`` from their owner shards, off the ledger.

        The same owner-shard read as :meth:`gather_adjacency`, for the
        registry's own bookkeeping (the undirected mirror's reverse-edge
        test): it counts no superstep and no exchange volume and opens no
        span, so those counters keep measuring modelled traffic only.
        """
        groups = self.partition.split_frontier(list(dict.fromkeys(nodes)))
        return self._read_shares(
            {shard: (share,) for shard, share in groups.items()}
        )

    def _read_shares(self, shares: dict[int, tuple]) -> dict[int, list[int]]:
        """Each shard's ``(nodes,)`` share read from its overlay, merged."""
        lists = self._on_shards(_shard_adjacency, shares)
        merged: dict[int, list[int]] = {}
        for shard, (share,) in shares.items():
            merged.update(zip(share, lists[shard]))
        return merged

    def adjacency(self) -> list[list[int]]:
        """Every node's merged live adjacency (updates applied), node order.

        Each shard batch-decodes the nodes it owns.  Like
        :meth:`read_adjacency` it stays off the exchange ledger; on the
        process backend every list ships back from the workers.
        """
        owned = {
            shard: (nodes.tolist(),)
            for shard, nodes in enumerate(self.partition.shard_nodes)
        }
        merged: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for shard, lists in self._on_shards(_shard_bulk_adjacency, owned).items():
            for node, neighbors in zip(owned[shard][0], lists):
                merged[node] = neighbors
        return merged

    # -- lifecycle -------------------------------------------------------------

    def close(self, timeout: float | None = None) -> None:
        """Shut worker pools down; the executor cannot expand afterwards.

        Size/compression introspection stays available: the live-bit count
        is refreshed one last time before the pools go away.

        ``timeout`` bounds the shutdown, in seconds shared across every
        worker: process workers still alive when their slice of the budget
        runs out are terminated instead of joined, so a wedged or
        already-dead worker cannot hang the owning service's shutdown
        (``None`` preserves the unbounded graceful join).
        """
        if self._closed:
            return
        try:
            self._refresh_live_bits()
        except (ShardWorkerError, BrokenProcessPool):
            pass  # dead workers: keep the last observed count
        self._closed = True
        if timeout is None:
            for pool in self._process_pools:
                pool.shutdown(wait=True)
            return
        deadline = time.monotonic() + timeout
        workers = []
        for pool in self._process_pools:
            # The pool API has no timed join, so grab the worker processes
            # (private attribute, but the stdlib keeps it stable) before
            # shutdown clears them, then join each against the budget.
            workers.extend((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False)
        for worker in workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.is_alive():  # pragma: no cover - wedged worker
                worker.terminate()
                worker.join(timeout=1.0)

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardExecutor(shards={self.num_shards}, backend={self.backend!r}, "
            f"supersteps={self.supersteps}, exchange={self.exchange_volume})"
        )


__all__ = ["BACKENDS", "ShardCounters", "ShardExecutor", "ShardWorkerError"]
