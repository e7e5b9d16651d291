"""The GCGT engine: compressed-graph traversal with configurable optimizations.

:class:`GCGTEngine` owns a CGR-encoded graph resident in (simulated) device
memory and runs the expansion half of the expansion--filtering--contraction
pipeline over it, one frontier iteration at a time.  The filtering step is a
callback supplied by the application (BFS, CC, BC -- see :mod:`repro.apps`),
which keeps the engine application-agnostic exactly as Section 6 describes.

:class:`GCGTConfig` exposes the four optimization knobs of the paper as
booleans; :data:`STRATEGY_LADDER` lists the five cumulative configurations
Figure 9 sweeps (Intuitive -> +TwoPhase -> +TaskStealing -> +Warp-centric ->
+ResidualSegmentation = full GCGT).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Protocol, Sequence

from repro.compression.cgr import CGRConfig, CGRGraph
from repro.compression.vectorized import supports as batch_decodable
from repro.gpu.device import GPUDevice
from repro.gpu.metrics import KernelMetrics
from repro.graph.graph import Graph
from repro.traversal.bfs_basic import IntuitiveStrategy
from repro.traversal.context import (
    ExpandContext,
    FilterFn,
    NodePlan,
    build_node_plan,
    build_node_plans,
)
from repro.traversal.frontier import FrontierQueue
from repro.traversal.segmented import ResidualSegmentationStrategy
from repro.traversal.strategy import ExpansionStrategy
from repro.traversal.task_stealing import TaskStealingStrategy
from repro.traversal.two_phase import TwoPhaseStrategy
from repro.traversal.warp_decode import WarpCentricStrategy


@dataclass(frozen=True)
class GCGTConfig:
    """Which scheduling optimizations are enabled, plus the encoding config.

    The defaults correspond to the full GCGT configuration the paper uses in
    its main comparison (Figure 8) with the Table 2 encoding parameters.
    """

    two_phase: bool = True
    task_stealing: bool = True
    warp_centric: bool = True
    residual_segmentation: bool = True
    #: Residual runs at least this long are decoded warp-centrically; ``None``
    #: resolves to twice the warp size at run time.
    long_residual_threshold: int | None = None
    cgr: CGRConfig = field(default_factory=CGRConfig.paper_defaults)

    def effective_cgr_config(self) -> CGRConfig:
        """The encoding config actually used, honouring the segmentation knob."""
        if self.residual_segmentation:
            return self.cgr
        return replace(self.cgr, residual_segment_bits=None)

    def build_strategy(self) -> ExpansionStrategy:
        """Instantiate the most advanced strategy the enabled knobs allow."""
        if self.residual_segmentation:
            return ResidualSegmentationStrategy(self.long_residual_threshold)
        if self.warp_centric:
            return WarpCentricStrategy(self.long_residual_threshold)
        if self.task_stealing:
            return TaskStealingStrategy()
        if self.two_phase:
            return TwoPhaseStrategy()
        return IntuitiveStrategy()

    @property
    def strategy_name(self) -> str:
        """Display name of the strategy the enabled knobs produce."""
        return self.build_strategy().name


#: The cumulative optimization ladder of Figure 9: display name -> config.
STRATEGY_LADDER: dict[str, GCGTConfig] = {
    "Intuitive": GCGTConfig(
        two_phase=False, task_stealing=False, warp_centric=False,
        residual_segmentation=False,
    ),
    "TwoPhaseTraversal": GCGTConfig(
        two_phase=True, task_stealing=False, warp_centric=False,
        residual_segmentation=False,
    ),
    "TaskStealing": GCGTConfig(
        two_phase=True, task_stealing=True, warp_centric=False,
        residual_segmentation=False,
    ),
    "Warp-centric": GCGTConfig(
        two_phase=True, task_stealing=True, warp_centric=True,
        residual_segmentation=False,
    ),
    "ResidualSegmentation": GCGTConfig(
        two_phase=True, task_stealing=True, warp_centric=True,
        residual_segmentation=True,
    ),
}


#: Warp chunks per frontier window.  A window's plans are resolved in one
#: cache pass and the ones it will miss are decoded in one vectorized batch
#: before its chunks run: per chunk (32 nodes) the batch's fixed numpy cost
#: eats the gain, at a few hundred nodes it is about 2-3x cheaper per node
#: than the scalar builder.
PLAN_WINDOW_CHUNKS = 8

#: Fewest predicted misses worth a batch decode; smaller sets stay on the
#: scalar builder, which is as fast there.
MIN_PLAN_BATCH = 32


class PlanCache(Protocol):
    """What an engine needs from a decoded-plan cache (see
    :class:`repro.service.cache.DecodedAdjacencyCache` for the LRU implementation)."""

    def resolve(
        self,
        nodes: Sequence[int],
        epochs: Sequence[int],
        build: Callable[[int], NodePlan],
        decoded: dict[int, tuple[NodePlan, int]] | None = None,
    ) -> list[NodePlan]:
        """The plans of ``nodes``, looked up one by one in order.

        ``epochs[i]`` is ``nodes[i]``'s current mutation epoch (always 0 for
        static graphs); a cached plan from a different epoch is stale and
        must be rebuilt, never served.  A miss takes its plan from
        ``decoded`` (batch-decoded ahead, with its share of the batch
        nanoseconds) when the node is there, else from ``build(node)``.
        """
        ...  # pragma: no cover - protocol

    def __len__(self) -> int:
        """Resident plans."""
        ...  # pragma: no cover - protocol

    def epoch_of(self, node: int) -> int | None:
        """Epoch of the resident plan of ``node``, or ``None``."""
        ...  # pragma: no cover - protocol


class TraversalSession:
    """Per-query traversal state drawn from a resident :class:`GCGTEngine`.

    The engine owns everything shareable and expensive -- the encoded CGR
    graph, the device, the scheduling strategy and the decoded-plan cache.  A
    session owns only what is private to one query: its accumulated
    :class:`KernelMetrics`.  Many sessions can run over one engine, which is
    what lets a serving layer (:class:`repro.service.TraversalService`) pay
    the encode cost once per graph instead of once per query.
    """

    def __init__(self, engine: "GCGTEngine") -> None:
        self.engine = engine
        self.metrics = KernelMetrics()

    # -- graph facts (delegated so apps can run on a session directly) --------

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the shared resident graph."""
        return self.engine.graph.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of stored directed edges in the shared resident graph."""
        return self.engine.graph.num_edges

    @property
    def compression_rate(self) -> float:
        """Compression rate of the shared resident graph."""
        return self.engine.graph.compression_rate

    # -- traversal -------------------------------------------------------------

    def reset_metrics(self) -> None:
        """Clear accumulated counters before a fresh measurement run."""
        self.metrics = KernelMetrics()

    def expand(self, frontier: Sequence[int], filter_fn: FilterFn) -> list[int]:
        """Run one expansion--filtering--contraction iteration.

        ``frontier`` holds the current iteration's nodes; ``filter_fn`` is the
        application's filtering callback.  Returns the next frontier (the
        contraction output) and accumulates cost counters in :attr:`metrics`.
        """
        engine = self.engine
        iteration_metrics = engine.device.new_metrics()
        warp = engine.device.new_warp(iteration_metrics)
        out_queue = FrontierQueue()
        # Dynamic graphs (repro.dynamic.DeltaOverlay) interpose tombstone
        # suppression between decode and the application filter; static CGR
        # graphs have no wrap_filter hook and pass the filter through as-is.
        if engine._filter_wrapper is not None:
            filter_fn = engine._filter_wrapper(filter_fn)
        ctx = ExpandContext(engine.graph, warp, filter_fn, out_queue)
        expand_chunk = engine.strategy.expand_chunk
        warp_size = engine.device.warp_size
        window = warp_size * PLAN_WINDOW_CHUNKS
        for window_begin in range(0, len(frontier), window):
            nodes = frontier[window_begin:window_begin + window]
            plans = engine.resolve_plans(nodes)
            for begin in range(0, len(nodes), warp_size):
                ctx.resolved = plans[begin:begin + warp_size]
                expand_chunk(ctx, list(nodes[begin:begin + warp_size]))
        iteration_metrics.launches += 1
        self.metrics.merge(iteration_metrics)
        return out_queue.pending

    def cost(self) -> float:
        """Scalar elapsed-time proxy of all work since the last reset."""
        return self.engine.device.cost(self.metrics)


class GCGTEngine:
    """Traversal engine over a CGR graph resident on a simulated GPU device.

    The engine models one-time graph residency: encode once, load into device
    memory once, then serve any number of traversals.  Per-query state lives
    in :class:`TraversalSession` objects handed out by :meth:`new_session`;
    for the common single-query use the engine keeps a default session and
    exposes its ``expand``/``metrics``/``cost`` surface directly, so
    ``bfs(engine, source)`` works exactly as before.
    """

    def __init__(
        self,
        cgr_graph: CGRGraph,
        device: GPUDevice | None = None,
        config: GCGTConfig | None = None,
        plan_cache: "PlanCache | None" = None,
    ) -> None:
        self.config = config or GCGTConfig()
        self.device = device or GPUDevice()
        self.graph = cgr_graph
        self.strategy = self.config.build_strategy()
        self.device.check_fits(self.graph.size_in_bytes(), what="CGR graph")
        #: Optional LRU cache of decoded :class:`NodePlan` objects shared by
        #: every session on this engine (see :class:`PlanCache`).
        self.plan_cache = plan_cache
        # Dynamic-graph hooks (repro.dynamic.DeltaOverlay) are fixed for the
        # engine's lifetime; resolve them once rather than per window --
        # plan resolution is the hot path of every traversal.  Plain
        # CGRGraphs have none, leaving the static fast paths.  The plan
        # builders are looked up on the graph for each window instead, so a
        # wrapper installed around them (and later removed) never outlives
        # its removal in an engine built meanwhile.
        self._merged_plans = hasattr(cgr_graph, "build_node_plan")
        self._node_epoch_of = getattr(cgr_graph, "node_epoch", None)
        self._is_dirty = getattr(cgr_graph, "is_dirty", None)
        self._filter_wrapper = getattr(cgr_graph, "wrap_filter", None)
        self._batch_plans = batch_decodable(getattr(cgr_graph, "base", cgr_graph))
        self._default_session = TraversalSession(self)

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        config: GCGTConfig | None = None,
        device: GPUDevice | None = None,
        plan_cache: "PlanCache | None" = None,
    ) -> "GCGTEngine":
        """Compress ``graph`` on the host and load the CGR into device memory."""
        config = config or GCGTConfig()
        cgr = CGRGraph.from_adjacency(graph.adjacency(), config.effective_cgr_config())
        return cls(cgr, device=device, config=config, plan_cache=plan_cache)

    # -- basic graph facts ---------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the resident graph."""
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of stored directed edges in the resident graph."""
        return self.graph.num_edges

    @property
    def compression_rate(self) -> float:
        """Compression rate of the resident graph (32 / bits-per-edge)."""
        return self.graph.compression_rate

    # -- sessions -------------------------------------------------------------------

    def new_session(self) -> TraversalSession:
        """A fresh per-query traversal session over the resident graph."""
        return TraversalSession(self)

    def node_plan(self, node: int) -> NodePlan:
        """Decode plan of ``node``: a one-node :meth:`resolve_plans`."""
        return self.resolve_plans([node])[0]

    def resolve_plans(self, nodes: Sequence[int]) -> list[NodePlan]:
        """The plans of one frontier window, in lookup order.

        One pass over the window: the nodes' mutation epochs are read once
        (plain :class:`~repro.compression.cgr.CGRGraph` objects are at
        epoch 0), the predicted misses are batch-decoded
        (:meth:`_batch_decode`), and the plan cache replays every lookup in
        order (:meth:`~repro.service.cache.DecodedAdjacencyCache.resolve`),
        so hits, misses, evictions and invalidations are those of one
        lookup per node.  A miss without a batch plan -- a dirty overlay
        node, a repeat of a node an earlier miss evicted, a window too
        small to batch -- runs the scalar builder: the graph's merged
        :meth:`~repro.dynamic.DeltaOverlay.build_node_plan` for graphs that
        maintain per-node deltas, the structural
        :func:`~repro.traversal.context.build_node_plan` otherwise.  Without
        a plan cache every node's plan is built (batch or scalar) afresh.
        """
        graph = self.graph
        if self._merged_plans:
            build = graph.build_node_plan
        else:
            build = partial(build_node_plan, graph)
        epoch_of = self._node_epoch_of
        epochs = [0] * len(nodes) if epoch_of is None else list(map(epoch_of, nodes))
        decoded = self._batch_decode(nodes, epochs)
        cache = self.plan_cache
        if cache is not None:
            return cache.resolve(nodes, epochs, build, decoded)
        return [
            decoded[node][0] if node in decoded else build(node)
            for node in nodes
        ]

    def _batch_decode(
        self, nodes: Sequence[int], epochs: Sequence[int]
    ) -> dict[int, tuple[NodePlan, int]]:
        """Batch-decode the plans that lookups of ``nodes`` will miss.

        Predicted misses are the distinct nodes whose plan is not resident
        at their current epoch (every node without a cache), minus dirty
        overlay nodes, whose merged plans stay on the scalar builder.  When
        at least :data:`MIN_PLAN_BATCH` remain they are decoded in one
        vectorized walk and the batch time is split evenly over them, so
        the misses' ``miss_decode_ns`` sums to it.  Returns ``{}`` -- every
        miss builds its own plan -- when the cache holds a plan for every
        node (the all-hit path pays no per-node pass), when the stream has
        no vectorized decode, or when the batch decode raises.
        """
        cache = self.plan_cache
        graph = self.graph
        if (
            not self._batch_plans
            or len(nodes) < MIN_PLAN_BATCH
            or (cache is not None and len(cache) >= graph.num_nodes)
        ):
            return {}
        window = dict(zip(nodes, epochs))
        if cache is not None:
            resident = cache.epoch_of
            window = {
                node: epoch for node, epoch in window.items()
                if resident(node) != epoch
            }
        is_dirty = self._is_dirty
        batch = list(window) if is_dirty is None else [
            node for node in window if not is_dirty(node)
        ]
        if len(batch) < MIN_PLAN_BATCH:
            return {}
        began = time.perf_counter_ns()
        try:
            if self._merged_plans:
                plans = graph.build_node_plans(batch)
            else:
                plans = build_node_plans(graph, batch)
        except Exception:
            # Not swallowed: each miss then runs its own scalar build,
            # which raises for the node at fault and counts the failure.
            return {}
        share, extra = divmod(time.perf_counter_ns() - began, len(batch))
        return {
            node: (plan, share + (index < extra))
            for index, (node, plan) in enumerate(zip(batch, plans))
        }

    # -- traversal (default-session surface, kept for single-query callers) --------

    @property
    def metrics(self) -> KernelMetrics:
        """Counters of the default session (single-query compatibility surface)."""
        return self._default_session.metrics

    def reset_metrics(self) -> None:
        """Clear the default session's counters before a fresh measurement run."""
        self._default_session.reset_metrics()

    def expand(self, frontier: Sequence[int], filter_fn: FilterFn) -> list[int]:
        """One expansion iteration on the default session (see
        :meth:`TraversalSession.expand`)."""
        return self._default_session.expand(frontier, filter_fn)

    def cost(self) -> float:
        """Scalar elapsed-time proxy of the default session's work."""
        return self._default_session.cost()
