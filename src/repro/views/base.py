"""Shared vocabulary of the incremental-view subsystem.

A *materialized view* is a named, resident query answer -- connected
components, personalized PageRank, k-hop BFS levels -- kept consistent with
its registered graph by consuming the :class:`~repro.dynamic.DeltaRecord`
stream :meth:`~repro.service.GraphRegistry.apply_updates` emits, instead of
recomputing from scratch after every batch.  This module defines what every
view kind shares:

* :class:`ViewStats` -- the maintenance ledger (incremental batches vs full
  recomputes, repair fan-out, modelled maintenance cost vs the recompute
  cost it avoided);
* :class:`ViewResult` -- an epoch-tagged answer, carrying the logical epoch
  the value reflects and its staleness in epochs;
* :class:`GraphContext` -- a view's window onto its (possibly sharded)
  resident graph: adjacency reads from the delta overlay or the owner
  shards' overlays, for repairs and whole-topology rebuilds alike;
* :class:`MaterializedView` -- the abstract contract the concrete views in
  :mod:`repro.views.cc` / :mod:`repro.views.pagerank` /
  :mod:`repro.views.khop` implement.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Mapping, Sequence

from repro.dynamic.updates import DeltaRecord

if TYPE_CHECKING:  # service types are duck-typed at run time (no cycle)
    from repro.service.registry import GraphRegistry, RegisteredGraph


@dataclass
class ViewStats:
    """Cumulative maintenance ledger of one materialized view.

    Attributes:
        builds: from-scratch computations, the registration-time build
            included.
        incremental_batches: delta batches absorbed by in-place repair
            (union-find hooks, residual corrections, frontier re-sweeps).
        skipped_batches: delta batches proven not to affect the view's
            answer and skipped outright (zero maintenance work).
        full_recomputes: delta batches that fell back to a from-scratch
            rebuild (e.g. a deletion severing a k-hop shortest path).
        refreshes: explicit ``refresh_view`` calls.
        stale_serves: results served while lagging the graph (approximate
            mode under a staleness bound).
        repair_fanout: total nodes touched by scoped repair -- the members
            of recomputed components, wave-relaxed nodes, pushed nodes.
        maintenance_cost: modelled units of maintenance work actually
            performed (adjacency entries scanned plus nodes touched).
        avoided_cost: modelled units of from-scratch recompute work that
            maintenance replaced -- ``nodes + edges`` per consumed batch.
            ``avoided_cost / maintenance_cost`` is the incremental win.
    """

    builds: int = 0
    incremental_batches: int = 0
    skipped_batches: int = 0
    full_recomputes: int = 0
    refreshes: int = 0
    stale_serves: int = 0
    repair_fanout: int = 0
    maintenance_cost: float = 0.0
    avoided_cost: float = 0.0

    @property
    def batches_consumed(self) -> int:
        """Delta batches this view has accounted for, however handled."""
        return (
            self.incremental_batches
            + self.skipped_batches
            + self.full_recomputes
        )

    @property
    def savings_ratio(self) -> float:
        """Avoided recompute cost over maintenance cost (``inf`` when free)."""
        if self.maintenance_cost <= 0.0:
            return float("inf") if self.avoided_cost > 0.0 else 1.0
        return self.avoided_cost / self.maintenance_cost


@dataclass(frozen=True)
class ViewResult:
    """One epoch-tagged answer served from a materialized view.

    Attributes:
        name: the view's registered name.
        kind: the view kind (``"cc"`` / ``"pagerank"`` / ``"khop"``).
        value: the view-kind-specific answer (a label array, a
            :class:`~repro.views.pagerank.PageRankValue`, a level array).
        epoch: the graph's logical update epoch the value reflects.
        staleness: how many logical epochs the value lags the graph --
            always 0 for exact views, bounded by the view's
            ``max_staleness`` parameter in approximate mode.
    """

    name: str
    kind: str
    value: Any
    epoch: int
    staleness: int


class GraphContext:
    """A view's window onto its registered graph, resolved per access.

    Entries are resolved through the registry on every use (not captured at
    registration) so views keep working across
    :meth:`~repro.service.GraphRegistry.replace`, which swaps entry objects
    wholesale.  Adjacency reads go through the live serving state -- the
    delta overlay of an unsharded entry, or the owner shards' overlays
    (:meth:`~repro.shard.executor.ShardExecutor.gather_adjacency`) for a
    sharded one -- so repair reads exactly what queries read.  Every view
    kind reads the registered directed topology; none forces the
    undirected CC sibling into being.
    """

    def __init__(self, registry: "GraphRegistry", graph: str) -> None:
        self.registry = registry
        self.graph = graph

    @property
    def entry(self) -> "RegisteredGraph":
        """The registered (directed) entry the view reads."""
        return self.registry.resolve(self.graph)

    @property
    def num_nodes(self) -> int:
        """Node count of the resident graph."""
        return self.entry.num_nodes

    @property
    def num_edges(self) -> int:
        """Live directed edge count of the resident graph."""
        return self.entry.num_edges

    def full_adjacency(self) -> list[list[int]]:
        """The whole live topology, for from-scratch rebuilds, decoded from
        the serving state (off the shard exchange ledger)."""
        return self.entry.adjacency()

    def gather_adjacency(self, nodes: Sequence[int]) -> dict[int, list[int]]:
        """Live adjacency of ``nodes``, decoded through the serving state.

        Sharded entries route the request to owner shards through the
        executor (one read per call, all backends); unsharded entries
        decode through the delta overlay.  Returns sorted neighbour lists
        keyed by node id.
        """
        entry = self.entry
        node_list = [int(node) for node in nodes]
        if entry.executor is not None:
            return entry.executor.gather_adjacency(node_list)
        assert entry.overlay is not None
        return {node: entry.overlay.neighbors(node) for node in node_list}

    def recompute_cost(self) -> float:
        """Modelled cost of one from-scratch recompute: nodes plus edges."""
        entry = self.entry
        return float(entry.num_nodes + entry.num_edges)


class MaterializedView(abc.ABC):
    """The contract every incremental view kind implements.

    A view owns its materialized state and a :class:`ViewStats` ledger.  The
    :class:`~repro.views.manager.ViewManager` drives it: one
    :meth:`rebuild` at registration, one :meth:`apply_delta` per effective
    update batch (eagerly or drained lazily), :meth:`snapshot` whenever a
    result is served.
    """

    #: The registry key of the view kind (set by each subclass).
    kind: ClassVar[str] = ""

    def __init__(
        self,
        name: str,
        context: GraphContext,
        params: Mapping[str, Any],
    ) -> None:
        self.name = name
        self.context = context
        self.params = dict(params)
        self.stats = ViewStats()

    @abc.abstractmethod
    def rebuild(self) -> None:
        """Recompute the materialized answer from the live topology."""

    @abc.abstractmethod
    def apply_delta(self, record: DeltaRecord) -> None:
        """Repair the materialized answer from one applied update batch."""

    @abc.abstractmethod
    def snapshot(self) -> Any:
        """A defensive copy of the current materialized answer."""

    def _charge_batch(self, maintenance_units: float) -> None:
        """Account one consumed batch: work done vs recompute avoided."""
        self.stats.maintenance_cost += maintenance_units
        self.stats.avoided_cost += self.context.recompute_cost()


def unknown_param_check(
    params: Mapping[str, Any], allowed: Sequence[str], kind: str
) -> None:
    """Reject parameters a view kind does not understand (typo guard)."""
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {unknown} for view kind {kind!r}; "
            f"allowed: {sorted(allowed)}"
        )


__all__ = [
    "GraphContext",
    "MaterializedView",
    "ViewResult",
    "ViewStats",
    "unknown_param_check",
]
