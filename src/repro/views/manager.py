"""The view manager: registration, refresh policies, delta-stream plumbing.

:class:`ViewManager` owns every materialized view of a registry.  It
subscribes to the registry's :class:`~repro.dynamic.DeltaRecord` stream at
construction, so each effective update batch reaches every view registered
on the mutated graph:

* an **eager** view repairs immediately inside ``apply_updates``;
* a **lazy** view queues the record and drains the queue when its result is
  next read (or on an explicit refresh) -- except that an *approximate*
  PageRank view with ``max_staleness > 0`` may serve its current answer
  unrepaired while it lags the graph by at most that many logical epochs,
  every served result carrying its epoch tag and staleness
  (:class:`~repro.views.base.ViewResult`).

Epochs here are *logical*: the count of effective batches applied to the
graph name, not the overlay epoch (which also moves on compaction) -- so
staleness measures real topology lag, and compacting a graph mid-stream
never dirties a view.

Every build, repair and drain ends by *publishing* the view's answer: one
snapshot, with its arrays made read-only, stored on the registration.
Reads serve the published answer with staleness recomputed at read time,
so :meth:`ViewManager.peek` -- the front door's degraded read, which runs
without the service lock -- never reads a view's working state in the
middle of a repair (a half-reset union-find forest would give labels of
neither epoch).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.dynamic.updates import DeltaRecord
from repro.obs.trace import NOOP_TRACER

from repro.views.base import GraphContext, MaterializedView, ViewResult, ViewStats
from repro.views.cc import CCView
from repro.views.khop import KHopView
from repro.views.pagerank import PageRankView

if TYPE_CHECKING:  # duck-typed at run time to avoid a service import cycle
    from repro.service.registry import GraphRegistry

#: Registered view kinds, keyed by the ``kind`` argument of
#: :meth:`ViewManager.register_view`.
VIEW_KINDS: dict[str, type[MaterializedView]] = {
    CCView.kind: CCView,
    PageRankView.kind: PageRankView,
    KHopView.kind: KHopView,
}

#: Supported refresh policies.
REFRESH_POLICIES = ("eager", "lazy")


@dataclass
class _Registration:
    """One registered view plus its refresh bookkeeping."""

    view: MaterializedView
    graph: str
    refresh: str
    #: Logical epoch of the graph the view's state reflects.
    fresh_epoch: int
    #: Unconsumed delta records, oldest first (lazy policy only).
    pending: list[DeltaRecord] = field(default_factory=list)
    #: The answer published at the end of the last build, repair or drain
    #: (its staleness field is 0; reads restamp it).
    published: ViewResult | None = None


class ViewManager:
    """Materialized views over one registry's graphs, maintained from deltas."""

    def __init__(self, registry: "GraphRegistry") -> None:
        self.registry = registry
        self._registrations: dict[str, _Registration] = {}
        #: Tracing hook (see :attr:`repro.shard.ShardExecutor.tracer`):
        #: view repairs and rebuilds open ``view.repair`` /
        #: ``view.rebuild`` spans under the calling request when the
        #: service's telemetry wiring replaces this no-op default.
        self.tracer = NOOP_TRACER
        registry.subscribe(self.on_updates)

    # -- registration ----------------------------------------------------------

    def register_view(
        self,
        name: str,
        graph: str,
        kind: str,
        params: Mapping[str, Any] | None = None,
        refresh: str = "eager",
    ) -> ViewResult:
        """Materialize a named view of ``graph`` and return its first result.

        ``kind`` selects the view class from :data:`VIEW_KINDS` (``"cc"``,
        ``"pagerank"``, ``"khop"``); ``params`` are kind-specific (see each
        view class).  ``refresh`` is ``"eager"`` (repair inside every
        ``apply_updates``) or ``"lazy"`` (repair on read).  The graph must
        already be registered.  Every kind reads the registered directed
        topology (a CC view reads edge direction away itself), so no view
        builds the undirected CC sibling.  View names are unique per
        manager.
        """
        if name in self._registrations:
            raise ValueError(f"view {name!r} is already registered")
        if kind not in VIEW_KINDS:
            known = ", ".join(sorted(VIEW_KINDS))
            raise ValueError(f"unknown view kind {kind!r}; known kinds: {known}")
        if refresh not in REFRESH_POLICIES:
            raise ValueError(
                f"refresh must be one of {REFRESH_POLICIES}, got {refresh!r}"
            )
        context = GraphContext(self.registry, graph)
        context.entry  # resolve now: unknown graphs raise KeyError here
        view = VIEW_KINDS[kind](name, context, params or {})
        view.rebuild()
        registration = _Registration(
            view=view,
            graph=graph,
            refresh=refresh,
            fresh_epoch=self.registry.logical_epoch(graph),
        )
        self._publish(registration)
        self._registrations[name] = registration
        return self._result(registration)

    def drop_view(self, name: str) -> None:
        """Forget a view (its maintenance stops immediately)."""
        self._require(name)
        del self._registrations[name]

    # -- delta stream ----------------------------------------------------------

    def on_updates(self, record: DeltaRecord) -> None:
        """Registry callback: fan one effective batch out to affected views."""
        for name, registration in self._registrations.items():
            if registration.graph != record.name:
                continue
            if registration.refresh == "eager":
                with self.tracer.span(
                    "view.repair", view=name, mode="eager",
                    epoch=record.epoch,
                ):
                    registration.view.apply_delta(record)
                registration.fresh_epoch = record.epoch
                self._publish(registration)
            else:
                registration.pending.append(record)

    def invalidate_graph(self, graph: str) -> None:
        """Rebuild every view of ``graph`` after a wholesale replacement.

        :meth:`~repro.service.GraphRegistry.replace` swaps topology without
        an update stream, so incremental repair has nothing to consume --
        queued deltas are discarded and each view recomputes from the new
        topology.
        """
        for name, registration in self._registrations.items():
            if registration.graph != graph:
                continue
            registration.pending.clear()
            with self.tracer.span(
                "view.rebuild", view=name, reason="graph-replaced"
            ):
                registration.view.rebuild()
            registration.view.stats.full_recomputes += 1
            registration.view.stats.builds -= 1
            registration.fresh_epoch = self.registry.logical_epoch(graph)
            self._publish(registration)

    # -- serving ---------------------------------------------------------------

    def view_result(self, name: str) -> ViewResult:
        """The view's current answer, epoch-tagged.

        Lazy views drain their queued deltas first -- unless the view is an
        approximate PageRank within its ``max_staleness`` bound, in which
        case the stale answer is served as-is, tagged with its true epoch
        and staleness.
        """
        registration = self._require(name)
        if registration.pending:
            staleness = self._staleness(registration)
            if 0 < staleness <= self._staleness_budget(registration.view):
                registration.view.stats.stale_serves += 1
            else:
                self._drain(registration)
        return self._result(registration)

    def refresh_view(self, name: str, full: bool = False) -> ViewResult:
        """Force maintenance now: drain queued deltas, or rebuild if ``full``.

        A full refresh recomputes from the live topology -- the way to reset
        an approximate view's accumulated residual error -- and counts as a
        build, not a forced recompute.
        """
        registration = self._require(name)
        if full:
            registration.pending.clear()
            with self.tracer.span(
                "view.rebuild", view=name, reason="full-refresh"
            ):
                registration.view.rebuild()
            registration.fresh_epoch = self.registry.logical_epoch(
                registration.graph
            )
            self._publish(registration)
        else:
            self._drain(registration)
        registration.view.stats.refreshes += 1
        return self._result(registration)

    def peek(self, name: str) -> ViewResult:
        """The view's current answer **without** any repair or drain.

        Unlike :meth:`view_result`, queued deltas stay queued and no
        maintenance work runs -- the caller gets whatever the view holds
        right now, tagged with its true epoch and staleness.  This is the
        degraded-serving read of the front door
        (:class:`~repro.server.FrontDoor`): when fresh computation would
        miss a deadline, a possibly-stale answer served in constant time
        beats no answer at all, and the staleness tag lets the caller
        enforce its own budget.

        It takes no lock and reads no view state: the answer is the one
        published at the end of the last build, repair or drain (all of
        which run under the service lock), so a read racing a repair gets
        the previous epoch's whole answer.
        """
        return self._result(self._require(name))

    def find(
        self,
        graph: str,
        kind: str,
        match: Mapping[str, Any] | None = None,
    ) -> str | None:
        """The name of a registered view matching ``graph``/``kind``/params.

        ``match`` entries are compared against the view's own parameters
        (e.g. ``{"source": 3}`` finds the k-hop or PageRank view rooted at
        node 3); views missing a matched key do not qualify.  Returns the
        first match in registration order, or ``None`` -- the front door's
        lookup for a degradation fallback, so absence must be an answer,
        not an error.  It iterates a copy of the registrations, so it is
        safe against a concurrent :meth:`register_view` / :meth:`drop_view`.
        """
        for name, registration in tuple(self._registrations.items()):
            if registration.graph != graph:
                continue
            if registration.view.kind != kind:
                continue
            params = registration.view.params
            if match is not None and any(
                key not in params or params[key] != value
                for key, value in match.items()
            ):
                continue
            return name
        return None

    def stats(self, name: str) -> ViewStats:
        """The view's maintenance ledger (live object, counters cumulative)."""
        return self._require(name).view.stats

    # -- introspection ---------------------------------------------------------

    def names(self) -> list[str]:
        """Registered view names, sorted."""
        return sorted(self._registrations)

    def __len__(self) -> int:
        return len(self._registrations)

    def __contains__(self, name: str) -> bool:
        return name in self._registrations

    def aggregate_stats(self) -> ViewStats:
        """All views' ledgers folded into one (for service-level stats)."""
        total = ViewStats()
        for registration in self._registrations.values():
            stats = registration.view.stats
            total.builds += stats.builds
            total.incremental_batches += stats.incremental_batches
            total.skipped_batches += stats.skipped_batches
            total.full_recomputes += stats.full_recomputes
            total.refreshes += stats.refreshes
            total.stale_serves += stats.stale_serves
            total.repair_fanout += stats.repair_fanout
            total.maintenance_cost += stats.maintenance_cost
            total.avoided_cost += stats.avoided_cost
        return total

    # -- internals -------------------------------------------------------------

    def _require(self, name: str) -> _Registration:
        """The registration for ``name``, or :class:`KeyError`."""
        registration = self._registrations.get(name)
        if registration is None:
            known = ", ".join(self.names()) or "<none>"
            raise KeyError(
                f"view {name!r} is not registered; registered views: {known}"
            )
        return registration

    def _drain(self, registration: _Registration) -> None:
        """Consume queued deltas, bringing the view fully fresh.

        The queue is folded into one span record first
        (:meth:`~repro.dynamic.DeltaRecord.coalesce`): the view repairs
        against the graph's *current* adjacency, so replaying records
        one-by-one would pair every queued epoch's old-state derivation
        with the final topology.  One coalesced pass is exactly the eager
        semantics of the whole span applied as a single batch.
        """
        if not registration.pending:
            return
        records = registration.pending
        registration.pending = []
        record = DeltaRecord.coalesce(records)
        with self.tracer.span(
            "view.repair", view=registration.view.name, mode="lazy",
            records=len(records), epoch=record.epoch,
        ):
            registration.view.apply_delta(record)
        registration.fresh_epoch = record.epoch
        self._publish(registration)

    def _staleness(self, registration: _Registration) -> int:
        """Logical epochs the view's state lags the graph."""
        return (
            self.registry.logical_epoch(registration.graph)
            - registration.fresh_epoch
        )

    @staticmethod
    def _staleness_budget(view: MaterializedView) -> int:
        """Epochs the view may serve stale (approximate PageRank only)."""
        if isinstance(view, PageRankView) and view.mode == "approx":
            return view.max_staleness
        return 0

    def _publish(self, registration: _Registration) -> None:
        """Snapshot the view's answer for every later read (see module doc)."""
        view = registration.view
        value = view.snapshot()
        arrays = [value] if isinstance(value, np.ndarray) else [
            item for item in vars(value).values() if isinstance(item, np.ndarray)
        ]
        for array in arrays:
            array.setflags(write=False)
        registration.published = ViewResult(
            name=view.name, kind=view.kind, value=value,
            epoch=registration.fresh_epoch, staleness=0,
        )

    def _result(self, registration: _Registration) -> ViewResult:
        """The published answer, tagged with its staleness now.

        Staleness is taken against the published answer's own epoch, not
        ``fresh_epoch``, so an unlocked read that races a repair never tags
        the previous epoch's answer as fresh.
        """
        published = registration.published
        return replace(
            published,
            staleness=self.registry.logical_epoch(registration.graph)
            - published.epoch,
        )


__all__ = ["REFRESH_POLICIES", "VIEW_KINDS", "ViewManager"]
