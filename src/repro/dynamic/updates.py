"""Edge-update vocabulary of the dynamic-graph subsystem.

A live graph mutates between queries as a stream of edge insertions and
deletions.  This module defines the wire format of that stream --
:class:`EdgeUpdate` -- together with the bookkeeping record every layer that
absorbs a batch reports back (:class:`UpdateStats`) and small helpers to
coerce user-friendly tuples and to mirror a batch for undirected graphs.

The module deliberately imports nothing from the rest of the library so that
low-level layers (:class:`repro.graph.graph.Graph`) and high-level layers
(:class:`repro.service.TraversalService`) can both speak it without import
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

#: Update kinds.  ``INSERT`` adds a directed edge, ``DELETE`` tombstones one.
INSERT = "insert"
DELETE = "delete"

_KINDS = (INSERT, DELETE)


@dataclass(frozen=True)
class EdgeUpdate:
    """One directed edge mutation: insert or delete ``source -> target``.

    Attributes:
        kind: either :data:`INSERT` or :data:`DELETE`.
        source: id of the edge's source node (non-negative).
        target: id of the edge's target node (non-negative).

    Updates are value objects; a batch is any sequence of them, applied in
    order.  Self-loops are rejected at application time (the datasets the
    paper evaluates are preprocessed to drop them), not at construction, so a
    batch recorded from an external feed can still be represented.
    """

    kind: str
    source: int
    target: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.source < 0 or self.target < 0:
            raise ValueError(
                f"node ids must be non-negative, got ({self.source}, {self.target})"
            )

    @classmethod
    def insert(cls, source: int, target: int) -> "EdgeUpdate":
        """An insertion of the directed edge ``source -> target``."""
        return cls(INSERT, source, target)

    @classmethod
    def delete(cls, source: int, target: int) -> "EdgeUpdate":
        """A deletion (tombstone) of the directed edge ``source -> target``."""
        return cls(DELETE, source, target)

    @property
    def reversed(self) -> "EdgeUpdate":
        """The same mutation applied to the opposite edge direction."""
        return EdgeUpdate(self.kind, self.target, self.source)


def insert_edge(source: int, target: int) -> EdgeUpdate:
    """Shorthand for :meth:`EdgeUpdate.insert`."""
    return EdgeUpdate.insert(source, target)


def delete_edge(source: int, target: int) -> EdgeUpdate:
    """Shorthand for :meth:`EdgeUpdate.delete`."""
    return EdgeUpdate.delete(source, target)


def coerce_updates(updates: Iterable) -> list[EdgeUpdate]:
    """Normalise a batch into :class:`EdgeUpdate` objects.

    Accepts :class:`EdgeUpdate` instances and ``(kind, source, target)``
    triples (kind being ``"insert"``/``"delete"``), so callers can write
    batches as plain tuples.  Returns a new list; order is preserved.
    """
    result: list[EdgeUpdate] = []
    for update in updates:
        if isinstance(update, EdgeUpdate):
            result.append(update)
        else:
            kind, source, target = update
            result.append(EdgeUpdate(str(kind), int(source), int(target)))
    return result


def symmetrized(updates: Iterable) -> list[EdgeUpdate]:
    """Both-direction expansion of a batch, for symmetric (undirected) graphs.

    Every update is emitted twice, once per direction, preserving batch
    order.  Use this when feeding a batch straight into an overlay that holds
    an undirected graph; :meth:`repro.service.GraphRegistry.apply_updates`
    performs the more careful variant that respects reverse directed edges.
    """
    result: list[EdgeUpdate] = []
    for update in coerce_updates(updates):
        result.append(update)
        if update.source != update.target:
            result.append(update.reversed)
    return result


@dataclass(frozen=True)
class DeltaRecord:
    """One applied update batch, as broadcast to delta-stream subscribers.

    :meth:`repro.service.GraphRegistry.apply_updates` emits one record per
    *effective* batch (a batch that changed nothing -- empty, or all no-ops --
    emits no record at all), after every resident entry absorbed it.
    Incremental consumers (the materialized views of :mod:`repro.views`, and
    the CDC log :mod:`repro.lifecycle.cdc` writes for followers) repair
    their state from the record instead of recomputing from the graph.

    Attributes:
        name: the registered graph name the batch was applied to.
        epoch: the graph's logical update epoch after this batch -- the
            count of effective batches ever applied to the name.  Unlike the
            overlay epoch it never moves on compaction, so it measures
            *logical* staleness.
        graph_epoch: the representative entry's overlay/executor epoch after
            the batch (compactions included), for correlation with
            :attr:`~repro.service.queries.QueryMetrics.graph_epoch`.
        applied: the effective directed updates, in application order.
            Consumers that read the graph as undirected (the CC view)
            derive that reading themselves: a delete only removes the
            undirected edge when the reverse direction is not live.
        touched_nodes: source nodes whose directed adjacency changed.
    """

    name: str
    epoch: int
    graph_epoch: int
    applied: tuple[EdgeUpdate, ...]
    touched_nodes: frozenset[int]

    @classmethod
    def coalesce(cls, records: "Sequence[DeltaRecord]") -> "DeltaRecord":
        """Fold consecutive records of one graph into a single span record.

        Lazy consumers that queued several epochs of deltas must apply them
        against the graph's *current* adjacency -- replaying the records one
        by one would pair each record's old-state derivation with the wrong
        (final) topology.  Concatenating the applied streams in epoch order
        preserves the per-pair op ordering that net-change derivation relies
        on (first op kind reveals the pre-span state, last op kind the
        post-span state), so the coalesced record describes the whole span
        exactly as one big eagerly-applied batch would.
        """
        if not records:
            raise ValueError("cannot coalesce an empty record sequence")
        names = {record.name for record in records}
        if len(names) != 1:
            raise ValueError(
                f"cannot coalesce records of different graphs: {sorted(names)}"
            )
        if len(records) == 1:
            return records[0]
        last = records[-1]
        touched: set[int] = set()
        for record in records:
            touched.update(record.touched_nodes)
        return cls(
            name=last.name,
            epoch=last.epoch,
            graph_epoch=last.graph_epoch,
            applied=tuple(
                update for record in records for update in record.applied
            ),
            touched_nodes=frozenset(touched),
        )


@dataclass
class UpdateStats:
    """What applying one batch actually did.

    Attributes:
        inserted: edges added (after no-op normalisation).
        deleted: edges removed (after no-op normalisation).
        ignored: updates that changed nothing -- duplicate inserts, deletes
            of absent edges, and self-loops.
        compactions: nodes whose delta was folded back into CGR form by the
            compaction policy while absorbing this batch.
        touched_nodes: source nodes whose adjacency changed (these are the
            nodes whose cached decode plans must be invalidated).
        applied: the effective updates, in order -- the subset of the batch
            that changed the edge set.  Consumers use it to mirror a batch
            precisely (e.g. onto an undirected sibling).
    """

    inserted: int = 0
    deleted: int = 0
    ignored: int = 0
    compactions: int = 0
    touched_nodes: set[int] = field(default_factory=set)
    applied: list[EdgeUpdate] = field(default_factory=list)

    @property
    def changed(self) -> int:
        """Total number of effective mutations (inserted + deleted)."""
        return self.inserted + self.deleted

    def merge(self, other: "UpdateStats") -> None:
        """Fold another stats record into this one (for multi-entry fan-out)."""
        self.inserted += other.inserted
        self.deleted += other.deleted
        self.ignored += other.ignored
        self.compactions += other.compactions
        self.touched_nodes |= other.touched_nodes
        self.applied.extend(other.applied)


__all__ = [
    "DELETE",
    "DeltaRecord",
    "EdgeUpdate",
    "INSERT",
    "UpdateStats",
    "coerce_updates",
    "delete_edge",
    "insert_edge",
    "symmetrized",
]
