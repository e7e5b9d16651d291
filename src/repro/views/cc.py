"""Incrementally maintained connected-components view.

The materialized answer is the min-id label array
:func:`repro.apps.cc.reference_components` produces over the undirected
interpretation of the graph -- ``int64``, bit-identical to a from-scratch
recompute at every epoch.  Maintenance follows the classic union-find
split:

* **Insertions** repair in place: each effective insert is one ``union`` of
  its endpoints (unions ignore direction).  Union-by-minimum-representative
  keeps every root the smallest id of its component, so labels stay the
  reference labels without any relabelling pass.
* **Deletions** trigger *bounded* recompute, scoped to affected components:
  a delete ``u -> v`` removes the undirected edge only when ``v -> u`` is
  not live, and a removed edge can only split the component its endpoints
  lie in, so only the members of those components are re-solved, against
  their live out-lists.  Soundness of the scope: insertions are unioned
  first, making the resident partition *coarser* than the true post-batch
  partition, hence every true component lies wholly inside one resident
  component: the member set is closed under undirected adjacency, so the
  members' out-lists hold every edge of their components.

The view reads the registered directed entry, never the undirected CC
sibling.  On sharded graphs the member adjacency is gathered through
:meth:`~repro.shard.executor.ShardExecutor.gather_adjacency`, which reads
each owner shard's overlay directly (no simulated kernel), and the neighbour
lists are re-unioned into the coordinator's forest.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.dynamic.updates import DELETE, DeltaRecord, EdgeUpdate, INSERT

from repro.views.base import GraphContext, MaterializedView, unknown_param_check


class _UnionFind:
    """Union-find with path halving and union-by-minimum representative.

    Attaching the larger root under the smaller keeps every root equal to
    the minimum node id of its set, which is exactly the label convention of
    :func:`repro.apps.cc.reference_components` -- so labels read straight
    off the forest, no canonicalisation pass needed.
    """

    def __init__(self, num_nodes: int) -> None:
        self.parent = np.arange(num_nodes, dtype=np.int64)

    def find(self, node: int) -> int:
        """Root of ``node``'s set (the set's minimum id), with path halving."""
        parent = self.parent
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = int(parent[node])
        return node

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; ``True`` if they were distinct."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        low, high = (root_a, root_b) if root_a < root_b else (root_b, root_a)
        self.parent[high] = low
        return True

    def labels(self) -> np.ndarray:
        """Every node's root -- the reference min-id component labels.

        Numpy pointer jumping: ``parent = parent[parent]`` halves every
        node's distance to its root per pass, so ``log2(depth)`` passes
        leave each node pointing at its root.  The compressed forest is
        kept (roots are unchanged, later finds get shorter).
        """
        parent = self.parent
        while True:
            grandparent = parent[parent]
            if np.array_equal(grandparent, parent):
                break
            parent = grandparent
        self.parent = parent
        return parent.copy()


class CCView(MaterializedView):
    """Connected components, maintained by union-find repair.

    Parameters: none.  The view reads the registered directed topology
    and repairs from the ``applied`` updates of each
    :class:`~repro.dynamic.DeltaRecord`: labels are those of the undirected
    reading, where a directed delete only removes the edge once no
    direction of it survives.
    """

    kind = "cc"

    def __init__(
        self,
        name: str,
        context: GraphContext,
        params: Mapping[str, Any],
    ) -> None:
        unknown_param_check(params, (), self.kind)
        super().__init__(name, context, params)
        self._forest = _UnionFind(0)

    def rebuild(self) -> None:
        """Solve the whole topology, read as undirected, into a fresh forest."""
        adjacency = self.context.full_adjacency()
        forest = _UnionFind(len(adjacency))
        for source, neighbors in enumerate(adjacency):
            for target in neighbors:
                forest.union(source, target)
        self._forest = forest
        self.stats.builds += 1

    def apply_delta(self, record: DeltaRecord) -> None:
        """Union the inserts, then scope-recompute components hit by
        deletes that removed an undirected edge."""
        inserts = [u for u in record.applied if u.kind == INSERT]
        deletes = [u for u in record.applied if u.kind == DELETE]
        if deletes:
            # One reverse-edge read per deleting batch: a delete whose
            # reverse direction is live removes no undirected edge.
            reverse_live = self.context.entry.has_edges(
                [(u.target, u.source) for u in deletes]
            )
            deletes = [u for u, live in zip(deletes, reverse_live) if not live]
        work = 0.0

        for update in inserts:
            if self._forest.union(update.source, update.target):
                self.stats.repair_fanout += 2
            work += 1.0

        if deletes:
            work += self._repair_deletions(deletes)
        elif not inserts:
            # The batch only deleted directed edges whose reverse direction
            # is still live: the component structure is untouched.
            self.stats.skipped_batches += 1
            self.stats.avoided_cost += self.context.recompute_cost()
            return

        self.stats.incremental_batches += 1
        self._charge_batch(work)

    def _repair_deletions(self, deletes: list[EdgeUpdate]) -> float:
        """Bounded recompute of every component a tombstone touched.

        Members of affected components have their adjacency gathered in one
        read, their forest slots reset, and their live edges re-unioned.
        Returns the modelled work units spent; raises :class:`RuntimeError`
        if a gathered edge leaves the member set (corrupted repair scope).
        """
        affected_roots = {
            self._forest.find(node)
            for update in deletes
            for node in (update.source, update.target)
        }
        parent = self._forest.parent
        members = [
            node
            for node in range(len(parent))
            if self._forest.find(node) in affected_roots
        ]
        member_set = set(members)
        adjacency = self.context.gather_adjacency(members)
        work = float(len(members))
        for node in members:
            parent[node] = node
        for node in members:
            for neighbor in adjacency[node]:
                # The scope argument guarantees closure; a neighbour outside
                # the member set would mean the resident partition was not
                # coarser than the truth, i.e. corrupted state.
                if neighbor not in member_set:
                    raise RuntimeError(
                        f"CC repair scope violated: edge ({node}, {neighbor}) "
                        "leaves the affected components"
                    )
                self._forest.union(node, neighbor)
                work += 1.0
        self.stats.repair_fanout += len(members)
        return work

    def snapshot(self) -> np.ndarray:
        """The current min-id component labels (a copy, ``int64``)."""
        return self._forest.labels()


__all__ = ["CCView"]
