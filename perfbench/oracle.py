"""Reference answers every benchmark answer is checked against.

All checks run outside the timed region.  BFS levels and component labels
are compared exactly with the library's sequential references
(:func:`repro.apps.bfs.reference_bfs_levels`,
:func:`repro.apps.cc.reference_components`); approximate PageRank answers
must lie within their own certified L1 error bound of a converged power
iteration.  :class:`ShadowGraph` is the edge-set oracle of the write
workload: a plain set per node, mutated by the same update batches the
service absorbs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.dynamic.updates import INSERT, EdgeUpdate

#: Slack on the PageRank error-bound check, for float summation order.
PAGERANK_TOLERANCE = 1e-9

#: Power-iteration rounds for the PageRank truth; (1 - alpha)^rounds is the
#: remaining error, far below any push tolerance.
PAGERANK_ROUNDS = 300


class ShadowGraph:
    """Directed edge set with the service's update semantics.

    Inserting a present edge, deleting an absent one and self-loops change
    nothing, exactly as :meth:`repro.TraversalService.apply_updates`
    counts them ``ignored``.
    """

    def __init__(self, adjacency: Sequence[Sequence[int]]) -> None:
        self.out = [set(neighbors) for neighbors in adjacency]

    @property
    def num_nodes(self) -> int:
        return len(self.out)

    def apply(self, updates: Iterable[EdgeUpdate]) -> None:
        for update in updates:
            if update.source == update.target:
                continue
            if update.kind == INSERT:
                self.out[update.source].add(update.target)
            else:
                self.out[update.source].discard(update.target)

    def adjacency(self) -> list[list[int]]:
        return [sorted(neighbors) for neighbors in self.out]


def pagerank_reference(
    adjacency: list[list[int]], source: int, alpha: float
) -> np.ndarray:
    """Personalized PageRank by power iteration, dangling mass dropped.

    The forward push the views run drops a dangling node's outgoing share
    (it has no neighbour to spread to), so the fixed point it converges to
    is ``p = alpha * e_s + (1 - alpha) * P^T p`` with zero rows for
    dangling nodes; that is the truth its error bound certifies.
    """
    num_nodes = len(adjacency)
    degrees = np.array([len(n) for n in adjacency], dtype=np.float64)
    sources = np.repeat(np.arange(num_nodes), degrees.astype(np.int64))
    targets = np.fromiter(
        (t for neighbors in adjacency for t in neighbors),
        dtype=np.int64, count=len(sources),
    )
    weights = (1.0 - alpha) / degrees[sources]
    rank = np.zeros(num_nodes)
    rank[source] = alpha
    for _ in range(PAGERANK_ROUNDS):
        spread = np.bincount(
            targets, weights=rank[sources] * weights, minlength=num_nodes
        )
        spread[source] += alpha
        rank = spread
    return rank


def pagerank_within_bound(
    estimates: np.ndarray, error_bound: float, truth: np.ndarray
) -> bool:
    """``||estimates - truth||_1`` within the answer's certified bound."""
    distance = float(np.abs(np.asarray(estimates) - truth).sum())
    return distance <= error_bound + PAGERANK_TOLERANCE
