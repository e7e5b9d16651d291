"""Incrementally maintained personalized-PageRank view.

The materialized answer is the forward-push estimate/residual pair of
:func:`repro.apps.pagerank.personalized_pagerank`.  Both maintenance modes
rest on the forward-push *local invariant* (the dynamic-PPR identity of
Zhang et al.): writing ``R(v) = p(v) / alpha``, every push preserves, for
every node ``v``::

    r(v)  =  [v == s]  +  (1 - alpha) * sum_{u : v in N(u)} R(u) / d(u)  -  R(v)

which is algebraically equivalent to the global invariant
``p_true = p + sum_v r(v) * ppr_v`` on the *current* graph -- hence the
serviceable error bound ``||p - p_true||_1 <= sum_v |r(v)|``.

* **Exact mode** keeps the answer float-for-float equal to a from-scratch
  push (canonical order: sources sorted, neighbours ascending -- the
  :class:`~repro.baselines.cpu.NaiveCPUEngine` trajectory).  A batch whose
  touched nodes all lie outside the view's *support* (nodes with non-zero
  estimate or residual, plus the source) provably cannot alter the push
  trajectory -- the trajectory only ever reads the adjacency and degree of
  support nodes -- so it is skipped with the answer bitwise unchanged;
  anything else replays the push.
* **Approximate mode** repairs in place: when node ``u``'s out-adjacency
  changes from ``N_old`` (degree ``d0``) to ``N_new`` (degree ``d1``), the
  invariant is restored exactly (in real arithmetic) by the delta-push
  correction ``r(w) -= (1-alpha) * R(u)/d0`` for ``w in N_old`` and
  ``r(w) += (1-alpha) * R(u)/d1`` for ``w in N_new``, followed by a signed
  push loop draining residuals past ``epsilon``.  The result carries the
  residual-norm error bound, and under a lazy refresh policy may be served
  stale up to ``max_staleness`` logical epochs (epoch-tagged by the
  manager).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.apps.pagerank import personalized_pagerank
from repro.baselines.cpu import NaiveCPUEngine
from repro.dynamic.updates import DELETE, DeltaRecord, INSERT
from repro.graph.graph import Graph

from repro.views.base import GraphContext, MaterializedView, unknown_param_check


@dataclass(frozen=True)
class PageRankValue:
    """A served PageRank answer: estimates plus the residual error certificate.

    Attributes:
        source: the personalization source node.
        estimates: per-node PageRank estimates (``float64``).
        residuals: per-node unpushed residual mass (signed in approximate
            mode); by the push invariant, ``error_bound`` certifies
            ``||estimates - truth||_1``.
    """

    source: int
    estimates: np.ndarray
    residuals: np.ndarray

    @property
    def error_bound(self) -> float:
        """L1 distance bound to the exact answer: ``sum(|residuals|)``."""
        return float(np.abs(self.residuals).sum())


class PageRankView(MaterializedView):
    """Personalized PageRank, maintained by delta-push residual propagation.

    Parameters:
        source (required): personalization source node id.
        alpha: teleport probability (default 0.15).
        epsilon: push tolerance (default 1e-4).
        mode: ``"exact"`` (default) -- float-identical to from-scratch
            recompute, with support-scoped batch skipping -- or
            ``"approx"`` -- in-place delta-push repair with a residual-norm
            error bound.
        max_iterations: push-loop iteration cap (default 200).
        max_staleness: logical epochs a *lazy* approximate view may serve
            stale before the manager forces a refresh (default 0).
    """

    kind = "pagerank"

    _ALLOWED = (
        "source", "alpha", "epsilon", "mode", "max_iterations", "max_staleness"
    )

    def __init__(
        self,
        name: str,
        context: GraphContext,
        params: Mapping[str, Any],
    ) -> None:
        unknown_param_check(params, self._ALLOWED, self.kind)
        if "source" not in params:
            raise ValueError("pagerank views require a 'source' parameter")
        super().__init__(name, context, params)
        self.source = int(params["source"])
        self.alpha = float(params.get("alpha", 0.15))
        self.epsilon = float(params.get("epsilon", 1e-4))
        self.mode = str(params.get("mode", "exact"))
        self.max_iterations = int(params.get("max_iterations", 200))
        self.max_staleness = int(params.get("max_staleness", 0))
        if self.mode not in ("exact", "approx"):
            raise ValueError(
                f"mode must be 'exact' or 'approx', got {self.mode!r}"
            )
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be non-negative")
        if not 0 <= self.source < context.num_nodes:
            raise IndexError(
                f"source {self.source} out of range [0, {context.num_nodes})"
            )
        self._estimates = np.zeros(0, dtype=np.float64)
        self._residuals = np.zeros(0, dtype=np.float64)
        #: Live out-degree of every node, set by :meth:`rebuild` and kept
        #: current for touched nodes by :meth:`_correct_residuals`.
        self._degrees = np.zeros(0, dtype=np.float64)

    # -- building --------------------------------------------------------------

    def rebuild(self) -> None:
        """Run the canonical forward push from scratch on the live graph."""
        adjacency = self.context.full_adjacency()
        self._degrees = np.fromiter(
            map(len, adjacency), dtype=np.float64, count=len(adjacency)
        )
        result = personalized_pagerank(
            NaiveCPUEngine(Graph(adjacency)),
            self.source,
            alpha=self.alpha,
            epsilon=self.epsilon,
            degrees=self._degrees,
            max_iterations=self.max_iterations,
        )
        self._estimates = result.estimates
        self._residuals = result.residuals
        self.stats.builds += 1

    # -- maintenance -----------------------------------------------------------

    def apply_delta(self, record: DeltaRecord) -> None:
        """Consume one batch: skip, delta-push repair, or exact replay."""
        touched = sorted(record.touched_nodes)
        if self.mode == "exact":
            if self._outside_support(touched):
                # The push trajectory reads only support nodes' adjacency
                # and degrees; the batch changed none of them, so a replay
                # would reproduce this very state bit for bit.
                self.stats.skipped_batches += 1
                self.stats.avoided_cost += self.context.recompute_cost()
                return
            self.rebuild()
            self.stats.builds -= 1  # accounted as a forced recompute instead
            self.stats.full_recomputes += 1
            self.stats.maintenance_cost += self.context.recompute_cost()
            return

        work = self._correct_residuals(record, touched)
        work += self._push()
        self.stats.incremental_batches += 1
        self._charge_batch(work)

    def _outside_support(self, touched: list[int]) -> bool:
        """Whether a batch's touched nodes all miss the push support set."""
        estimates, residuals = self._estimates, self._residuals
        for node in touched:
            if node == self.source:
                return False
            if estimates[node] != 0.0 or residuals[node] != 0.0:
                return False
        return True

    def _correct_residuals(
        self, record: DeltaRecord, touched: list[int]
    ) -> float:
        """Restore the push invariant for every node whose adjacency changed.

        ``N_old`` is reconstructed from the live (post-batch) adjacency and
        the effective op list: per ``(u, w)`` pair, membership before the
        batch is decided by the *first* effective op (a delete means the
        edge existed), membership after by the *last* (an insert means it
        exists now).  The gather also refreshes the touched nodes' degrees.
        """
        one_minus = 1.0 - self.alpha
        adjacency = self.context.gather_adjacency(touched)
        for u in touched:
            self._degrees[u] = len(adjacency[u])
        ops: dict[int, dict[int, list[str]]] = {u: {} for u in touched}
        for update in record.applied:
            ops[update.source].setdefault(update.target, []).append(update.kind)

        work = 0.0
        residuals = self._residuals
        for u in touched:
            new_neighbors = adjacency[u]
            n_new = set(new_neighbors)
            n_old = set(n_new)
            for target, kinds in ops[u].items():
                was_present = kinds[0] == DELETE
                is_present = kinds[-1] == INSERT
                if was_present and not is_present:
                    n_old.add(target)
                elif is_present and not was_present:
                    n_old.discard(target)
            if n_old == n_new:
                continue
            scaled = one_minus * self._estimates[u] / self.alpha
            if scaled != 0.0:
                if n_old:
                    undo = scaled / len(n_old)
                    for w in sorted(n_old):
                        residuals[w] -= undo
                if n_new:
                    redo = scaled / len(n_new)
                    for w in new_neighbors:
                        residuals[w] += redo
            work += float(len(n_old) + len(n_new))
            self.stats.repair_fanout += len(n_old | n_new)
        return work

    def _push(self) -> float:
        """Signed push loop: drain residuals past the epsilon threshold.

        Pushing a negative residual spreads negative shares, so corrections
        that overshot are propagated exactly like fresh mass; every push
        shrinks ``sum(|r|)`` by ``alpha * |rho|``, so the loop terminates.
        """
        alpha, epsilon = self.alpha, self.epsilon
        one_minus = 1.0 - alpha
        estimates, residuals = self._estimates, self._residuals
        thresholds = epsilon * np.maximum(1.0, self._degrees)

        work = 0.0
        frontier = sorted(np.flatnonzero(np.abs(residuals) >= thresholds))
        iterations = 0
        cap = max(self.max_iterations, 1) * 16
        while frontier and iterations < cap:
            adjacency = self.context.gather_adjacency(frontier)
            candidates: set[int] = set()
            for node in frontier:
                rho = residuals[node]
                if abs(rho) < thresholds[node]:
                    continue
                estimates[node] += alpha * rho
                residuals[node] = 0.0
                self.stats.repair_fanout += 1
                neighbors = adjacency[node]
                work += 1.0 + len(neighbors)
                if not neighbors:
                    continue  # dangling: mass drops, as in the canonical push
                share = one_minus * rho / len(neighbors)
                for w in neighbors:
                    residuals[w] += share
                    if abs(residuals[w]) >= thresholds[w]:
                        candidates.add(w)
            frontier = sorted(
                node for node in candidates
                if abs(residuals[node]) >= thresholds[node]
            )
            iterations += 1
        return work

    # -- serving ---------------------------------------------------------------

    def snapshot(self) -> PageRankValue:
        """The current answer with its residual error certificate (copies)."""
        return PageRankValue(
            source=self.source,
            estimates=self._estimates.copy(),
            residuals=self._residuals.copy(),
        )


__all__ = ["PageRankValue", "PageRankView"]
