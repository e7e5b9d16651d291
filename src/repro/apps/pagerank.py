"""Personalized PageRank on the frontier pipeline (Section 6 extension).

The paper lists Personalized PageRank among the applications that fit the
expansion--filtering--contraction pipeline.  This module implements the
standard *forward-push* formulation: each node holds a residual; pushing a
node sends ``alpha`` of its residual to its own PageRank estimate and spreads
the rest uniformly over its out-neighbours; a neighbour whose accumulated
residual crosses ``epsilon * degree`` re-enters the frontier.  The push over
the out-neighbours is exactly one frontier expansion, so the computation runs
unchanged on the GCGT engine and on the uncompressed baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.pipeline import FrontierEngine


@dataclass
class PPRResult:
    """Output of a forward-push personalized PageRank computation."""

    source: int
    estimates: np.ndarray
    residuals: np.ndarray
    iterations: int
    pushes: int

    def top_nodes(self, count: int = 10) -> list[int]:
        """Node ids with the highest PageRank estimates, best first."""
        order = np.argsort(self.estimates)[::-1]
        return [int(node) for node in order[:count]]


def personalized_pagerank(
    engine: FrontierEngine,
    source: int,
    alpha: float = 0.15,
    epsilon: float = 1e-4,
    degrees: np.ndarray | None = None,
    max_iterations: int = 200,
) -> PPRResult:
    """Forward-push personalized PageRank from ``source``.

    ``degrees`` (the out-degree of every node) is needed to split residuals;
    when omitted it is measured afresh by this call with one expansion of
    every node, which the engines support but costs extra work -- callers
    that already hold the graph should pass ``graph.degrees()``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    num_nodes = engine.num_nodes
    if not 0 <= source < num_nodes:
        raise IndexError(f"source {source} out of range [0, {num_nodes})")

    estimates = np.zeros(num_nodes, dtype=np.float64)
    residuals = np.zeros(num_nodes, dtype=np.float64)
    if degrees is None:
        degrees = np.zeros(num_nodes, dtype=np.float64)

        def count_neighbor(parent: int, neighbor: int) -> bool:
            degrees[parent] += 1
            return False

        engine.expand(list(range(num_nodes)), count_neighbor)
    degrees = np.asarray(degrees, dtype=np.float64)

    residuals[source] = 1.0
    frontier = [source]
    iterations = 0
    pushes = 0

    while frontier and iterations < max_iterations:
        # Snapshot and absorb the residual of every pushed node.
        pushed = sorted(set(frontier))
        shares: dict[int, float] = {}
        for node in pushed:
            residual = residuals[node]
            if residual <= 0.0:
                continue
            estimates[node] += alpha * residual
            residuals[node] = 0.0
            shares[node] = (1.0 - alpha) * residual
            pushes += 1

        next_candidates: set[int] = set()

        def spread(parent: int, neighbor: int) -> bool:
            share = shares.get(parent, 0.0)
            if share <= 0.0:
                return False
            degree = float(degrees[parent])
            if degree == 0:
                return False
            residuals[neighbor] += share / degree
            threshold = epsilon * max(1.0, float(degrees[neighbor]))
            if residuals[neighbor] >= threshold:
                next_candidates.add(neighbor)
            return False  # frontier management is done manually below

        engine.expand(pushed, spread)
        frontier = sorted(next_candidates)
        iterations += 1

    return PPRResult(
        source=source,
        estimates=estimates,
        residuals=residuals,
        iterations=iterations,
        pushes=pushes,
    )


def reference_pagerank(
    adjacency: list[list[int]],
    source: int,
    alpha: float = 0.15,
    iterations: int = 100,
) -> np.ndarray:
    """Power-iteration personalized PageRank used as ground truth in tests."""
    n = len(adjacency)
    rank = np.zeros(n, dtype=np.float64)
    rank[source] = 1.0
    for _ in range(iterations):
        new_rank = np.zeros(n, dtype=np.float64)
        new_rank[source] += alpha
        for node, neighbors in enumerate(adjacency):
            if not neighbors:
                new_rank[source] += (1.0 - alpha) * rank[node]
                continue
            share = (1.0 - alpha) * rank[node] / len(neighbors)
            for neighbor in neighbors:
                new_rank[neighbor] += share
        rank = new_rank
    return rank
