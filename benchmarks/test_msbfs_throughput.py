"""MS-BFS gate: one lane-packed sweep vs 64 sequential point queries.

The acceptance bar of bit-parallel multi-source BFS: answering a 64-source
batch through one :func:`~repro.traversal.msbfs.msbfs` sweep must run at
least ``MSBFS_SPEEDUP_MIN`` times faster than the same 64 queries served
sequentially through :func:`~repro.apps.bfs.bfs` on the same warm engine,
on bit-identical per-lane levels.

Both the **modelled** ratio (simulated elapsed proxy, deterministic across
hosts) and the **wall-clock** ratio are gated: lane packing wins by
eliminating repeated adjacency decodes and frontier passes, so the saving
must be visible in real seconds too -- unlike the shard gate, there is no
concurrency model to hide behind.

The threshold defaults to the full 10x gate; the CI perf-smoke job runs
this file on every PR with ``MSBFS_SPEEDUP_MIN=5`` so regressions fail fast
without making quick CI hostage to shared-runner noise, while the slow
benchmarks job keeps the full bar.

Every run prints the per-dataset and aggregate ratios, modelled and
wall-clock, whether the gate passes or not.

``scripts/record_bench.py --only msbfs`` runs the same measurement and
records the numbers into ``BENCH_msbfs.json`` so the perf trajectory is
tracked across PRs.
"""

from __future__ import annotations

import os

from repro.bench.msbfs_bench import (
    MSBFS_BENCH_DATASETS,
    MSBFS_BENCH_LANES,
    run_msbfs_benchmark,
)

#: Default (full-gate) batch speedup one packed sweep must deliver.
FULL_GATE_SPEEDUP = 10.0


def _threshold() -> float:
    return float(os.environ.get("MSBFS_SPEEDUP_MIN", FULL_GATE_SPEEDUP))


def _report(results, aggregate: float, wall_aggregate: float) -> str:
    """The gate's ratios, one line per dataset plus the aggregate."""
    lines = [
        f"msbfs gate: {result.dataset}: modelled {result.speedup:.1f}x, "
        f"wall-clock {result.wall_speedup:.1f}x "
        f"({result.sequential_seconds:.3f} s / {result.packed_seconds:.3f} s)"
        for result in results
    ]
    lines.append(
        f"msbfs gate: aggregate: modelled {aggregate:.1f}x, "
        f"wall-clock {wall_aggregate:.1f}x (bar {_threshold():.1f}x)"
    )
    return "\n".join(lines)


def test_packed_sweep_is_multiples_faster_than_sequential_batch(run_once, capsys):
    threshold = _threshold()
    results = run_once(run_msbfs_benchmark)

    assert [r.dataset for r in results] == list(MSBFS_BENCH_DATASETS)
    # The gate is the aggregate over the whole sweep, on both the modelled
    # elapsed proxy and the wall clock; additionally no single dataset may
    # fall far behind (per-family numbers live in BENCH_msbfs.json).
    aggregate = sum(r.sequential_elapsed for r in results) / sum(
        r.packed_elapsed for r in results
    )
    wall_aggregate = sum(r.sequential_seconds for r in results) / sum(
        r.packed_seconds for r in results
    )
    # Printed past pytest's capture on every run, so the margin over the
    # bar is on record whether the gate passes or not.
    with capsys.disabled():
        print("\n" + _report(results, aggregate, wall_aggregate))
    assert aggregate >= threshold, (
        f"aggregate modelled MS-BFS speedup {aggregate:.1f}x across "
        f"{len(results)} datasets, need >= {threshold:.1f}x"
    )
    assert wall_aggregate >= threshold, (
        f"aggregate wall-clock MS-BFS speedup {wall_aggregate:.1f}x across "
        f"{len(results)} datasets, need >= {threshold:.1f}x"
    )
    for result in results:
        assert result.lanes == MSBFS_BENCH_LANES
        # The shared sweep count is bounded by the deepest lane, far below
        # the summed iterations of the sequential runs it replaced.
        assert result.sweeps < result.sequential_iterations
        for label, ratio in (
            ("modelled", result.speedup),
            ("wall-clock", result.wall_speedup),
        ):
            assert ratio >= 0.75 * threshold, (
                f"{result.dataset}: {label} speedup only {ratio:.1f}x for a "
                f"{result.lanes}-lane batch, need >= {0.75 * threshold:.1f}x"
            )
