"""Decode-throughput gate: packed-word engine vs the seed list-of-bits path.

The acceptance bar of the packed bit-stream engine: reconstructing every
adjacency list of the Table-1-style synthetic graphs end-to-end must run at
least ``DECODE_SPEEDUP_MIN`` times faster through the packed/vectorized
decode (:meth:`CGRGraph.decode_all`) than through the retained seed
implementation (:class:`~repro.compression.reference.NaiveCGRDecoder`),
on bit-identical output.

The threshold defaults to the full 5x gate; the CI perf-smoke job runs this
file on every PR with ``DECODE_SPEEDUP_MIN=2`` so interpreter-speed
regressions fail fast without making quick CI hostage to machine noise,
while the slow-benchmarks job keeps the full bar.

A second gate covers the plan-cache miss path: building the traversal
plans of one 256-node frontier window in one vectorized batch must run at
least :data:`PLAN_BATCH_GATE` times faster than the scalar per-node
builder, on equal plans.  Its bar is the lower of that constant and
``DECODE_SPEEDUP_MIN``, so the relaxed CI smoke runs it at the same 2x.

``scripts/record_bench.py`` runs the same measurements and records the
numbers into ``BENCH_decode.json`` so the perf trajectory is tracked
across PRs.
"""

from __future__ import annotations

import os

from repro.bench.decode_bench import (
    DECODE_BENCH_DATASETS,
    run_decode_benchmark,
    run_plan_batch_benchmark,
)

#: Default (full-gate) decode speedup the packed engine must deliver.
FULL_GATE_SPEEDUP = 5.0

#: Full-gate speedup of batched over scalar plan building per window.
PLAN_BATCH_GATE = 2.0


def _threshold() -> float:
    return float(os.environ.get("DECODE_SPEEDUP_MIN", FULL_GATE_SPEEDUP))


def test_packed_decode_is_multiples_faster_than_seed_path(run_once):
    threshold = _threshold()
    results = run_once(run_decode_benchmark)

    assert [r.dataset for r in results] == list(DECODE_BENCH_DATASETS)
    # The gate is the aggregate end-to-end throughput over the whole sweep;
    # additionally no single dataset may fall far behind (per-family numbers
    # live in BENCH_decode.json for trend tracking).
    total_packed = sum(r.packed_seconds for r in results)
    total_naive = sum(r.naive_seconds for r in results)
    aggregate = total_naive / total_packed
    assert aggregate >= threshold, (
        f"aggregate packed decode speedup {aggregate:.1f}x "
        f"across {len(results)} datasets, need >= {threshold:.1f}x"
    )
    for result in results:
        assert result.edges > 0
        assert result.speedup >= 0.75 * threshold, (
            f"{result.dataset}: packed decode {result.packed_edges_per_sec:,.0f}"
            f" edges/s vs seed {result.naive_edges_per_sec:,.0f} edges/s -- "
            f"only {result.speedup:.1f}x, need >= {0.75 * threshold:.1f}x"
        )


def test_batched_plan_decode_beats_scalar_builder(run_once):
    threshold = min(PLAN_BATCH_GATE, _threshold())
    results = run_once(run_plan_batch_benchmark)

    assert [r.dataset for r in results] == list(DECODE_BENCH_DATASETS)
    aggregate = sum(r.scalar_seconds for r in results) / sum(
        r.batch_seconds for r in results
    )
    assert aggregate >= threshold, (
        f"aggregate batched plan speedup {aggregate:.2f}x across "
        f"{len(results)} datasets, need >= {threshold:.1f}x"
    )
    for result in results:
        assert result.speedup >= 0.75 * threshold, (
            f"{result.dataset}: {result.window}-node window built in "
            f"{result.batch_seconds * 1e3:.2f} ms batched vs "
            f"{result.scalar_seconds * 1e3:.2f} ms scalar -- only "
            f"{result.speedup:.2f}x, need >= {0.75 * threshold:.2f}x"
        )
