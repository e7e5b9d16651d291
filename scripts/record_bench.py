#!/usr/bin/env python3
"""Run the throughput benchmarks and record results into ``BENCH_*.json``.

Each registered benchmark produces one ``BENCH_<name>.json`` file at the
repository root (graph family, nodes/edges, edges per second, speedup vs the
retained reference implementation), giving future PRs a committed baseline
to compare against:

    python scripts/record_bench.py                 # run + write all benchmarks
    python scripts/record_bench.py --only decode   # a single benchmark
    python scripts/record_bench.py --check         # verify files exist & parse

``--check`` never re-runs the measurements (they are machine-dependent); it
verifies the committed files are present and structurally sound so CI can
keep them from rotting.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def record_decode() -> dict:
    """The decode-throughput benchmark (see ``repro.bench.decode_bench``)."""
    from repro.bench.decode_bench import (
        DECODE_BENCH_SCALE,
        ENCODE_BENCH_SCALE,
        PLAN_BENCH_WINDOW,
        run_decode_benchmark,
        run_encode_benchmark,
        run_plan_batch_benchmark,
    )

    results = run_decode_benchmark()
    plans = run_plan_batch_benchmark()
    encodes = run_encode_benchmark()
    return {
        "benchmark": "decode_throughput",
        "unit": "edges/second, end-to-end adjacency reconstruction",
        "baseline": "seed list-of-bits decoder (repro.compression.reference)",
        "candidate": "packed-word engine (CGRGraph.decode_all)",
        "scale_nodes": DECODE_BENCH_SCALE,
        "results": [r.as_row() for r in results],
        "min_speedup": round(min(r.speedup for r in results), 2),
        "aggregate_speedup": round(
            sum(r.naive_seconds for r in results)
            / sum(r.packed_seconds for r in results),
            2,
        ),
        "plan_batch": {
            "unit": "seconds to build one window's traversal plans",
            "baseline": "scalar per-node builder "
                        "(repro.traversal.context.build_node_plan)",
            "candidate": "one vectorized batch over the resident decode "
                         "state (build_node_plans)",
            "window": PLAN_BENCH_WINDOW,
            "results": [r.as_row() for r in plans],
            "min_speedup": round(min(r.speedup for r in plans), 2),
            "aggregate_speedup": round(
                sum(r.scalar_seconds for r in plans)
                / sum(r.batch_seconds for r in plans),
                2,
            ),
        },
        "encode": {
            "unit": "seconds per full-graph encode",
            "baseline": "seed probe-writer segment partition "
                        "(repro.compression.reference.probe_encode_graph)",
            "candidate": "O(k) segment partition (CGRGraph.from_adjacency)",
            "scale_nodes": ENCODE_BENCH_SCALE,
            "results": [r.as_row() for r in encodes],
            "min_speedup": round(min(r.speedup for r in encodes), 2),
            "aggregate_speedup": round(
                sum(r.probe_seconds for r in encodes)
                / sum(r.encode_seconds for r in encodes),
                2,
            ),
        },
    }


#: Interleaved rounds behind each backend's recorded shard wall-clock.
SHARD_WALL_ROUNDS = 3


def record_shard() -> dict:
    """The shard-throughput benchmark (see ``repro.bench.shard_bench``)."""
    from repro.bench.shard_bench import (
        SHARD_BENCH_DATASETS,
        SHARD_BENCH_SCALE,
        SHARD_BENCH_WORKERS,
        host_parallelism,
        run_shard_benchmark,
    )
    from repro.shard.executor import BACKENDS

    # The modelled critical path is the same on every backend; the
    # wall-clock of each (median of interleaved rounds) is recorded to show
    # what the process backend buys over inline on this host.
    runs: dict[str, list] = {backend: [] for backend in BACKENDS}
    for _ in range(SHARD_WALL_ROUNDS):
        for backend in BACKENDS:
            runs[backend].extend(run_shard_benchmark(backend=backend))
    results = runs["inline"][:len(SHARD_BENCH_DATASETS)]
    total_unsharded = sum(r.unsharded_elapsed for r in results)
    total_critical = sum(r.sharded_critical_elapsed for r in results)
    return {
        "benchmark": "shard_throughput",
        "unit": "simulated elapsed proxy (device cost / warp parallelism); "
                "wall-clock seconds recorded alongside",
        "baseline": "one resident GCGTEngine over the whole graph",
        "candidate": f"ShardExecutor superstep BFS, {SHARD_BENCH_WORKERS} "
                     "shards, one worker per shard (critical path)",
        "scale_nodes": SHARD_BENCH_SCALE,
        "workers": SHARD_BENCH_WORKERS,
        "host_cpu_count": host_parallelism(),
        "note": "speedup is the modelled critical-path ratio, deterministic "
                "across hosts; wall_speedup additionally depends on "
                "host_cpu_count (>= workers cores needed to realise it); "
                "results are the inline backend, sharded_seconds_by_backend "
                "the median wall-clock of the same sharded BFS on every "
                "backend over wall_rounds interleaved rounds",
        "results": [r.as_row() for r in results],
        "wall_rounds": SHARD_WALL_ROUNDS,
        "sharded_seconds_by_backend": {
            backend: {
                name: round(statistics.median(
                    r.sharded_seconds for r in rows if r.dataset == name
                ), 6)
                for name in SHARD_BENCH_DATASETS
            }
            for backend, rows in runs.items()
        },
        "min_speedup": round(min(r.speedup for r in results), 2),
        "aggregate_speedup": round(total_unsharded / total_critical, 2),
    }


def record_msbfs() -> dict:
    """The MS-BFS batch benchmark (see ``repro.bench.msbfs_bench``)."""
    from repro.bench.msbfs_bench import (
        MSBFS_BENCH_LANES,
        MSBFS_BENCH_SCALE,
        run_msbfs_benchmark,
    )

    results = run_msbfs_benchmark()
    return {
        "benchmark": "msbfs_throughput",
        "unit": "simulated elapsed proxy; wall-clock seconds alongside",
        "baseline": f"{MSBFS_BENCH_LANES} sequential BFS runs on one warm "
                    "GCGTEngine",
        "candidate": "one lane-packed msbfs sweep (repro.traversal.msbfs)",
        "scale_nodes": MSBFS_BENCH_SCALE,
        "lanes": MSBFS_BENCH_LANES,
        "note": "speedup is the modelled elapsed-proxy ratio; wall_speedup "
                "is real seconds -- both gate at >= 10x because lane "
                "packing eliminates work rather than modelling concurrency",
        "results": [r.as_row() for r in results],
        "min_speedup": round(min(r.speedup for r in results), 2),
        "min_wall_speedup": round(
            min(r.wall_speedup for r in results), 2
        ),
        "aggregate_speedup": round(
            sum(r.sequential_elapsed for r in results)
            / sum(r.packed_elapsed for r in results),
            2,
        ),
    }


def record_store() -> dict:
    """The store cold-start benchmark (see ``repro.bench.store_bench``)."""
    from repro.bench.store_bench import STORE_BENCH_SCALE, run_store_benchmark

    results = run_store_benchmark()
    return {
        "benchmark": "store_throughput",
        "unit": "seconds to a resident CGRGraph, cold start",
        "baseline": "full CGR re-encode from adjacency (CGRGraph.from_adjacency)",
        "candidate": "zero-copy graph-file load (repro.store.read_graph_file)",
        "scale_nodes": STORE_BENCH_SCALE,
        "results": [r.as_row() for r in results],
        "min_speedup": round(min(r.speedup for r in results), 2),
        "aggregate_speedup": round(
            sum(r.encode_seconds for r in results)
            / sum(r.load_seconds for r in results),
            2,
        ),
    }


def record_lifecycle() -> dict:
    """The follower catch-up benchmark (see ``repro.bench.lifecycle_bench``)."""
    from repro.bench.lifecycle_bench import (
        LIFECYCLE_BENCH_BATCHES,
        LIFECYCLE_BENCH_BATCH_SIZE,
        LIFECYCLE_BENCH_SCALE,
        run_lifecycle_benchmark,
    )

    results = run_lifecycle_benchmark()
    return {
        "benchmark": "lifecycle_throughput",
        "unit": "seconds to a queryable, bit-identical standby replica",
        "baseline": "full CGR re-encode of the mutated adjacency",
        "candidate": "FollowerReplica.catch_up on a primed follower: CDC "
                     "log replay through the delta overlay "
                     "(repro.lifecycle.cdc)",
        "scale_nodes": LIFECYCLE_BENCH_SCALE,
        "cdc_batches": LIFECYCLE_BENCH_BATCHES,
        "batch_size": LIFECYCLE_BENCH_BATCH_SIZE,
        "note": "follower answers verified bit-identical to the live "
                "primary before timing is reported; prime_seconds is the "
                "one-time snapshot load, paid per standby lifetime, not "
                "per resync",
        "results": [r.as_row() for r in results],
        "min_speedup": round(min(r.speedup for r in results), 2),
        "aggregate_speedup": round(
            sum(r.encode_seconds for r in results)
            / sum(r.catch_up_seconds for r in results),
            2,
        ),
    }


def record_views() -> dict:
    """The view-maintenance benchmark (see ``repro.bench.views_bench``)."""
    from repro.bench.views_bench import (
        VIEWS_BENCH_DELTA_FRACTION,
        VIEWS_BENCH_SCALE,
        run_views_benchmark,
    )

    results = run_views_benchmark()
    return {
        "benchmark": "views_throughput",
        "unit": "seconds to a fresh view answer after each update batch",
        "baseline": "from-scratch recompute per batch (reference oracles)",
        "candidate": "incremental view maintenance (repro.views repair)",
        "scale_nodes": VIEWS_BENCH_SCALE,
        "delta_fraction": VIEWS_BENCH_DELTA_FRACTION,
        "note": "answers verified equal before timing; CC/k-hop run "
                "insert-growth streams (deletion fallbacks are bounded "
                "recomputes by design), approximate PageRank mixed churn",
        "results": [r.as_row() for r in results],
        "min_speedup": round(min(r.speedup for r in results), 2),
        "aggregate_speedup": round(
            sum(r.scratch_seconds for r in results)
            / sum(r.maintain_seconds for r in results),
            2,
        ),
    }


def record_server() -> dict:
    """The front-door overload benchmark (see ``repro.bench.server_bench``)."""
    from repro.bench.server_bench import (
        SERVER_BENCH_DEADLINE,
        SERVER_BENCH_QUEUE_CAPACITY,
        SERVER_BENCH_SCALE,
        run_server_benchmark,
    )

    results = run_server_benchmark()
    baseline, overload = results[0], results[-1]
    return {
        "benchmark": "server_overload",
        "unit": "seconds of successful-response latency; goodput in "
                "served requests/second",
        "baseline": "calibrated 1x open-loop load (60% of capacity)",
        "candidate": "10x offered load through admission control, queue "
                     "coalescing and degraded view serving",
        "scale_nodes": SERVER_BENCH_SCALE,
        "queue_capacity": SERVER_BENCH_QUEUE_CAPACITY,
        "deadline_seconds": SERVER_BENCH_DEADLINE,
        "note": "open-loop Poisson arrivals, 85% BFS / 15% CC across an "
                "interactive and a background tenant; p-quantiles are over "
                "successful (fresh or degraded) responses only",
        "results": [r.as_row() for r in results],
        "p99_overload_factor": round(
            overload.p99_seconds / baseline.p99_seconds, 2
        ),
        "goodput_overload_ratio": round(
            overload.goodput_per_sec / baseline.goodput_per_sec, 2
        ),
    }


def record_obs() -> dict:
    """The telemetry overhead benchmark (see ``repro.bench.obs_bench``)."""
    from repro.bench.obs_bench import (
        OBS_BENCH_REQUESTS,
        OBS_BENCH_SAMPLE_RATE,
        OBS_BENCH_SCALE,
        run_obs_benchmark,
    )

    results = run_obs_benchmark()
    by_mode = {r.mode: r for r in results}
    return {
        "benchmark": "obs_overhead",
        "unit": "wall-clock seconds for the closed-loop request mix; "
                "overhead relative to the uninstrumented baseline",
        "baseline": "front door with no telemetry bundle",
        "candidate": "the same stack with telemetry disabled / "
                     f"head-sampled at {OBS_BENCH_SAMPLE_RATE:g} / "
                     "fully traced",
        "scale_nodes": OBS_BENCH_SCALE,
        "requests": OBS_BENCH_REQUESTS,
        "note": "interleaved rounds, fastest per mode; gate bounds are "
                "disabled <= 1.05x and sampled <= 1.15x of baseline",
        "results": [r.as_row() for r in results],
        "disabled_overhead": round(by_mode["disabled"].overhead, 4),
        "sampled_overhead": round(by_mode["sampled"].overhead, 4),
        "traced_overhead": round(by_mode["traced"].overhead, 4),
    }


#: name -> recorder; each returns the JSON document for BENCH_<name>.json.
BENCHMARKS = {
    "decode": record_decode,
    "lifecycle": record_lifecycle,
    "msbfs": record_msbfs,
    "obs": record_obs,
    "server": record_server,
    "shard": record_shard,
    "store": record_store,
    "views": record_views,
}


def bench_path(name: str) -> Path:
    return REPO_ROOT / f"BENCH_{name}.json"


def check(names: list[str]) -> int:
    status = 0
    for name in names:
        path = bench_path(name)
        if not path.exists():
            print(f"record-bench: {path.name} missing; run "
                  f"`python scripts/record_bench.py --only {name}`",
                  file=sys.stderr)
            status = 2
            continue
        try:
            document = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            print(f"record-bench: {path.name} is not valid JSON: {error}",
                  file=sys.stderr)
            status = 2
            continue
        if not document.get("results"):
            print(f"record-bench: {path.name} has no results", file=sys.stderr)
            status = 2
            continue
        if "min_speedup" in document:
            headline = f"min speedup {document['min_speedup']}x"
        elif "disabled_overhead" in document:
            headline = (
                f"disabled overhead {document['disabled_overhead']}x, "
                f"sampled {document.get('sampled_overhead')}x"
            )
        else:
            headline = (
                f"p99 overload factor "
                f"{document.get('p99_overload_factor')}x"
            )
        print(f"record-bench: {path.name} ok "
              f"({len(document['results'])} rows, {headline})")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only", choices=sorted(BENCHMARKS), action="append",
        help="record just this benchmark (repeatable; default: all)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="verify committed BENCH_*.json files instead of re-measuring",
    )
    args = parser.parse_args()
    names = args.only or sorted(BENCHMARKS)

    if args.check:
        return check(names)

    for name in names:
        document = BENCHMARKS[name]()
        document["machine"] = {
            "python": platform.python_version(),
            "platform": platform.platform(),
        }
        path = bench_path(name)
        path.write_text(json.dumps(document, indent=2) + "\n")
        rows = document["results"]
        print(f"record-bench: wrote {path.name} ({len(rows)} rows)")
        for row in rows:
            if "packed_edges_per_sec" in row:
                detail = (
                    f"{row['packed_edges_per_sec']:,.0f} e/s packed vs "
                    f"{row['naive_edges_per_sec']:,.0f} e/s seed"
                )
            elif "sweeps" in row:
                detail = (
                    f"{row['sweeps']} packed sweeps "
                    f"({row['packed_seconds']:.3f}s) vs "
                    f"{row['sequential_iterations']} sequential iterations "
                    f"({row['sequential_seconds']:.3f}s), "
                    f"wall {row['wall_speedup']}x"
                )
            elif "load_seconds" in row:
                detail = (
                    f"load {row['load_seconds'] * 1e3:.2f} ms vs "
                    f"encode {row['encode_seconds'] * 1e3:.2f} ms"
                )
            elif "catch_up_seconds" in row:
                detail = (
                    f"catch-up {row['catch_up_seconds'] * 1e3:.2f} ms vs "
                    f"encode {row['encode_seconds'] * 1e3:.2f} ms over "
                    f"{row['cdc_records']} CDC records"
                )
            elif "maintain_seconds" in row:
                detail = (
                    f"maintain {row['maintain_seconds'] * 1e3:.2f} ms vs "
                    f"scratch {row['scratch_seconds'] * 1e3:.2f} ms "
                    f"over {row['batches']} {row['stream']} batches"
                )
            elif "load_factor" in row:
                detail = (
                    f"p99 {row['p99_seconds'] * 1e3:.0f} ms, "
                    f"{row['goodput_per_sec']}/s goodput, "
                    f"{row['served']}/{row['offered']} served, "
                    f"{row['shed']} shed, {row['degraded']} degraded"
                )
                print(f"  {row['load_factor']}x load: {detail}")
                continue
            elif "mode" in row:
                detail = (
                    f"{row['per_request_ms']:.2f} ms/req "
                    f"({row['overhead']}x baseline), "
                    f"{row['traces_recorded']} traces recorded"
                )
                print(f"  {row['mode']}: {detail}")
                continue
            else:
                detail = (
                    f"critical path {row['sharded_critical_elapsed']} vs "
                    f"serial {row['unsharded_elapsed']}"
                )
            label = row.get("dataset", row.get("kind"))
            print(f"  {label}: {detail} ({row['speedup']}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
