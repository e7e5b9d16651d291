"""Run one workload of the end-to-end serving benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload point_warm --seed 1 --seconds 30 --trace 0

Workloads: ``point_warm``, ``open_mix``, ``churn`` (see
``perfbench/workloads.py`` and ``perfbench/DESIGN.md``).  The run builds
the serving stack :data:`SETUP_REPEATS` times (``setup_s`` is the median),
measures for ``--seconds``, checks every answer outside the timed region
and prints a report followed, on the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
wrappers installed.  With ``--trace 1`` the run measures half the window
untraced and half with every layer wrapped (``perfbench/tracing.py``) and
reports the per-layer metrics; its spans are written to
``.perfbench/spans-<workload>-<seed>.npz``.  ``failed`` counts operations
that raised or answered wrongly; refusals and deadline misses of the open
loop are load shedding by design; they lower ``good_ops_per_s``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Serving stacks built per run; ``setup_s`` is the median of their times.
SETUP_REPEATS = 5


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _timed_setups(workload):
    """Build the stack ``SETUP_REPEATS`` times; keep the last one."""
    setups, stack = [], None
    for _ in range(SETUP_REPEATS):
        if stack is not None:
            stack.close()
        start = time.perf_counter()
        stack = workload.setup()
        setups.append(time.perf_counter() - start)
    return setups, stack


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: the library sources (src/repro) are missing",
              file=sys.stderr)
        return 2
    # Run as a script, sys.path[0] is this directory; import the package
    # and the library from the checkout instead.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import metrics
    from perfbench.stats import summarize
    from perfbench.tracing import Instrumentation, SpanLog
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    if args.trace:
        setup_log = SpanLog()
        with Instrumentation(setup_log):
            stack = workload.setup()
        setups = []
    else:
        setups, stack = _timed_setups(workload)
    try:
        # Start every measured window without the set-up's garbage.
        gc.collect()
        if args.trace:
            half = args.seconds / 2
            untraced = workload.run(stack, half)
            before = metrics.counters(stack)
            log = SpanLog()
            gc.collect()
            with Instrumentation(log):
                phase = workload.run(stack, half, log)
            after = metrics.counters(stack)
            phases = [untraced, phase]
        else:
            phase = workload.run(stack, args.seconds)
            phases = [phase]
        rss_mb = metrics.peak_rss_mb()
        bits = metrics.bits_per_edge(stack, workload)
        floor_s = metrics.csr_bfs_p50_s(stack, workload)
        wrong = workload.verify(stack, phases)
    finally:
        stack.close()

    outcomes = [o for p in phases for o in p.outcomes]
    errored = sum(1 for o in outcomes if o.status == "failed")
    failed = wrong + errored
    if args.trace:
        values = metrics.per_layer(
            log, setup_log, before, after, phase, untraced, floor_s
        )
        table = metrics.PER_LAYER
        path = ROOT / ".perfbench" / f"spans-{workload.name}-{args.seed}.npz"
        log.save(path)
        print(f"{log.span_count()} spans written to {path.relative_to(ROOT)}")
        for metric in table:
            print(metrics.line(metric.name, values[metric.name], metric.unit))
    else:
        summary = summarize(phase.outcomes, workload.limit_s, phase.window_s)
        values = metrics.end_to_end(setups, summary, bits, rss_mb)
        table = metrics.END_TO_END
        for line in metrics.report(
            workload, args.seed, setups, phase, summary, floor_s
        ):
            print(line)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            m.name: {"value": float(values[m.name]), "unit": m.unit}
            for m in table
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
