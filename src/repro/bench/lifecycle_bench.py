"""Warm-standby measurement: CDC follower catch-up vs re-encoding.

The measurement core shared by the gate benchmark
(``benchmarks/test_lifecycle_throughput.py``) and the recording script
(``scripts/record_bench.py --only lifecycle``): register a Table-1-style
synthetic graph, snapshot it, stream a fixed number of update batches
through the CDC export, then keep a standby replica fresh two ways

* **re-encode** -- :meth:`CGRGraph.from_adjacency` over the mutated
  adjacency: the cheapest possible rebuild a standby without the lifecycle
  layer pays every time it resyncs (a real one additionally re-stands the
  serving engine up), and
* **catch-up** -- :meth:`FollowerReplica.catch_up
  <repro.lifecycle.FollowerReplica.catch_up>` on an already-loaded
  follower: replay the CDC log's framed
  :class:`~repro.dynamic.DeltaRecord` batches through the delta overlay --
  no base byte is ever re-encoded, and already-applied epochs are skipped,
  which is exactly the recurring cost of tailing the stream,

asserting the caught-up follower answers BFS bit-identically to the live
primary before any number is reported.  The one-time snapshot load that
primes the follower is recorded alongside (``prime_seconds``) but not
gated -- it is paid once per standby lifetime, not per resync.  Each path
is timed as best-of-``repeats`` to suppress scheduler noise.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.bench.harness import best_of
from repro.compression.cgr import CGRGraph
from repro.graph.datasets import load_dataset
from repro.lifecycle.cdc import FollowerReplica
from repro.service import BFSQuery, TraversalService

#: The Table-1-style synthetic families the gate sweeps (shared with the
#: store cold-start gate so the two baselines stay comparable).
LIFECYCLE_BENCH_DATASETS: tuple[str, ...] = ("uk-2002", "twitter")

#: Node count the gate runs at.
LIFECYCLE_BENCH_SCALE = 3000

#: How many CDC update batches the follower must replay to catch up.
LIFECYCLE_BENCH_BATCHES = 24

#: Edge updates per batch.
LIFECYCLE_BENCH_BATCH_SIZE = 32

#: BFS sources used for the bit-identity check.
_VERIFY_SOURCES = (0, 1, 17)


@dataclass(frozen=True)
class LifecycleBenchResult:
    """One dataset's measured standby costs, both paths."""

    dataset: str
    nodes: int
    edges: int
    cdc_records: int
    catch_up_seconds: float
    encode_seconds: float
    prime_seconds: float

    @property
    def speedup(self) -> float:
        """How many times cheaper follower catch-up is than re-encoding."""
        return self.encode_seconds / self.catch_up_seconds

    def as_row(self) -> dict:
        """A JSON-ready row (dataclass fields plus the derived ratio)."""
        row = asdict(self)
        row["speedup"] = round(self.speedup, 2)
        row["catch_up_seconds"] = round(self.catch_up_seconds, 6)
        row["encode_seconds"] = round(self.encode_seconds, 6)
        row["prime_seconds"] = round(self.prime_seconds, 6)
        return row


def _update_batches(
    num_nodes: int, batches: int, batch_size: int, seed: int = 7
) -> list[list[tuple[str, int, int]]]:
    """Deterministic insert batches within the graph's id range."""
    rng = np.random.default_rng(seed)
    result = []
    for _ in range(batches):
        batch = []
        for _ in range(batch_size):
            source = int(rng.integers(0, num_nodes))
            target = int(rng.integers(0, num_nodes))
            if source == target:
                target = (target + 1) % num_nodes
            batch.append(("insert", source, target))
        result.append(batch)
    return result


def measure_dataset(
    name: str,
    scale: int = LIFECYCLE_BENCH_SCALE,
    batches: int = LIFECYCLE_BENCH_BATCHES,
    batch_size: int = LIFECYCLE_BENCH_BATCH_SIZE,
    repeats: int = 3,
) -> LifecycleBenchResult:
    """Measure catch-up-vs-re-encode standby cost on one dataset.

    Raises :class:`AssertionError` if the caught-up follower answers any
    verification BFS differently from the live primary -- the speedup is
    only meaningful on a bit-identical replica.
    """
    graph = load_dataset(name, scale)
    service = TraversalService()
    service.register_graph("g", graph)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            snapshot = Path(tmp) / "snap"
            service.save_graph("g", snapshot)
            log = Path(tmp) / "g.cdc"
            service.start_cdc_export("g", log)
            for batch in _update_batches(graph.num_nodes, batches, batch_size):
                service.apply_updates("g", batch)

            entry = service.registry.resolve("g")
            adjacency = [
                entry.overlay.neighbors(node)
                for node in range(graph.num_nodes)
            ]
            encode_seconds, cgr = best_of(
                repeats, lambda: CGRGraph.from_adjacency(adjacency)
            )
            assert isinstance(cgr, CGRGraph)

            # A fresh (already-primed) follower per repeat: only the log
            # replay is timed -- the snapshot load is the one-time priming
            # cost, measured separately below.
            catch_up_seconds = float("inf")
            prime_seconds = float("inf")
            for _ in range(repeats):
                began = time.perf_counter()
                follower = FollowerReplica(snapshot, log)
                primed = time.perf_counter()
                try:
                    applied = follower.catch_up()
                finally:
                    caught_up = time.perf_counter()
                    follower.close()
                prime_seconds = min(prime_seconds, primed - began)
                catch_up_seconds = min(catch_up_seconds, caught_up - primed)
                assert applied == batches, (
                    f"follower applied {applied} of {batches} CDC records"
                )

            with FollowerReplica(snapshot, log) as follower:
                follower.catch_up()
                for source in _VERIFY_SOURCES:
                    [live] = service.submit([BFSQuery("g", source)])
                    [standby] = follower.submit([BFSQuery("g", source)])
                    assert np.array_equal(
                        live.value.levels, standby.value.levels
                    ), f"follower diverged from primary at BFS({source})"

            return LifecycleBenchResult(
                dataset=name,
                nodes=entry.num_nodes,
                edges=entry.num_edges,
                cdc_records=batches,
                catch_up_seconds=catch_up_seconds,
                encode_seconds=encode_seconds,
                prime_seconds=prime_seconds,
            )
    finally:
        service.close()


def run_lifecycle_benchmark(
    datasets: Sequence[str] = LIFECYCLE_BENCH_DATASETS,
    scale: int = LIFECYCLE_BENCH_SCALE,
    batches: int = LIFECYCLE_BENCH_BATCHES,
    batch_size: int = LIFECYCLE_BENCH_BATCH_SIZE,
    repeats: int = 3,
) -> list[LifecycleBenchResult]:
    """Measure every dataset; returns one result per dataset, in order."""
    return [
        measure_dataset(
            name,
            scale=scale,
            batches=batches,
            batch_size=batch_size,
            repeats=repeats,
        )
        for name in datasets
    ]


__all__ = [
    "LIFECYCLE_BENCH_BATCHES",
    "LIFECYCLE_BENCH_BATCH_SIZE",
    "LIFECYCLE_BENCH_DATASETS",
    "LIFECYCLE_BENCH_SCALE",
    "LifecycleBenchResult",
    "measure_dataset",
    "run_lifecycle_benchmark",
]
