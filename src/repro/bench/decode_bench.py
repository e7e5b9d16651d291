"""Decode-throughput measurement: packed/vectorized engine vs the seed path.

The measurement core shared by the gate benchmark
(``benchmarks/test_decode_throughput.py``) and the recording script
(``scripts/record_bench.py``): encode a Table-1-style synthetic graph once,
then reconstruct every adjacency list end-to-end through

* the packed-word engine's whole-graph decode
  (:meth:`~repro.compression.cgr.CGRGraph.decode_all`: vectorized SIMD
  rounds plus scalar window decoders for straggler streams), and
* the retained seed implementation
  (:class:`~repro.compression.reference.NaiveCGRDecoder`: list-of-bits
  storage, per-bit loops, per-node layout objects),

asserting the outputs identical and reporting edges/second for both.  Each
path is timed as best-of-``repeats`` to suppress scheduler noise.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from repro.bench.harness import best_of
from repro.compression.cgr import CGRConfig, CGRGraph
from repro.compression.reference import NaiveCGRDecoder
from repro.graph.datasets import load_dataset

#: The Table-1-style synthetic families the gate sweeps: two web crawls
#: (interval-heavy) and a social network (residual-heavy).
DECODE_BENCH_DATASETS: tuple[str, ...] = ("uk-2002", "uk-2007", "twitter")

#: Node count the gate runs at.  Large enough that the vectorized decode's
#: per-graph setup (bit unpacking, next-one table, word fold) amortizes the
#: way it would on the paper's real datasets.
DECODE_BENCH_SCALE = 4000


@dataclass(frozen=True)
class DecodeBenchResult:
    """One dataset's measured decode throughput, both paths."""

    dataset: str
    nodes: int
    edges: int
    bits_per_edge: float
    packed_seconds: float
    naive_seconds: float

    @property
    def packed_edges_per_sec(self) -> float:
        """Decode throughput of the packed/vectorized engine."""
        return self.edges / self.packed_seconds

    @property
    def naive_edges_per_sec(self) -> float:
        """Decode throughput of the retained seed implementation."""
        return self.edges / self.naive_seconds

    @property
    def speedup(self) -> float:
        """How many times faster the packed engine decodes than the seed."""
        return self.naive_seconds / self.packed_seconds

    def as_row(self) -> dict:
        """A JSON-ready row (dataclass fields plus the derived rates)."""
        row = asdict(self)
        row["packed_edges_per_sec"] = round(self.packed_edges_per_sec, 1)
        row["naive_edges_per_sec"] = round(self.naive_edges_per_sec, 1)
        row["speedup"] = round(self.speedup, 2)
        row["bits_per_edge"] = round(self.bits_per_edge, 3)
        row["packed_seconds"] = round(self.packed_seconds, 6)
        row["naive_seconds"] = round(self.naive_seconds, 6)
        return row


def measure_dataset(
    name: str,
    scale: int = DECODE_BENCH_SCALE,
    config: CGRConfig | None = None,
    repeats: int = 3,
) -> DecodeBenchResult:
    """Measure end-to-end adjacency decode on one dataset, both paths.

    Raises :class:`AssertionError` if the two paths ever disagree on a
    single adjacency list -- the speedup is only meaningful on identical
    output.
    """
    graph = load_dataset(name, scale)
    cgr = CGRGraph.from_adjacency(graph.adjacency(), config)
    naive = NaiveCGRDecoder.from_graph(cgr)

    packed_seconds, packed_out = best_of(repeats, cgr.decode_all)
    naive_seconds, naive_out = best_of(repeats, naive.decode_all)
    assert packed_out == naive_out, (
        f"packed and seed decoders disagree on dataset {name!r}"
    )
    return DecodeBenchResult(
        dataset=name,
        nodes=cgr.num_nodes,
        edges=cgr.num_edges,
        bits_per_edge=cgr.bits_per_edge,
        packed_seconds=packed_seconds,
        naive_seconds=naive_seconds,
    )


def run_decode_benchmark(
    datasets: Sequence[str] = DECODE_BENCH_DATASETS,
    scale: int = DECODE_BENCH_SCALE,
    config: CGRConfig | None = None,
    repeats: int = 3,
) -> list[DecodeBenchResult]:
    """Measure every dataset; returns one result per dataset, in order."""
    return [
        measure_dataset(name, scale=scale, config=config, repeats=repeats)
        for name in datasets
    ]


__all__ = [
    "DECODE_BENCH_DATASETS",
    "DECODE_BENCH_SCALE",
    "DecodeBenchResult",
    "measure_dataset",
    "run_decode_benchmark",
]
