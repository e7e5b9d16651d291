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

A second row measures what a plan-cache miss pays: the traversal plans of
one :data:`PLAN_BENCH_WINDOW`-node frontier window built in one vectorized
batch (:func:`~repro.traversal.context.build_node_plans`, over the graph's
resident decode state) against the scalar per-node builder
(:func:`~repro.traversal.context.build_node_plan`), plans asserted equal.

A third row measures the encoder: a full-graph
:meth:`~repro.compression.cgr.CGRGraph.from_adjacency`, whose residual-segment
partition costs O(k) code-length evaluations per node, against
:func:`~repro.compression.reference.probe_encode_graph`, which partitions
with the seed's probe writer (O(k^2) code writes on a hub), streams asserted
bit-identical.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from typing import Sequence

from repro.bench.harness import best_of
from repro.compression.cgr import CGRConfig, CGRGraph
from repro.compression.reference import NaiveCGRDecoder, probe_encode_graph
from repro.graph.datasets import load_dataset
from repro.traversal.context import build_node_plan, build_node_plans

#: The Table-1-style synthetic families the gate sweeps: two web crawls
#: (interval-heavy) and a social network (residual-heavy).
DECODE_BENCH_DATASETS: tuple[str, ...] = ("uk-2002", "uk-2007", "twitter")

#: Node count the gate runs at.  Large enough that the vectorized decode's
#: per-graph setup (bit unpacking, zero-run table, word fold) amortizes the
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


#: Nodes per batched-plan measurement: eight warp chunks, the frontier
#: window the engine batch-decodes (``PLAN_WINDOW_CHUNKS`` in
#: :mod:`repro.traversal.gcgt`).
PLAN_BENCH_WINDOW = 256


@dataclass(frozen=True)
class PlanBenchResult:
    """One dataset's plan-build time for one window, batched vs scalar."""

    dataset: str
    nodes: int
    window: int
    batch_seconds: float
    scalar_seconds: float
    #: Resident decode state (fold, zero-run table, offsets) per bit of
    #: the compressed stream, and the seconds to build it once per graph.
    state_bytes_per_bit: float
    state_seconds: float

    @property
    def speedup(self) -> float:
        """How many times faster the batch builds the window's plans."""
        return self.scalar_seconds / self.batch_seconds

    def as_row(self) -> dict:
        """A JSON-ready row (dataclass fields plus the speedup)."""
        row = asdict(self)
        for key in ("batch_seconds", "scalar_seconds", "state_seconds"):
            row[key] = round(row[key], 6)
        row["state_bytes_per_bit"] = round(self.state_bytes_per_bit, 3)
        row["speedup"] = round(self.speedup, 2)
        return row


def measure_plan_batch(
    name: str,
    scale: int = DECODE_BENCH_SCALE,
    window: int = PLAN_BENCH_WINDOW,
    config: CGRConfig | None = None,
    repeats: int = 5,
) -> PlanBenchResult:
    """Time one random ``window``-node set's plans, batched and scalar.

    The two builders alternate round by round (best of ``repeats`` each),
    so a change of host speed hits both alike.  Raises
    :class:`AssertionError` if any plan differs.
    """
    graph = load_dataset(name, scale)
    cgr = CGRGraph.from_adjacency(graph.adjacency(), config)
    nodes = random.Random(window).sample(range(cgr.num_nodes), window)
    began = time.perf_counter()
    state = cgr.layout_decoder()
    state_seconds = time.perf_counter() - began
    batch_seconds = scalar_seconds = float("inf")
    for _ in range(repeats):
        seconds, batch = best_of(1, lambda: build_node_plans(cgr, nodes))
        batch_seconds = min(batch_seconds, seconds)
        seconds, scalar = best_of(
            1, lambda: [build_node_plan(cgr, node) for node in nodes]
        )
        scalar_seconds = min(scalar_seconds, seconds)
        assert batch == scalar, (
            f"batched and scalar plans disagree on dataset {name!r}"
        )
    return PlanBenchResult(
        dataset=name,
        nodes=cgr.num_nodes,
        window=window,
        batch_seconds=batch_seconds,
        scalar_seconds=scalar_seconds,
        state_bytes_per_bit=state.nbytes / cgr.total_bits,
        state_seconds=state_seconds,
    )


def run_plan_batch_benchmark(
    datasets: Sequence[str] = DECODE_BENCH_DATASETS,
    scale: int = DECODE_BENCH_SCALE,
    window: int = PLAN_BENCH_WINDOW,
) -> list[PlanBenchResult]:
    """Measure every dataset's batched-plan row, in order."""
    return [
        measure_plan_batch(name, scale=scale, window=window)
        for name in datasets
    ]


#: The hub-heavy families the encode row sweeps: their long residual runs
#: span many segments, which is where the partition's cost lives.  Web
#: crawls (the uk family) spend their encode time in intervals and the
#: per-code write path instead.
ENCODE_BENCH_DATASETS: tuple[str, ...] = ("twitter", "ljournal")

#: Node count of the encode row.  The seed partition needs about a second
#: for twitter at this size, so a gate run stays a few seconds long.
ENCODE_BENCH_SCALE = 1500


@dataclass(frozen=True)
class EncodeBenchResult:
    """One dataset's full-graph encode time, both partitions."""

    dataset: str
    nodes: int
    edges: int
    bits_per_edge: float
    encode_seconds: float
    probe_seconds: float

    @property
    def speedup(self) -> float:
        """How many times faster the O(k) partition encodes the graph."""
        return self.probe_seconds / self.encode_seconds

    def as_row(self) -> dict:
        """A JSON-ready row (dataclass fields plus the speedup)."""
        row = asdict(self)
        row["bits_per_edge"] = round(self.bits_per_edge, 3)
        row["encode_seconds"] = round(self.encode_seconds, 6)
        row["probe_seconds"] = round(self.probe_seconds, 6)
        row["speedup"] = round(self.speedup, 2)
        return row


def measure_encode(
    name: str,
    scale: int = ENCODE_BENCH_SCALE,
    config: CGRConfig | None = None,
    repeats: int = 2,
) -> EncodeBenchResult:
    """Time one dataset's full-graph encode, both partitions.

    The two encoders alternate round by round (best of ``repeats`` each).
    Raises :class:`AssertionError` unless both produce the same stream
    words, bit length, offsets and edge count.
    """
    adjacency = load_dataset(name, scale).adjacency()
    encode_seconds = probe_seconds = float("inf")
    for _ in range(repeats):
        seconds, encoded = best_of(
            1, lambda: CGRGraph.from_adjacency(adjacency, config)
        )
        encode_seconds = min(encode_seconds, seconds)
        seconds, probed = best_of(1, lambda: probe_encode_graph(adjacency, config))
        probe_seconds = min(probe_seconds, seconds)
    assert (
        encoded.bits.to_word_bytes() == probed.bits.to_word_bytes()
        and encoded.total_bits == probed.total_bits
        and encoded.offsets.tolist() == probed.offsets.tolist()
        and encoded.num_edges == probed.num_edges
    ), f"the two partitions encode dataset {name!r} differently"
    return EncodeBenchResult(
        dataset=name,
        nodes=encoded.num_nodes,
        edges=encoded.num_edges,
        bits_per_edge=encoded.bits_per_edge,
        encode_seconds=encode_seconds,
        probe_seconds=probe_seconds,
    )


def run_encode_benchmark(
    datasets: Sequence[str] = ENCODE_BENCH_DATASETS,
    scale: int = ENCODE_BENCH_SCALE,
) -> list[EncodeBenchResult]:
    """Measure every dataset's encode row, in order."""
    return [measure_encode(name, scale=scale) for name in datasets]


__all__ = [
    "DECODE_BENCH_DATASETS",
    "DECODE_BENCH_SCALE",
    "DecodeBenchResult",
    "ENCODE_BENCH_DATASETS",
    "ENCODE_BENCH_SCALE",
    "EncodeBenchResult",
    "PLAN_BENCH_WINDOW",
    "PlanBenchResult",
    "measure_dataset",
    "measure_encode",
    "measure_plan_batch",
    "run_decode_benchmark",
    "run_encode_benchmark",
    "run_plan_batch_benchmark",
]
