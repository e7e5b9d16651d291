"""Cold-start measurement: loading a stored graph vs re-encoding it.

The measurement core shared by the gate benchmark
(``benchmarks/test_store_throughput.py``) and the recording script
(``scripts/record_bench.py --only store``): build a Table-1-style synthetic
graph, then get a resident :class:`~repro.compression.cgr.CGRGraph` two ways

* **re-encode** -- :meth:`CGRGraph.from_adjacency` over the adjacency lists,
  which is what every process start paid before the persistent store
  existed, and
* **load** -- :func:`repro.store.read_graph_file` over the graph file
  written once by :func:`repro.store.write_graph_file`: header/CRC checks,
  one ``numpy`` view of the offset table, and one bulk word wrap of the
  payload (:meth:`~repro.compression.bitarray.PackedBits.from_buffer`) --
  no VLC code is ever decoded or re-encoded,

asserting that the loaded graph is indistinguishable from the encoded one
(same stream bits, offsets, and fully decoded adjacency) and reporting the
cold-start speedup.  Each path is timed as best-of-``repeats`` to suppress
scheduler noise.
"""

from __future__ import annotations

import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from repro.bench.harness import best_of
from repro.compression.cgr import CGRConfig, CGRGraph
from repro.graph.datasets import load_dataset
from repro.store.files import read_graph_file, write_graph_file

#: The Table-1-style synthetic families the gate sweeps: an interval-heavy
#: web crawl and a residual-heavy social network.
STORE_BENCH_DATASETS: tuple[str, ...] = ("uk-2002", "twitter")

#: Node count the gate runs at -- large enough that both the encode and the
#: load amortize their per-graph setup the way paper-scale datasets would.
STORE_BENCH_SCALE = 3000


@dataclass(frozen=True)
class StoreBenchResult:
    """One dataset's measured cold-start costs, both paths."""

    dataset: str
    nodes: int
    edges: int
    bits_per_edge: float
    file_bytes: int
    load_seconds: float
    encode_seconds: float

    @property
    def load_edges_per_sec(self) -> float:
        """Cold-start throughput of the graph-file load path."""
        return self.edges / self.load_seconds

    @property
    def encode_edges_per_sec(self) -> float:
        """Cold-start throughput of the full re-encode path."""
        return self.edges / self.encode_seconds

    @property
    def speedup(self) -> float:
        """How many times faster loading the store file is than re-encoding."""
        return self.encode_seconds / self.load_seconds

    def as_row(self) -> dict:
        """A JSON-ready row (dataclass fields plus the derived rates)."""
        row = asdict(self)
        row["load_edges_per_sec"] = round(self.load_edges_per_sec, 1)
        row["encode_edges_per_sec"] = round(self.encode_edges_per_sec, 1)
        row["speedup"] = round(self.speedup, 2)
        row["bits_per_edge"] = round(self.bits_per_edge, 3)
        row["load_seconds"] = round(self.load_seconds, 6)
        row["encode_seconds"] = round(self.encode_seconds, 6)
        return row


def measure_dataset(
    name: str,
    scale: int = STORE_BENCH_SCALE,
    config: CGRConfig | None = None,
    repeats: int = 3,
) -> StoreBenchResult:
    """Measure encode-vs-load cold start on one dataset.

    Raises :class:`AssertionError` if the loaded graph differs from the
    encoded one in any observable way -- the speedup is only meaningful on
    an identical resident graph.
    """
    graph = load_dataset(name, scale)
    adjacency = graph.adjacency()

    encode_seconds, cgr = best_of(
        repeats, lambda: CGRGraph.from_adjacency(adjacency, config)
    )
    assert isinstance(cgr, CGRGraph)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.cgr"
        write_graph_file(path, cgr)
        file_bytes = path.stat().st_size
        load_seconds, loaded = best_of(repeats, lambda: read_graph_file(path))

    assert isinstance(loaded, CGRGraph)
    assert loaded.config == cgr.config
    assert len(loaded.bits) == len(cgr.bits)
    assert loaded.offsets.tolist() == cgr.offsets.tolist()
    assert loaded.decode_all() == cgr.decode_all(), (
        f"loaded graph decodes differently on dataset {name!r}"
    )
    return StoreBenchResult(
        dataset=name,
        nodes=cgr.num_nodes,
        edges=cgr.num_edges,
        bits_per_edge=cgr.bits_per_edge,
        file_bytes=file_bytes,
        load_seconds=load_seconds,
        encode_seconds=encode_seconds,
    )


def run_store_benchmark(
    datasets: Sequence[str] = STORE_BENCH_DATASETS,
    scale: int = STORE_BENCH_SCALE,
    config: CGRConfig | None = None,
    repeats: int = 3,
) -> list[StoreBenchResult]:
    """Measure every dataset; returns one result per dataset, in order."""
    return [
        measure_dataset(name, scale=scale, config=config, repeats=repeats)
        for name in datasets
    ]


__all__ = [
    "STORE_BENCH_DATASETS",
    "STORE_BENCH_SCALE",
    "StoreBenchResult",
    "measure_dataset",
    "run_store_benchmark",
]
