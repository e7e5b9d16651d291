"""Shared plumbing for the benchmark figures.

The harness fixes benchmark-friendly scales for the five dataset models,
builds every approach's engine, and runs BFS/CC/BC while collecting the two
quantities every figure of the paper reports: an elapsed-time proxy and the
compression rate.  GPU out-of-memory conditions are caught and reported as
``oom=True`` rows, mirroring the "OOM" bars of Figures 8 and 15.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.apps.bc import betweenness_centrality
from repro.apps.bfs import bfs
from repro.apps.cc import connected_components
from repro.baselines.cpu import LigraEngine, LigraPlusEngine, NaiveCPUEngine
from repro.baselines.gpucsr import GPUCSREngine
from repro.baselines.gunrock_like import GunrockLikeEngine
from repro.gpu.device import GPUDevice, GPUOutOfMemoryError
from repro.graph.datasets import DATASETS, load_dataset
from repro.graph.graph import Graph
from repro.service.queries import BCQuery, BFSQuery, CCQuery
from repro.service.registry import RegisteredGraph
from repro.service.service import TraversalService
from repro.traversal.gcgt import GCGTConfig, GCGTEngine

#: Node counts used by the benchmark figures.  Small enough that a full
#: figure regenerates in minutes on a laptop, large enough that the
#: structural differences between the dataset models show.
BENCH_SCALES: dict[str, int] = {
    "uk-2002": 1200,
    "uk-2007": 1200,
    "ljournal": 1500,
    "twitter": 1500,
    "brain": 800,
}

#: The BFS source used everywhere (the paper averages 100 random sources; the
#: deterministic simulator makes repetition unnecessary).
DEFAULT_SOURCE = 0

#: Approach names in the order Figure 8 plots them.
FIGURE8_APPROACHES = ["Naive", "Ligra", "Ligra+", "Gunrock", "GPUCSR", "GCGT"]


@dataclass
class ApproachResult:
    """One bar of a figure: an approach run on one dataset."""

    approach: str
    dataset: str
    elapsed: float
    compression_rate: float
    oom: bool = False
    extra: dict | None = None

    def as_row(self) -> dict:
        """A JSON/CSV-ready flat dict of the measured fields."""
        row = {
            "approach": self.approach,
            "dataset": self.dataset,
            "elapsed": self.elapsed,
            "compression_rate": self.compression_rate,
            "oom": self.oom,
        }
        if self.extra:
            row.update(self.extra)
        return row


def best_of(repeats: int, func: Callable[[], object]) -> tuple[float, object]:
    """Best wall-clock seconds of ``repeats`` calls of ``func`` (standard
    noise suppression), with the last call's return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        began = time.perf_counter()
        value = func()
        best = min(best, time.perf_counter() - began)
    return best, value


@lru_cache(maxsize=64)
def bench_graph(dataset: str, scale: int | None = None) -> Graph:
    """The benchmark-scale graph model of ``dataset`` (cached per process)."""
    if dataset not in DATASETS:
        known = ", ".join(sorted(DATASETS))
        raise KeyError(f"unknown dataset {dataset!r}; known: {known}")
    return load_dataset(dataset, scale or BENCH_SCALES[dataset])


@lru_cache(maxsize=1)
def bench_service() -> TraversalService:
    """The process-wide serving layer every GCGT figure bar runs through.

    A single shared :class:`TraversalService` means each benchmark graph is
    CGR-encoded once no matter how many figures (or repeated pytest
    parametrizations) traverse it -- exactly the amortization the service
    exists to provide.
    """
    return TraversalService()


def _bench_entry(dataset: str, graph: Graph) -> RegisteredGraph:
    """Register ``graph`` with the shared service under a stable name.

    The name embeds the object identity so distinct scales of the same
    dataset get distinct entries; the registry keeps the graph alive, so the
    id cannot be recycled while the entry exists.
    """
    return bench_service().register_graph(f"{dataset}@{id(graph)}", graph)


#: Device memory of the paper's TITAN V, used for the paper-scale OOM check.
DEVICE_MEMORY_BYTES = 12 * 1024**3


def paper_scale_oom(
    dataset: str, bits_per_edge: float, overhead: float = 1.0
) -> bool:
    """Would this representation fit the *real* dataset in 12 GB device memory?

    The synthetic models are small, so the out-of-memory behaviour of Figure 8
    is projected: the per-edge footprint measured on the model is applied to
    the real dataset's edge count (Table 1, after virtual-node preprocessing).
    """
    spec = DATASETS[dataset]
    if spec.paper_edge_count == 0:
        return False
    required = spec.projected_footprint_bytes(bits_per_edge, overhead)
    return required > DEVICE_MEMORY_BYTES


# ---------------------------------------------------------------------------
# Per-approach BFS runners
# ---------------------------------------------------------------------------

def run_gcgt_bfs(
    graph: Graph,
    config: GCGTConfig | None = None,
    source: int = DEFAULT_SOURCE,
    device: GPUDevice | None = None,
) -> tuple[GCGTEngine, float]:
    """Run BFS under GCGT and return the engine and its total cost."""
    engine = GCGTEngine.from_graph(graph, config=config, device=device or GPUDevice())
    bfs(engine, source)
    return engine, engine.cost()


def _oom_result(approach: str, dataset: str, extra: dict | None = None) -> ApproachResult:
    return ApproachResult(
        approach=approach,
        dataset=dataset,
        elapsed=float("inf"),
        compression_rate=float("nan"),
        oom=True,
        extra=extra,
    )


def run_bfs_approach(
    approach: str,
    dataset: str,
    graph: Graph | None = None,
    source: int = DEFAULT_SOURCE,
) -> ApproachResult:
    """Run one Figure 8 bar: ``approach`` on ``dataset``.

    GPU approaches whose projected footprint at the real dataset's scale
    exceeds the 12 GB device memory are reported as ``oom=True`` rows with an
    infinite elapsed proxy, mirroring the "OOM" bars of the paper.
    """
    from repro.baselines.gunrock_like import FRAMEWORK_MEMORY_OVERHEAD

    graph = graph if graph is not None else bench_graph(dataset)
    device = GPUDevice()

    # GCGT is handled below through the shared service (encode-once); the
    # baselines build per call, which is the comparison the figures want.
    builders: dict[str, Callable[[], tuple[float, float]]] = {
        "Naive": lambda: _cpu_result(NaiveCPUEngine(graph), source),
        "Ligra": lambda: _cpu_result(LigraEngine(graph), source),
        "Ligra+": lambda: _cpu_result(LigraPlusEngine(graph), source),
        "GPUCSR": lambda: _gpu_result(GPUCSREngine.from_graph(graph, device=device), source),
        "Gunrock": lambda: _gpu_result(GunrockLikeEngine.from_graph(graph, device=device), source),
    }
    if approach not in FIGURE8_APPROACHES:
        known = ", ".join(FIGURE8_APPROACHES)
        raise KeyError(f"unknown approach {approach!r}; known: {known}")

    # Project the device footprint of the GPU approaches to the real dataset.
    if approach in ("GPUCSR", "Gunrock"):
        overhead = FRAMEWORK_MEMORY_OVERHEAD if approach == "Gunrock" else 1.0
        if paper_scale_oom(dataset, bits_per_edge=32.0, overhead=overhead):
            return _oom_result(approach, dataset)
    if approach == "GCGT":
        entry = _bench_entry(dataset, graph)
        if paper_scale_oom(dataset, entry.cgr.bits_per_edge):
            return _oom_result(approach, dataset)
        [result] = bench_service().submit([BFSQuery(entry.name, source)])
        return ApproachResult(
            approach=approach,
            dataset=dataset,
            elapsed=result.metrics.elapsed_proxy,
            compression_rate=entry.compression_rate,
        )

    try:
        elapsed, compression_rate = builders[approach]()
    except GPUOutOfMemoryError:
        return _oom_result(approach, dataset)
    return ApproachResult(
        approach=approach,
        dataset=dataset,
        elapsed=elapsed,
        compression_rate=compression_rate,
    )


def _cpu_result(engine, source: int) -> tuple[float, float]:
    bfs(engine, source)
    return engine.elapsed_proxy(), engine.compression_rate


def _gpu_result(engine, source: int) -> tuple[float, float]:
    bfs(engine, source)
    if hasattr(engine, "device"):
        elapsed = engine.device.elapsed_proxy(engine.metrics)
    else:
        elapsed = engine.elapsed_proxy()
    return elapsed, engine.compression_rate


# ---------------------------------------------------------------------------
# CC / BC runners (Figure 15)
# ---------------------------------------------------------------------------

def run_application(
    approach: str,
    application: str,
    dataset: str,
    graph: Graph | None = None,
    source: int = DEFAULT_SOURCE,
) -> ApproachResult:
    """Run CC or BC under one of the GPU approaches (Figure 15 bars).

    The GCGT bars are served through the shared :class:`TraversalService`:
    the directed graph is registered once and CC queries traverse its
    lazily-encoded undirected sibling, so repeated figure rows never
    re-encode.  The CSR baselines still build per call (their array packing
    is cheap and they are the comparison points, not the system under test).
    """
    from repro.baselines.gunrock_like import FRAMEWORK_MEMORY_OVERHEAD

    graph = graph if graph is not None else bench_graph(dataset)
    extra = {"application": application}

    if application not in ("CC", "BC"):
        raise KeyError(f"unknown application {application!r}; use 'CC' or 'BC'")

    if approach == "GCGT":
        service = bench_service()
        entry = _bench_entry(dataset, graph)
        # CC traverses the symmetrised sibling; report the representation
        # actually traversed (compression rate and footprint projection).
        traversed = (
            service.registry.undirected_variant(entry)
            if application == "CC" else entry
        )
        if paper_scale_oom(dataset, traversed.cgr.bits_per_edge):
            return _oom_result(approach, dataset, extra)
        query = (
            CCQuery(entry.name) if application == "CC"
            else BCQuery(entry.name, source)
        )
        [result] = service.submit([query])
        return ApproachResult(
            approach=approach,
            dataset=dataset,
            elapsed=result.metrics.elapsed_proxy,
            compression_rate=traversed.compression_rate,
            extra=extra,
        )

    if application == "CC":
        graph = graph.to_undirected()
    device = GPUDevice()

    if approach == "GPUCSR":
        if paper_scale_oom(dataset, 32.0):
            return _oom_result(approach, dataset, extra)
        engine = GPUCSREngine.from_graph(graph, device=device)
    elif approach == "Gunrock":
        if paper_scale_oom(dataset, 32.0, overhead=FRAMEWORK_MEMORY_OVERHEAD):
            return _oom_result(approach, dataset, extra)
        engine = GunrockLikeEngine.from_graph(graph, device=device)
    else:
        raise KeyError(f"unknown GPU approach {approach!r}")

    if application == "CC":
        connected_components(engine)
    else:
        betweenness_centrality(engine, source)

    elapsed = device.elapsed_proxy(engine.metrics)
    return ApproachResult(
        approach=approach,
        dataset=dataset,
        elapsed=elapsed,
        compression_rate=getattr(engine, "compression_rate", 1.0),
        extra=extra,
    )
