"""One function per table/figure of the paper's evaluation.

Every function returns a list of row dictionaries; the benchmark suite
asserts shape properties on them and ``examples/reproduce_paper.py`` prints
them.  Elapsed values are the simulator's cost proxy (see DESIGN.md), not
milliseconds, so only relative comparisons are meaningful -- which is exactly
what the paper's figures communicate.
"""

from __future__ import annotations

from repro.bench.harness import (
    DEFAULT_SOURCE,
    FIGURE8_APPROACHES,
    bench_graph,
    run_application,
    run_bfs_approach,
    run_gcgt_bfs,
)
from repro.compression.cgr import CGRConfig
from repro.compression.vlc import get_scheme
from repro.graph.datasets import DATASETS
from repro.reorder import REORDERINGS, apply_reordering
from repro.traversal.gcgt import GCGTConfig, STRATEGY_LADDER

#: Datasets in the order the paper plots them.
ALL_DATASETS = ["uk-2002", "uk-2007", "ljournal", "twitter", "brain"]


def _datasets(subset: list[str] | None) -> list[str]:
    return list(subset) if subset else list(ALL_DATASETS)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1(datasets: list[str] | None = None, scale: int | None = None) -> list[dict]:
    """Table 1: dataset statistics (paper values and synthetic-model values)."""
    rows = []
    for name in _datasets(datasets):
        spec = DATASETS[name]
        graph = bench_graph(name, scale)
        rows.append({
            "dataset": name,
            "category": spec.category,
            "paper_nodes": spec.paper_nodes,
            "paper_edges": spec.paper_edges,
            "paper_avg_degree": spec.paper_avg_degree,
            "model_nodes": graph.num_nodes,
            "model_edges": graph.num_edges,
            "model_avg_degree": graph.average_degree,
        })
    return rows


def table2() -> list[dict]:
    """Table 2: the selected GCGT parameters."""
    config = GCGTConfig()
    cgr = config.cgr
    return [
        {"parameter": "VLC scheme", "value": cgr.vlc_scheme},
        {"parameter": "Min Interval Length", "value": cgr.min_interval_length},
        {"parameter": "Node Reordering", "value": "LLP"},
        {"parameter": "Residual Segment Length", "value": f"{cgr.residual_segment_bytes:.0f} bytes"},
    ]


def table3(values: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 12, 34)) -> list[dict]:
    """Table 3: gamma / zeta2 / zeta3 code words for example integers."""
    rows = []
    for value in values:
        rows.append({
            "integer": value,
            "gamma": get_scheme("gamma").encode_to_bits(value),
            "zeta2": get_scheme("zeta2").encode_to_bits(value),
            "zeta3": get_scheme("zeta3").encode_to_bits(value),
        })
    return rows


# ---------------------------------------------------------------------------
# Main comparison and optimization ladder
# ---------------------------------------------------------------------------

def figure8(datasets: list[str] | None = None, scale: int | None = None) -> list[dict]:
    """Figure 8: BFS elapsed proxy and compression rate, all approaches."""
    rows = []
    for dataset in _datasets(datasets):
        graph = bench_graph(dataset, scale)
        for approach in FIGURE8_APPROACHES:
            result = run_bfs_approach(approach, dataset, graph=graph)
            rows.append(result.as_row())
    return rows


def figure9(datasets: list[str] | None = None, scale: int | None = None) -> list[dict]:
    """Figure 9: cumulative optimization impact (the strategy ladder)."""
    rows = []
    for dataset in _datasets(datasets):
        graph = bench_graph(dataset, scale)
        baseline_cost = None
        for name, config in STRATEGY_LADDER.items():
            engine, cost = run_gcgt_bfs(graph, config)
            if baseline_cost is None:
                baseline_cost = cost
            rows.append({
                "dataset": dataset,
                "configuration": name,
                "elapsed": cost,
                "speedup_vs_intuitive": baseline_cost / cost if cost else float("nan"),
                "compression_rate": engine.compression_rate,
            })
    return rows


# ---------------------------------------------------------------------------
# Parameter sensitivity (Appendix D)
# ---------------------------------------------------------------------------

def figure11(datasets: list[str] | None = None, scale: int | None = None) -> list[dict]:
    """Figure 11: VLC encoding scheme sweep (gamma, zeta2..zeta5)."""
    schemes = ["gamma", "zeta2", "zeta3", "zeta4", "zeta5"]
    rows = []
    for dataset in _datasets(datasets):
        graph = bench_graph(dataset, scale)
        for scheme in schemes:
            config = GCGTConfig(cgr=CGRConfig(vlc_scheme=scheme))
            engine, cost = run_gcgt_bfs(graph, config)
            rows.append({
                "dataset": dataset,
                "vlc_scheme": scheme,
                "elapsed": cost,
                "compression_rate": engine.compression_rate,
            })
    return rows


def figure12(datasets: list[str] | None = None, scale: int | None = None) -> list[dict]:
    """Figure 12: minimum interval length sweep (2, 3, 4, 5, 10, inf)."""
    lengths: list[int | float] = [2, 3, 4, 5, 10, float("inf")]
    rows = []
    for dataset in _datasets(datasets):
        graph = bench_graph(dataset, scale)
        for length in lengths:
            config = GCGTConfig(cgr=CGRConfig(min_interval_length=length))
            engine, cost = run_gcgt_bfs(graph, config)
            rows.append({
                "dataset": dataset,
                "min_interval_length": "inf" if length == float("inf") else int(length),
                "elapsed": cost,
                "compression_rate": engine.compression_rate,
            })
    return rows


def figure13(datasets: list[str] | None = None, scale: int | None = None) -> list[dict]:
    """Figure 13: node reordering sweep (Original, DegSort, BFSOrder, Gorder, LLP)."""
    methods = ["Original", "DegSort", "BFSOrder", "Gorder", "LLP"]
    rows = []
    for dataset in _datasets(datasets):
        graph = bench_graph(dataset, scale)
        for method in methods:
            reordered = apply_reordering(graph, REORDERINGS[method])
            engine, cost = run_gcgt_bfs(reordered, GCGTConfig(), source=DEFAULT_SOURCE)
            rows.append({
                "dataset": dataset,
                "reordering": method,
                "elapsed": cost,
                "compression_rate": engine.compression_rate,
            })
    return rows


def figure14(datasets: list[str] | None = None, scale: int | None = None) -> list[dict]:
    """Figure 14: residual segment length sweep (8..128 bytes and inf)."""
    lengths_bytes: list[int | None] = [8, 16, 32, 64, 128, None]
    rows = []
    for dataset in _datasets(datasets):
        graph = bench_graph(dataset, scale)
        for length in lengths_bytes:
            if length is None:
                config = GCGTConfig(residual_segmentation=False)
                label = "inf"
            else:
                config = GCGTConfig(
                    cgr=CGRConfig(residual_segment_bits=length * 8)
                )
                label = str(length)
            engine, cost = run_gcgt_bfs(graph, config)
            rows.append({
                "dataset": dataset,
                "segment_length_bytes": label,
                "elapsed": cost,
                "compression_rate": engine.compression_rate,
            })
    return rows


# ---------------------------------------------------------------------------
# Other applications (Appendix E)
# ---------------------------------------------------------------------------

def figure15(datasets: list[str] | None = None, scale: int | None = None) -> list[dict]:
    """Figure 15: CC and BC elapsed proxy for Gunrock, GPUCSR and GCGT."""
    approaches = ["Gunrock", "GPUCSR", "GCGT"]
    rows = []
    for dataset in _datasets(datasets):
        graph = bench_graph(dataset, scale)
        for application in ("CC", "BC"):
            for approach in approaches:
                result = run_application(approach, application, dataset, graph=graph)
                rows.append(result.as_row())
    return rows


# ---------------------------------------------------------------------------
# Worked examples (Figures 4 and 5) are covered directly by the benchmark
# files ``test_figure4_instruction_flow.py`` / ``test_figure5_parallel_decode.py``
# because they exercise specific algorithm internals rather than dataset sweeps.
# ---------------------------------------------------------------------------
