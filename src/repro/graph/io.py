"""Edge-list input/output.

The datasets the paper uses are distributed as plain edge lists (one
``source target`` pair per line).  These helpers read and write that format so
users can feed their own graphs to the library, and so the examples can
round-trip generated graphs through files.
"""

from __future__ import annotations

from pathlib import Path

from repro.graph.graph import Graph


def write_edge_list(graph: Graph, path: str | Path, header: bool = True) -> None:
    """Write a graph as a whitespace-separated edge list.

    With ``header=True`` the first line is ``# nodes=<V> edges=<E>`` so the
    node count survives even if trailing nodes are isolated.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        if header:
            handle.write(f"# nodes={graph.num_nodes} edges={graph.num_edges}\n")
        for source, target in graph.edges():
            handle.write(f"{source} {target}\n")


def read_edge_list(path: str | Path, num_nodes: int | None = None) -> Graph:
    """Read a whitespace-separated edge list into a :class:`Graph`.

    Lines starting with ``#`` or ``%`` are treated as comments; a
    ``# nodes=<V> ...`` header, if present, fixes the node count.  Otherwise
    the node count is ``max node id + 1`` unless ``num_nodes`` is given.

    Malformed inputs raise :class:`ValueError` with the offending line:
    edge lines with fewer than two fields, negative node ids, and a
    self-inconsistent header that declares fewer nodes than the largest
    node id the edge list references (checked only when the header is
    actually used -- an explicit ``num_nodes`` still overrides a stale
    header, as documented above).
    """
    path = Path(path)
    edges: list[tuple[int, int]] = []
    declared_nodes: int | None = None
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if line[0] in "#%":
                declared_nodes = _parse_header_nodes(line, declared_nodes)
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line: {line!r}")
            source, target = int(parts[0]), int(parts[1])
            if source < 0 or target < 0:
                raise ValueError(
                    f"negative node id in edge line {line!r}; "
                    "node ids must be non-negative"
                )
            edges.append((source, target))
    if num_nodes is None:
        max_id = max(max(s, t) for s, t in edges) if edges else -1
        if declared_nodes is not None:
            if declared_nodes <= max_id:
                raise ValueError(
                    f"header declares nodes={declared_nodes} but the edge "
                    f"list references node id {max_id}; the header must "
                    f"declare at least {max_id + 1} nodes"
                )
            num_nodes = declared_nodes
        else:
            num_nodes = max_id + 1
    return Graph.from_edges(num_nodes, edges)


def _parse_header_nodes(line: str, current: int | None) -> int | None:
    """Extract ``nodes=<V>`` from a comment line if present."""
    for token in line.replace("#", " ").replace("%", " ").split():
        if token.startswith("nodes="):
            try:
                return int(token.split("=", 1)[1])
            except ValueError:
                return current
    return current
