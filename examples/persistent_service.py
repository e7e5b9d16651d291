"""Persistent serving: snapshot a live graph service and restart it.

Every process start used to pay a full CGR encode per registered graph, and
dynamic-overlay state died with the process.  The persistent store
(:mod:`repro.store`) fixes both.  This example shows the restart story end
to end:

1. register a graph, serve queries, apply update batches -- normal dynamic
   serving;
2. ``service.save_graph`` -- write a snapshot directory: the frozen base
   encode as a binary graph file (written once, shared by every later
   snapshot), a per-epoch delta file capturing the overlay bit for bit, and
   a JSON manifest (``docs/FORMAT.md`` specifies every byte);
3. "restart": a fresh :class:`TraversalService` loads the snapshot with
   ``load_graph`` -- the payload words are wrapped as-is, **zero encodes**
   -- and answers queries bit-identically to the service that wrote it;
4. time-travel: restore an older epoch from its epoch-tagged manifest;
5. the same flow for a sharded registration (one graph file per shard).

Run with::

    python examples/persistent_service.py
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from repro import (
    BCQuery,
    BFSQuery,
    CCQuery,
    EdgeUpdate,
    TraversalService,
    load_dataset,
)
from repro.compression.cgr import encode_call_count


def main() -> None:
    """Run the snapshot/restart walkthrough and print what each step did."""
    workdir = Path(tempfile.mkdtemp(prefix="repro-persist-"))
    graph = load_dataset("uk-2002", scale=1500)
    queries = [
        BFSQuery("uk", source=0),
        CCQuery("uk"),
        BCQuery("uk", source=3),
    ]

    # -- 1. normal dynamic serving -----------------------------------------
    service = TraversalService()
    service.register_graph("uk", graph)
    service.apply_updates("uk", [
        EdgeUpdate.insert(0, 1234),
        EdgeUpdate.insert(7, 99),
        EdgeUpdate.delete(0, graph.neighbors(0)[0]),
    ])
    before = service.submit(queries)
    print(f"live service: {graph.num_nodes} nodes, epoch "
          f"{before[0].metrics.graph_epoch}, BFS reached "
          f"{before[0].value.visited_count} nodes")

    # -- 2. snapshot --------------------------------------------------------
    snapdir = workdir / "uk"
    service.save_graph("uk", snapdir)
    live = service.registry.resolve("uk").overlay
    absent = next(
        target for target in range(graph.num_nodes)
        if target != 42 and not live.has_edge(42, target)
    )
    service.apply_updates("uk", [EdgeUpdate.insert(42, absent)])
    service.save_graph("uk", snapdir)  # same base file, new delta + manifest
    files = sorted(p.name for p in snapdir.iterdir())
    print(f"snapshot directory after two epochs: {files}")

    # -- 3. restart ----------------------------------------------------------
    encodes = encode_call_count()
    began = time.perf_counter()
    restarted = TraversalService()
    entry = restarted.load_graph(snapdir)
    elapsed = time.perf_counter() - began
    print(f"restart: loaded epoch {entry.epoch} in {elapsed * 1e3:.1f} ms, "
          f"{encode_call_count() - encodes} encodes paid")

    # manifest.json points at the latest snapshot (epoch 2), which captured
    # the live service's current state -- answers must agree exactly.
    current = restarted.submit(queries)
    live = service.submit(queries)
    assert (live[0].value.levels == current[0].value.levels).all()
    assert (live[1].value.labels == current[1].value.labels).all()
    assert (live[2].value.delta == current[2].value.delta).all()
    assert live[0].metrics.cost == current[0].metrics.cost
    print("restored service answers match the live service bit for bit")

    # -- 4. time-travel -------------------------------------------------------
    history = TraversalService()
    old = history.load_graph(snapdir / "manifest-epoch-1.json")
    print(f"time travel: restored epoch {old.epoch} "
          f"({old.num_edges} live edges vs {entry.num_edges} now)")

    # -- 5. sharded -----------------------------------------------------------
    sharded = TraversalService()
    sharded.register_graph("uk", graph, shards=4, partitioner="greedy")
    sharded.apply_updates("uk", [EdgeUpdate.insert(5, 77)])
    shard_before = sharded.submit([BFSQuery("uk", source=0)])
    sharded.save_graph("uk", workdir / "uk-sharded")

    recovered = TraversalService()
    recovered.load_graph(workdir / "uk-sharded")
    shard_after = recovered.submit([BFSQuery("uk", source=0)])
    assert (shard_before[0].value.levels == shard_after[0].value.levels).all()
    print(f"sharded restore: {len(list((workdir / 'uk-sharded').glob('shard-*.cgr')))} "
          "shard files, BFS identical")

    sharded.close()
    recovered.close()
    shutil.rmtree(workdir)
    print("done")


if __name__ == "__main__":
    main()
