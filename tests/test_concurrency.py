"""Concurrent readers vs ``apply_updates``: epoch-pinned answer exactness.

The service lock serializes queries against update batches, so a reader
racing a writer must always observe some *whole* epoch: every answer is
tagged with the overlay epoch it read
(:attr:`~repro.service.queries.QueryMetrics.graph_epoch`) and must equal,
bit for bit, a from-scratch answer computed at that same epoch -- never a
torn mix of pre- and post-batch adjacency.

The oracle is built ahead of the race: a shadow service (same graph, same
configuration, same update batches -- so the same deterministic epoch
sequence, compactions included) answers each query kind at every epoch the
writer will ever produce.  The threaded run then pins each concurrent
answer to its epoch tag and compares against the oracle entry, which makes
the assertion exact rather than statistical: any torn read, lost
invalidation or mid-batch service of a query fails loudly.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.dynamic.updates import EdgeUpdate
from repro.graph.generators import web_locality_graph
from repro.service import BFSQuery, CCQuery, TraversalService

#: Query sources exercised by the readers (and answered by the oracle).
SOURCES = (0, 3, 17)


def _update_batches(graph, count=10, seed=11):
    """Deterministic effective update batches within the graph's id range."""
    rng = np.random.default_rng(seed)
    num_nodes = graph.num_nodes
    batches = []
    inserted: list[tuple[int, int]] = []
    for _ in range(count):
        batch = []
        for _ in range(4):
            source = int(rng.integers(0, num_nodes))
            target = int(rng.integers(0, num_nodes))
            if source == target:
                target = (target + 1) % num_nodes
            batch.append(EdgeUpdate.insert(source, target))
            inserted.append((source, target))
        if inserted and rng.random() < 0.5:
            source, target = inserted.pop(0)
            batch.append(EdgeUpdate.delete(source, target))
        batches.append(batch)
    return batches


def _register(service, graph, sharded):
    if sharded:
        service.register_graph("g", graph, shards=3)
    else:
        service.register_graph("g", graph)


def _answers(service):
    """One from-scratch answer set (BFS levels per source + CC labels)."""
    queries = [BFSQuery("g", source) for source in SOURCES] + [CCQuery("g")]
    results = service.submit(queries)
    return {
        ("bfs", source): results[index].value.levels.copy()
        for index, source in enumerate(SOURCES)
    } | {("cc", None): results[len(SOURCES)].value.labels.copy()}


def _build_oracle(graph, batches, sharded):
    """Expected answers keyed by the epoch tag each batch produces.

    The shadow service replays the exact batch sequence, so its epoch
    sequence (overlay epochs for unsharded entries, logical batch counts
    for sharded ones -- compaction included) matches the raced service's.
    """
    shadow = TraversalService()
    _register(shadow, graph, sharded)
    entry = shadow.registry.resolve("g")
    oracle = {entry.epoch: _answers(shadow)}
    for batch in batches:
        shadow.apply_updates("g", batch)
        oracle[entry.epoch] = _answers(shadow)
    shadow.close()
    return oracle


@pytest.mark.parametrize("sharded", [False, True], ids=["unsharded", "sharded"])
def test_concurrent_readers_see_whole_epochs_bit_identically(sharded):
    graph = web_locality_graph(180, avg_degree=7.0, seed=9)
    batches = _update_batches(graph)
    oracle = _build_oracle(graph, batches, sharded)

    service = TraversalService()
    _register(service, graph, sharded)
    failures: list[str] = []
    done = threading.Event()

    def writer():
        try:
            for batch in batches:
                service.apply_updates("g", batch)
        except Exception as error:  # pragma: no cover - fails the test below
            failures.append(f"writer raised: {error!r}")
        finally:
            done.set()

    def reader(reader_id):
        try:
            while True:
                finished = done.is_set()
                queries = [BFSQuery("g", source) for source in SOURCES]
                queries.append(CCQuery("g"))
                results = service.submit(queries)
                epochs = {r.metrics.graph_epoch for r in results[:-1]}
                if len(epochs) != 1:
                    failures.append(
                        f"reader {reader_id}: BFS batch spanned epochs "
                        f"{sorted(epochs)}"
                    )
                for index, source in enumerate(SOURCES):
                    result = results[index]
                    expected = oracle[result.metrics.graph_epoch][
                        ("bfs", source)
                    ]
                    if not np.array_equal(result.value.levels, expected):
                        failures.append(
                            f"reader {reader_id}: BFS({source}) diverged "
                            f"from epoch {result.metrics.graph_epoch} oracle"
                        )
                cc = results[-1]
                expected = oracle[cc.metrics.graph_epoch][("cc", None)]
                if not np.array_equal(cc.value.labels, expected):
                    failures.append(
                        f"reader {reader_id}: CC diverged from epoch "
                        f"{cc.metrics.graph_epoch} oracle"
                    )
                if finished:
                    return
        except Exception as error:  # pragma: no cover - fails the test below
            failures.append(f"reader {reader_id} raised: {error!r}")

    threads = [threading.Thread(target=writer)]
    threads += [
        threading.Thread(target=reader, args=(reader_id,))
        for reader_id in range(3)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not failures, failures[:5]
    # The raced service ends at the same epoch the oracle replay did, and
    # the final answers match the last oracle entry exactly.
    final_epoch = service.registry.resolve("g").epoch
    assert final_epoch == max(oracle)
    final = _answers(service)
    for key, expected in oracle[final_epoch].items():
        assert np.array_equal(final[key], expected)
    service.close()


def test_wide_bfs_group_pins_one_epoch_under_writer_pressure():
    """A coalesced MS-BFS group must read one epoch for every lane even
    while a writer races it -- the whole sweep is pinned before traversal."""
    graph = web_locality_graph(150, avg_degree=6.0, seed=4)
    batches = _update_batches(graph, count=6, seed=21)
    oracle = _build_oracle(graph, batches, sharded=False)

    service = TraversalService()
    _register(service, graph, sharded=False)
    failures: list[str] = []
    done = threading.Event()

    def writer():
        try:
            for batch in batches:
                service.apply_updates("g", batch)
        finally:
            done.set()

    def reader():
        try:
            while True:
                finished = done.is_set()
                # Same-source duplicates coalesce into one sweep per epoch.
                queries = [
                    BFSQuery("g", source)
                    for source in SOURCES
                    for _ in range(2)
                ]
                results = service.submit(queries)
                epochs = {r.metrics.graph_epoch for r in results}
                if len(epochs) != 1:
                    failures.append(f"group spanned epochs {sorted(epochs)}")
                for result in results:
                    expected = oracle[result.metrics.graph_epoch][
                        ("bfs", result.query.source)
                    ]
                    if not np.array_equal(result.value.levels, expected):
                        failures.append(
                            f"lane {result.metrics.batch_lane} diverged at "
                            f"epoch {result.metrics.graph_epoch}"
                        )
                if finished:
                    return
        except Exception as error:  # pragma: no cover
            failures.append(f"reader raised: {error!r}")

    threads = [
        threading.Thread(target=writer),
        threading.Thread(target=reader),
        threading.Thread(target=reader),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not failures, failures[:5]
    service.close()


@pytest.mark.parametrize("sharded", [False, True], ids=["unsharded", "sharded"])
def test_reads_stay_whole_while_background_compaction_races(sharded):
    """An update writer AND a compacting maintainer race the readers.

    Compaction folds deltas into fresh side-stream extents -- it rewrites
    the physical layout but never the adjacency, so every whole state a
    reader can observe answers identically to one of the batch-boundary
    oracle states.  Each concurrent answer set must match one of them
    exactly (a torn read matches none), and the matched state may never
    move backwards within a reader.
    """
    graph = web_locality_graph(180, avg_degree=7.0, seed=9)
    batches = _update_batches(graph, count=8, seed=33)
    oracle = _build_oracle(graph, batches, sharded)
    oracle_states = [oracle[epoch] for epoch in sorted(oracle)]

    service = TraversalService()
    _register(service, graph, sharded)
    failures: list[str] = []
    done = threading.Event()

    def writer():
        try:
            for batch in batches:
                service.apply_updates("g", batch)
        except Exception as error:  # pragma: no cover - fails the test below
            failures.append(f"writer raised: {error!r}")
        finally:
            done.set()

    def maintainer():
        try:
            while True:
                finished = done.is_set()
                service.compact_graph("g", budget=6)
                if finished:
                    return
        except Exception as error:  # pragma: no cover - fails the test below
            failures.append(f"maintainer raised: {error!r}")

    def reader(reader_id):
        last_state = 0
        try:
            while True:
                finished = done.is_set()
                answers = _answers(service)
                matches = [
                    index
                    for index, expected in enumerate(oracle_states)
                    if all(
                        np.array_equal(answers[key], expected[key])
                        for key in expected
                    )
                ]
                if not matches:
                    failures.append(
                        f"reader {reader_id}: answers match no whole "
                        f"batch-boundary state (torn read)"
                    )
                elif matches[-1] < last_state:
                    failures.append(
                        f"reader {reader_id}: observed state regressed "
                        f"from {last_state} to {matches[-1]}"
                    )
                else:
                    last_state = matches[-1]
                if finished:
                    return
        except Exception as error:  # pragma: no cover - fails the test below
            failures.append(f"reader {reader_id} raised: {error!r}")

    threads = [threading.Thread(target=writer), threading.Thread(target=maintainer)]
    threads += [
        threading.Thread(target=reader, args=(reader_id,))
        for reader_id in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not failures, failures[:5]
    # after the dust settles the service still matches the final oracle state
    final = _answers(service)
    for key, expected in oracle_states[-1].items():
        assert np.array_equal(final[key], expected)
    service.close()


def test_compaction_pass_interleaves_reads_between_nodes():
    """A long compaction pass must not block readers for its duration.

    ``compact_graph`` takes the service lock per *node*, not per pass; the
    ``should_yield`` poll runs between nodes with the lock released.  A
    reader thread hammering BFS during one big pass must therefore complete
    reads *while the pass is in flight* -- the completed-read counter,
    sampled at each inter-node poll, has to advance between the first and
    last poll of the pass.
    """
    import time

    graph = web_locality_graph(180, avg_degree=7.0, seed=9)
    service = TraversalService()
    _register(service, graph, sharded=False)
    # dirty many nodes so the pass has real length
    batch = [
        EdgeUpdate.insert(node, (node * 7 + 1) % graph.num_nodes)
        for node in range(120)
    ]
    service.apply_updates("g", batch)

    reads_done = [0]
    sampled: list[int] = []
    stop = threading.Event()
    started = threading.Event()

    def reader():
        while not stop.is_set():
            service.submit([BFSQuery("g", 0)])
            reads_done[0] += 1
            started.set()

    def should_yield() -> bool:
        sampled.append(reads_done[0])
        time.sleep(0.002)  # slow maintenance cadence; the lock is free here
        return False

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        assert started.wait(timeout=30)
        compacted = service.compact_graph("g", should_yield=should_yield)
    finally:
        stop.set()
        thread.join(timeout=30)
    assert compacted >= 100
    assert len(sampled) >= compacted
    assert sampled[-1] > sampled[0], (
        "no reads completed while the compaction pass was in flight -- "
        "the pass is holding the service lock across nodes"
    )
    service.close()


def test_drop_view_waits_for_an_in_flight_view_repair():
    """``drop_view`` takes the service lock.

    A writer fans each batch out over the registered views while holding
    the lock.  A drop racing that fan-out must wait for it: otherwise the
    writer's view loop fails with "dictionary changed size during
    iteration" after the overlays absorbed the batch, and the views after
    the dropped one go unrepaired.
    """
    graph = web_locality_graph(48, avg_degree=4.0, seed=5)
    service = TraversalService()
    service.register_graph("g", graph)
    service.register_view("blocker", "g", kind="khop", params={"source": 0})
    service.register_view("dropped", "g", kind="khop", params={"source": 1})
    service.register_view("last", "g", kind="cc")
    entered = threading.Event()
    release = threading.Event()
    blocker = service.views._registrations["blocker"].view
    repair = blocker.apply_delta

    def blocking_repair(record):
        entered.set()
        assert release.wait(timeout=30)
        repair(record)

    blocker.apply_delta = blocking_repair
    errors: list[BaseException] = []

    def writer():
        try:
            service.apply_updates("g", [EdgeUpdate.insert(0, 40)])
        except BaseException as error:  # surfaced by the assertion below
            errors.append(error)

    writing = threading.Thread(target=writer)
    writing.start()
    assert entered.wait(timeout=30)
    dropping = threading.Thread(target=service.drop_view, args=("dropped",))
    dropping.start()
    dropping.join(timeout=0.2)
    drop_waited = dropping.is_alive()
    release.set()
    writing.join(timeout=30)
    dropping.join(timeout=30)
    assert not errors, errors
    assert drop_waited, "drop_view ran while the writer held the service lock"
    assert service.views.names() == ["blocker", "last"]
    assert service.view_stats("last").batches_consumed == 1
    service.close()


def test_degraded_peek_never_serves_a_half_repaired_view(monkeypatch):
    """A view read without the service lock sees a whole epoch's answer.

    The front door's degraded path (``views.find`` then ``views.peek``)
    runs without the service lock.  Here the writer is paused inside the CC
    view's deletion repair, after the affected members' forest slots were
    reset: reading the forest then would give ``[0, 1, 2, 3, 4, 4]``, the
    labels of neither epoch.  The read must serve the answer published
    before the batch, tagged with its epoch and staleness.
    """
    from repro.graph.graph import Graph
    from repro.views.cc import _UnionFind

    service = TraversalService()
    service.register_graph("g", Graph([[1], [2], [3], [], [5], []]))
    service.register_view("cc", "g", kind="cc")
    entered = threading.Event()
    release = threading.Event()
    union = _UnionFind.union

    def paused_union(self, a, b):
        if not entered.is_set():
            entered.set()
            assert release.wait(timeout=30)
        return union(self, a, b)

    monkeypatch.setattr(_UnionFind, "union", paused_union)
    errors: list[BaseException] = []

    def writer():
        try:
            service.apply_updates("g", [EdgeUpdate.delete(2, 3)])
        except BaseException as error:  # surfaced by the assertion below
            errors.append(error)

    writing = threading.Thread(target=writer)
    writing.start()
    try:
        assert entered.wait(timeout=30)
        views = service.views
        name = views.find("g", "cc", {})
        during = views.peek(name)
    finally:
        release.set()
        writing.join(timeout=30)
    assert not errors, errors
    assert name == "cc"
    assert during.value.tolist() == [0, 0, 0, 0, 4, 4]
    assert (during.epoch, during.staleness) == (0, 1)
    after = service.views.peek("cc")
    assert after.value.tolist() == [0, 0, 0, 3, 4, 4]
    assert (after.epoch, after.staleness) == (1, 0)
    assert service.view_result("cc").value.tolist() == [0, 0, 0, 3, 4, 4]
    service.close()


def test_view_find_is_safe_against_concurrent_registration():
    """``find`` runs without the service lock while views come and go.

    Iterating the live registration dict while another thread registers or
    drops a view fails with "dictionary changed size during iteration";
    a short thread switch interval makes that race show within the loop.
    """
    import sys

    graph = web_locality_graph(24, avg_degree=3.0, seed=2)
    service = TraversalService()
    service.register_graph("g", graph)
    for index in range(32):
        service.register_view(
            f"khop{index}", "g", kind="khop", params={"source": index % 24}
        )
    service.register_view("cc", "g", kind="cc")
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    stop = threading.Event()
    errors: list[BaseException] = []

    def churn_views():
        index = 0
        try:
            while not stop.is_set():
                name = f"extra{index}"
                service.register_view(name, "g", kind="cc")
                service.drop_view(name)
                index += 1
        except BaseException as error:  # surfaced by the assertion below
            errors.append(error)

    churning = threading.Thread(target=churn_views)
    churning.start()
    found = []
    try:
        for _ in range(3000):
            found.append(service.views.find("g", "pagerank", {"source": 0}))
            found.append(service.views.find("g", "khop", {"source": 5}))
    finally:
        stop.set()
        churning.join(timeout=30)
        sys.setswitchinterval(previous_interval)
    assert not errors, errors
    assert set(found) == {None, "khop5"}
    service.close()
