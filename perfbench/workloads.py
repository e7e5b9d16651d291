"""The benchmark's workloads, driven through the library's public API.

Each workload generates its inputs from the seed (the graph through the
generator of a :mod:`repro.graph.datasets` family with that family's
parameters, and the request stream), builds a serving stack in
:meth:`Workload.setup`, drives it for a measured window in
:meth:`Workload.run` and checks every answer afterwards in
:meth:`Workload.verify`.  The load comes from one process: the calling
thread plus at most one front-door dispatcher thread.

* ``point_warm`` -- closed loop, one client, BFS point queries through
  :meth:`repro.server.FrontDoor.call` on a uk-2002-family web graph that
  fits the plan cache; after warm-up every plan lookup hits, so the time
  is traversal, the simulated strategy ladder and GPU accounting.
* ``open_mix`` -- open loop, Poisson arrivals at a fixed rate, 85% BFS and
  15% CC from two tenants, through a bounded front-door queue with
  deadlines and a degradable CC view, on a ljournal-family power-law graph
  larger than the plan cache; exercises admission, shedding, MS-BFS
  coalescing, degraded serving and decode on every sweep.
* ``churn`` -- closed loop, one writer, update batches against a
  two-shard uk-2007-family graph carrying eager CC, k-hop and approximate
  PageRank views, with maintenance ticks; exercises the overlay, view
  repair, shard routing and gather, and compaction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro import BFSQuery, CCQuery, EdgeUpdate, TraversalService
from repro.apps.bfs import reference_bfs_levels
from repro.apps.cc import reference_components
from repro.graph.generators import power_law_graph, web_locality_graph
from repro.lifecycle import MaintenanceConfig
from repro.server import FrontDoor

from perfbench.oracle import (
    ShadowGraph,
    pagerank_reference,
    pagerank_within_bound,
)
from perfbench.stats import Outcome
from perfbench.tracing import SpanLog

#: Seconds to wait for one outstanding response before calling it failed.
RESPONSE_TIMEOUT_S = 120.0


def uk2002_graph(nodes: int, seed: int):
    """The ``uk-2002`` dataset family's generator at ``nodes``, ``seed``."""
    return web_locality_graph(
        nodes, avg_degree=16.0, locality_window=24, run_probability=0.7,
        copy_probability=0.3, seed=seed,
    )


#: ``uk-2007`` family locality window (also used for churn insertions).
UK2007_WINDOW = 16


def uk2007_graph(nodes: int, seed: int):
    """The ``uk-2007`` dataset family's generator at ``nodes``, ``seed``."""
    return web_locality_graph(
        nodes, avg_degree=32.0, locality_window=UK2007_WINDOW,
        run_probability=0.8, copy_probability=0.35, seed=seed,
    )


def ljournal_graph(nodes: int, seed: int):
    """The ``ljournal`` dataset family's generator at ``nodes``, ``seed``."""
    return power_law_graph(
        nodes, avg_degree=15.0, exponent=2.3, max_degree_fraction=0.03,
        hub_count=max(2, nodes // 500), seed=seed,
    )


def banded_ljournal_graph(nodes: int, seed: int, band: tuple[int, int]):
    """A ``ljournal``-family graph whose edge count lies within ``band``.

    The family's heavy-tailed degrees make the edge count swing by a
    quarter between seeds, which would decide run-to-run differences on
    its own.  Generator seeds are drawn from ``seed`` until one lands in
    the band, so the same seed always gives the same graph.
    """
    rng = np.random.default_rng([seed, 0])
    for _ in range(MAX_GRAPH_DRAWS):
        graph = ljournal_graph(nodes, int(rng.integers(2**31)))
        if band[0] <= graph.num_edges <= band[1]:
            return graph
    raise RuntimeError(f"no ljournal graph with {band} edges in {MAX_GRAPH_DRAWS} draws")


#: Generator seeds tried by :func:`banded_ljournal_graph`; about 40% of
#: draws land in the open_mix band, so this bound is never reached.
MAX_GRAPH_DRAWS = 64


@dataclass
class Stack:
    """One serving stack built by :meth:`Workload.setup`."""

    service: TraversalService
    door: FrontDoor | None = None
    scheduler: object | None = None

    def close(self) -> None:
        if self.door is not None:
            self.door.close()
        self.service.close()


@dataclass
class Check:
    """One answer to verify: which outcome it belongs to, and the answer."""

    outcome: int
    kind: str
    answer: object
    source: int = -1
    staleness: int = 0
    #: Update batches applied when the answer was read (``churn``).
    batches: int = 0


@dataclass
class Phase:
    """What one measured window recorded."""

    window_s: float = 0.0
    outcomes: list[Outcome] = field(default_factory=list)
    #: ``(start, end)`` of every operation in flight (measured wall time).
    intervals: list[tuple[float, float]] = field(default_factory=list)
    #: Per-operation execution seconds, excluding queue wait.
    work_s: list[float] = field(default_factory=list)
    queue_s: list[float] = field(default_factory=list)
    #: Read latencies when reads are not the workload's operation.
    reads_s: list[float] = field(default_factory=list)
    lateness_s: list[float] = field(default_factory=list)
    modelled_cost: float = 0.0
    modelled_elapsed: float = 0.0
    updates_offered: int = 0
    updates_applied: int = 0
    updates_ignored: int = 0
    checks: list[Check] = field(default_factory=list)

    def mark_wrong(self, index: int) -> None:
        self.outcomes[index] = replace(self.outcomes[index], status="wrong")


def _status(response) -> str:
    if response.ok:
        return "degraded" if response.degraded else "ok"
    return {"rejected": "rejected", "deadline_exceeded": "deadline"}.get(
        response.status, "failed"
    )


def _record_response(
    phase: Phase, due: float, start: float, end: float, response
) -> None:
    """Account one front-door response and queue its answer for checking."""
    index = len(phase.outcomes)
    phase.outcomes.append(Outcome(due=due, end=end, status=_status(response)))
    phase.intervals.append((start, end))
    phase.queue_s.append(response.queue_seconds)
    if not response.ok:
        return
    if response.degraded:
        view = response.value
        phase.checks.append(
            Check(index, view.kind, view.value, staleness=view.staleness)
        )
        return
    result = response.value
    phase.work_s.append(response.total_seconds - response.queue_seconds)
    phase.modelled_cost += result.metrics.cost
    phase.modelled_elapsed += result.metrics.elapsed_proxy
    if result.kind == "bfs":
        phase.checks.append(
            Check(index, "bfs", result.value.levels, source=result.query.source)
        )
    else:
        phase.checks.append(Check(index, "cc", result.value.labels))


def _verify_static(adjacency, phases: list[Phase], staleness_budget: int) -> int:
    """Check BFS/CC answers on a graph that never changes; count wrong."""
    levels: dict[int, np.ndarray] = {}
    labels: np.ndarray | None = None
    wrong = 0
    for phase in phases:
        for check in phase.checks:
            if check.kind == "bfs":
                if check.source not in levels:
                    levels[check.source] = reference_bfs_levels(
                        adjacency, check.source
                    )
                ok = np.array_equal(check.answer, levels[check.source])
            elif check.kind == "cc":
                if labels is None:
                    labels = reference_components(adjacency)
                ok = (
                    check.staleness <= staleness_budget
                    and np.array_equal(check.answer, labels)
                )
            else:
                ok = False
            if not ok:
                phase.mark_wrong(check.outcome)
                wrong += 1
    return wrong


def view_answer_ok(
    kind: str, answer, adjacency: list[list[int]], source: int, alpha: float
) -> bool:
    """Whether a CC, k-hop or PageRank view answer matches ``adjacency``."""
    if kind == "cc":
        return np.array_equal(answer, reference_components(adjacency))
    if kind == "khop":
        return np.array_equal(answer, reference_bfs_levels(adjacency, source))
    if kind == "pagerank":
        truth = pagerank_reference(adjacency, source, alpha)
        return pagerank_within_bound(answer.estimates, answer.error_bound, truth)
    return False


class Workload:
    """Interface of one workload (see the module docstring)."""

    name = ""
    #: What the workload's operation is: a ``"read"`` or a ``"write"``.
    op_kind = "read"
    #: Latency limit of one operation, seconds.
    limit_s = 0.0
    #: Name of the registered graph whose compression is reported.
    graph_name = ""
    #: Request ids handed out so far (spans of one operation share one).
    _requests = 0

    def setup(self) -> Stack:
        raise NotImplementedError

    def run(self, stack: Stack, seconds: float, log: SpanLog | None = None) -> Phase:
        raise NotImplementedError

    def verify(self, stack: Stack, phases: list[Phase]) -> int:
        raise NotImplementedError

    def floor_sources(self) -> list[int]:
        raise NotImplementedError

    def _tag(self, log: SpanLog | None, query=None) -> None:
        """Give the next operation a request id in the trace."""
        self._requests += 1
        if log is not None:
            log.set_request(self._requests)
            if query is not None:
                log.query_requests[id(query)] = self._requests


class PointWarm(Workload):
    """Closed-loop BFS point reads on a graph that fits the plan cache."""

    name = "point_warm"
    limit_s = 1.0
    graph_name = "web"
    NODES = 2500
    SOURCES = 64
    TENANT = "client"

    def __init__(self, seed: int) -> None:
        self.graph = uk2002_graph(self.NODES, seed)
        rng = np.random.default_rng([seed, 1])
        self.sources = [
            int(s) for s in rng.choice(self.NODES, self.SOURCES, replace=False)
        ]
        self.stream = np.random.default_rng([seed, 2])

    def setup(self) -> Stack:
        service = TraversalService()
        service.register_graph(self.graph_name, self.graph)
        door = FrontDoor(service, dispatchers=1)
        door.register_tenant(self.TENANT)
        # One lane-packed sweep from every pool source decodes every node
        # any later request can reach, so the measured reads all hit.
        service.submit([BFSQuery(self.graph_name, s) for s in self.sources])
        return Stack(service, door)

    def run(self, stack: Stack, seconds: float, log: SpanLog | None = None) -> Phase:
        phase = Phase()
        began = time.perf_counter()
        stop = began + seconds
        while time.perf_counter() < stop:
            source = self.sources[int(self.stream.integers(self.SOURCES))]
            query = BFSQuery(self.graph_name, source)
            self._tag(log, query)
            start = time.perf_counter()
            response = stack.door.call(
                self.TENANT, query, timeout=RESPONSE_TIMEOUT_S
            )
            end = time.perf_counter()
            _record_response(phase, start, start, end, response)
        phase.window_s = time.perf_counter() - began
        return phase

    def verify(self, stack: Stack, phases: list[Phase]) -> int:
        return _verify_static(self.graph.adjacency(), phases, 0)

    def floor_sources(self) -> list[int]:
        return self.sources


class OpenMix(Workload):
    """Open-loop BFS/CC mix from two tenants on a graph over cache size."""

    name = "open_mix"
    graph_name = "social"
    #: The graph is three times the plan cache, so every sweep evicts and
    #: re-decodes.  Both are kept small so a sweep is short and one run
    #: holds over a hundred of them.
    NODES = 1500
    CACHE_NODES = 512
    #: Offered requests per second: a fixed constant, never calibrated
    #: against the code under test.  It is about twice what the front door
    #: serves, so the queue below is full whenever the dispatcher takes a
    #: group, every sweep carries a full group, and a steady share is shed.
    RATE = 32.0
    BFS_SHARE = 0.85
    SOURCES = 64
    QUEUE = 4
    #: Per-request deadlines, seconds.  A CC request's deadline is shorter
    #: than a fresh CC sweep, so once the front door has timed one (during
    #: set-up) it serves CC from the view (degraded) when it reaches the
    #: request in time, and never stalls the queue on it.
    BFS_DEADLINE_S = 2.0
    CC_DEADLINE_S = 0.3
    limit_s = BFS_DEADLINE_S
    #: Epochs a degraded CC answer may lag (the graph never changes here).
    STALENESS = 2
    #: ``(tenant, priority, share of requests)``.
    TENANTS = (("interactive", 0, 0.7), ("batch", 2, 0.3))
    VIEW = "social-cc"
    #: Accepted edge count: the middle of the family's spread at 1500 nodes.
    EDGE_BAND = (14_700, 16_300)

    def __init__(self, seed: int) -> None:
        self.graph = banded_ljournal_graph(self.NODES, seed, self.EDGE_BAND)
        rng = np.random.default_rng([seed, 1])
        self.sources = [
            int(s) for s in rng.choice(self.NODES, self.SOURCES, replace=False)
        ]
        self.stream = np.random.default_rng([seed, 2])

    def setup(self) -> Stack:
        service = TraversalService(cache_capacity=self.CACHE_NODES)
        service.register_graph(self.graph_name, self.graph)
        service.register_view(self.VIEW, self.graph_name, kind="cc")
        door = FrontDoor(
            service, queue_capacity=self.QUEUE, dispatchers=1,
            degraded_staleness=self.STALENESS,
        )
        for tenant, priority, _ in self.TENANTS:
            door.register_tenant(tenant, priority=priority)
        # Seed the front door's per-kind execution estimates, which decide
        # degraded serving, so the window starts in steady state.
        door.call(self.TENANTS[0][0], BFSQuery(self.graph_name, self.sources[0]))
        door.call(self.TENANTS[0][0], CCQuery(self.graph_name))
        return Stack(service, door)

    def _arrivals(self, seconds: float) -> list[tuple[float, str, object]]:
        """``(offset, tenant, query)`` of a Poisson stream over ``seconds``.

        The count is fixed at ``RATE * seconds``: a Poisson process given
        its count places arrivals as sorted uniform times.  Kind and tenant
        shares are exact too (shuffled), so runs differ only in order and
        timing, not in how much work is offered.
        """
        rng = self.stream
        count = max(1, round(self.RATE * seconds))
        offsets = np.sort(rng.uniform(0.0, seconds, count))
        bfs = rng.permutation(np.arange(count) < round(self.BFS_SHARE * count))
        shares = [round(share * count) for _, _, share in self.TENANTS[:-1]]
        shares.append(count - sum(shares))
        tenants = rng.permutation(np.repeat(
            [name for name, _, _ in self.TENANTS], shares
        ))
        arrivals = []
        for offset, is_bfs, tenant in zip(offsets, bfs, tenants):
            if is_bfs:
                source = self.sources[int(rng.integers(self.SOURCES))]
                query = BFSQuery(self.graph_name, source)
            else:
                query = CCQuery(self.graph_name)
            arrivals.append((float(offset), str(tenant), query))
        return arrivals

    def run(self, stack: Stack, seconds: float, log: SpanLog | None = None) -> Phase:
        phase = Phase(window_s=seconds)
        arrivals = self._arrivals(seconds)
        pending = []
        began = time.perf_counter()
        for offset, tenant, query in arrivals:
            due = began + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self._tag(log, query)
            start = time.perf_counter()
            deadline = (
                self.BFS_DEADLINE_S if isinstance(query, BFSQuery)
                else self.CC_DEADLINE_S
            )
            ticket = stack.door.submit(tenant, query, deadline=deadline)
            phase.lateness_s.append(start - due)
            pending.append((due, start, ticket))
        for due, start, ticket in pending:
            response = ticket.response(timeout=RESPONSE_TIMEOUT_S)
            _record_response(
                phase, due, start, start + response.total_seconds, response
            )
        return phase

    def verify(self, stack: Stack, phases: list[Phase]) -> int:
        return _verify_static(self.graph.adjacency(), phases, self.STALENESS)

    def floor_sources(self) -> list[int]:
        return self.sources


class UpdateStream:
    """Seeded update batches: inserts near the source, deletes of live edges.

    Keeps its own :class:`~perfbench.oracle.ShadowGraph` so every delete
    names an edge that exists and every insert one that does not.
    """

    def __init__(self, graph, seed: int, batch: int, insert_share: float) -> None:
        self.shadow = ShadowGraph(graph.adjacency())
        self.rng = np.random.default_rng([seed, 3])
        self.batch = batch
        self.insert_share = insert_share

    def _insert(self) -> EdgeUpdate:
        rng, n = self.rng, self.shadow.num_nodes
        while True:
            source = int(rng.integers(n))
            if rng.random() < 0.9:
                target = source + int(
                    rng.integers(-UK2007_WINDOW, UK2007_WINDOW + 1)
                )
            else:
                target = int(rng.integers(n))
            if (
                0 <= target < n and target != source
                and target not in self.shadow.out[source]
            ):
                return EdgeUpdate.insert(source, target)

    def _delete(self) -> EdgeUpdate:
        rng, n = self.rng, self.shadow.num_nodes
        while True:
            source = int(rng.integers(n))
            neighbors = self.shadow.out[source]
            if neighbors:
                ordered = sorted(neighbors)
                return EdgeUpdate.delete(
                    source, ordered[int(rng.integers(len(ordered)))]
                )

    def next_batch(self) -> list[EdgeUpdate]:
        batch = []
        for _ in range(self.batch):
            update = (
                self._insert() if self.rng.random() < self.insert_share
                else self._delete()
            )
            self.shadow.apply([update])
            batch.append(update)
        return batch


class Churn(Workload):
    """Closed-loop update batches beside view reads on a sharded graph."""

    name = "churn"
    op_kind = "write"
    graph_name = "web"
    NODES = 1200
    SHARDS = 2
    BATCH = 32
    INSERT_SHARE = 0.6
    #: A maintenance tick runs after every ``TICK_EVERY``-th batch.
    TICK_EVERY = 4
    #: Per-node delta folds per tick: more than the batches between two
    #: ticks touch, so each tick folds every pending delta.  The overlay
    #: then stays bounded and the cost of a batch does not creep up over
    #: the window, as it does when compaction falls behind.
    COMPACT_BUDGET = 512
    limit_s = 2.0
    VIEWS = ("web-cc", "web-khop", "web-pagerank")
    PAGERANK_ALPHA = 0.15

    def __init__(self, seed: int) -> None:
        self.graph = uk2007_graph(self.NODES, seed)
        rng = np.random.default_rng([seed, 1])
        self.source = int(rng.integers(self.NODES))
        self.updates = UpdateStream(
            self.graph, seed, self.BATCH, self.INSERT_SHARE
        )
        #: Every applied batch in order, for the oracle replay.
        self.batches: list[list[EdgeUpdate]] = []

    def setup(self) -> Stack:
        service = TraversalService()
        service.register_graph(self.graph_name, self.graph, shards=self.SHARDS)
        cc, khop, pagerank = self.VIEWS
        service.register_view(cc, self.graph_name, kind="cc")
        service.register_view(
            khop, self.graph_name, kind="khop", params={"source": self.source}
        )
        service.register_view(
            pagerank, self.graph_name, kind="pagerank",
            params={"source": self.source, "mode": "approx",
                    "alpha": self.PAGERANK_ALPHA},
        )
        scheduler = service.enable_maintenance(
            MaintenanceConfig(compact_budget=self.COMPACT_BUDGET)
        )
        service.submit([BFSQuery(self.graph_name, self.source)])
        return Stack(service, scheduler=scheduler)

    def run(self, stack: Stack, seconds: float, log: SpanLog | None = None) -> Phase:
        service = stack.service
        phase = Phase()
        began = time.perf_counter()
        stop = began + seconds
        while time.perf_counter() < stop:
            batch = self.updates.next_batch()
            self._tag(log)
            start = time.perf_counter()
            stats = service.apply_updates(self.graph_name, batch)
            self.batches.append(batch)
            if len(self.batches) % self.TICK_EVERY == 0:
                stack.scheduler.tick()
            end = time.perf_counter()
            index = len(phase.outcomes)
            phase.outcomes.append(Outcome(due=start, end=end, status="ok"))
            phase.intervals.append((start, end))
            phase.work_s.append(end - start)
            phase.updates_offered += len(batch)
            phase.updates_applied += stats.inserted + stats.deleted
            phase.updates_ignored += stats.ignored
            for view in self.VIEWS:
                read_start = time.perf_counter()
                result = service.view_result(view)
                read_end = time.perf_counter()
                phase.reads_s.append(read_end - read_start)
                phase.intervals.append((read_start, read_end))
                phase.checks.append(Check(
                    index, result.kind, result.value,
                    staleness=result.staleness, batches=len(self.batches),
                ))
        phase.window_s = time.perf_counter() - began
        return phase

    def verify(self, stack: Stack, phases: list[Phase]) -> int:
        """Replay every batch on a shadow edge set; check each view read.

        A final fresh BFS through the service is checked against the
        shadow after the last batch; a mismatch counts as one wrong answer.
        """
        [fresh] = stack.service.submit([BFSQuery(self.graph_name, self.source)])
        shadow = ShadowGraph(self.graph.adjacency())
        applied = 0
        wrong = 0
        adjacency = shadow.adjacency()
        for phase in phases:
            for check in phase.checks:
                if check.batches != applied:
                    for batch in self.batches[applied:check.batches]:
                        shadow.apply(batch)
                    applied = check.batches
                    adjacency = shadow.adjacency()
                if check.staleness != 0 or not view_answer_ok(
                    check.kind, check.answer, adjacency, self.source,
                    self.PAGERANK_ALPHA,
                ):
                    phase.mark_wrong(check.outcome)
                    wrong += 1
        for batch in self.batches[applied:]:
            shadow.apply(batch)
        expected = reference_bfs_levels(shadow.adjacency(), self.source)
        if not np.array_equal(fresh.value.levels, expected):
            wrong += 1
        return wrong

    def floor_sources(self) -> list[int]:
        return [self.source]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PointWarm, OpenMix, Churn)
}
