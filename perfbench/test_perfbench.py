"""Tests of the benchmark's own machinery (fast; no workload is run)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.apps.bfs import reference_bfs_levels  # noqa: E402
from repro.dynamic.updates import EdgeUpdate  # noqa: E402
from repro.server.frontdoor import FrontDoor  # noqa: E402
from repro.views.pagerank import PageRankValue  # noqa: E402

from perfbench import metrics  # noqa: E402
from perfbench.oracle import ShadowGraph, pagerank_reference  # noqa: E402
from perfbench.stats import (  # noqa: E402
    Outcome,
    Timing,
    summarize,
    tail_percentile,
)
from perfbench.tracing import (  # noqa: E402
    Instrumentation,
    SpanLog,
    covered_seconds,
)
from perfbench.workloads import (  # noqa: E402
    Check,
    Phase,
    _verify_static,
    view_answer_ok,
)


# -- tail percentile ------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(1, 50.0), (19, 50.0), (20, 50.0), (21, 100 * 11 / 21), (40, 75.0),
     (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == pytest.approx(expected)


@pytest.mark.parametrize("count", [21, 37, 99, 100, 101, 333, 1000])
def test_tail_has_exactly_ten_samples_beyond(count):
    samples = [float(x) for x in range(count, 0, -1)]
    timing = Timing.of(samples)
    assert sum(1 for x in samples if x > timing.tail) == 10
    assert timing.count == count


def test_timing_reports_median_tail_and_count():
    timing = Timing.of([float(x) for x in range(100, 0, -1)])
    assert (timing.count, timing.p50, timing.tail, timing.tail_pct) == (
        100, 50.0, 90.0, 90.0
    )
    short = Timing.of([3.0, 1.0, 2.0])
    assert (short.p50, short.tail, short.tail_pct) == (2.0, 2.0, 50.0)


def test_chunked_timing_ignores_a_stall_in_one_chunk():
    steady = [1.0 + 0.001 * (i % 50) for i in range(400)]
    stalled = steady[:100] + [5.0] * 30 + steady[130:]
    whole = Timing.of(stalled)
    chunked = Timing.of_chunks(stalled)
    assert whole.tail == 5.0
    assert chunked.tail == Timing.of_chunks(steady).tail
    assert chunked.count == 400
    assert chunked.tail_pct == pytest.approx(90.0)
    # Too few samples for two chunks of 40: one window-wide summary.
    assert Timing.of_chunks(stalled[:79]) == Timing.of(stalled[:79])


# -- self time -------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_with_nested_and_repeated_spans():
    clock = FakeClock()
    log = SpanLog(clock)

    def leaf():
        clock.advance(1.0)

    def middle(depth):
        clock.advance(0.5)
        if depth:
            traced_middle(depth - 1)  # the layer calling itself
        traced_leaf()
        traced_leaf()  # repeated child

    def outer():
        clock.advance(2.0)
        traced_middle(1)
        clock.advance(0.25)

    traced_leaf = log.wrap("leaf", leaf)
    traced_middle = log.wrap("middle", middle)
    traced_outer = log.wrap("outer", outer)
    log.set_request(7)
    traced_outer()
    traced_outer()

    totals = log.layer_totals()
    assert totals["outer"] == (2 * 2.25, 2)
    assert totals["middle"] == (2 * 2 * 0.5, 4)
    assert totals["leaf"] == (2 * 4 * 1.0, 8)
    # Self times add back up to the root spans' wall time.
    assert sum(s for s, _ in totals.values()) == pytest.approx(2 * 7.25)
    columns = log.columns()
    assert set(columns["request"]) == {7}
    assert columns["parent"].count(-1) == 2


def test_units_and_dispatcher_request_attribution():
    log = SpanLog(FakeClock())
    query = object()
    log.query_requests[id(query)] = 42

    def submit(self, queries):
        return len(queries)

    traced = log.wrap(
        "service.submit_s", submit,
        units=(("lanes", lambda args: float(len(args[1]))),),
        request_of=lambda log, args: log.query_requests.get(id(args[1][0])),
    )
    traced(None, [query, object()])
    assert log.units() == {"lanes": 2.0}
    assert log.columns()["request"] == [42]


def test_covered_seconds_unions_and_intersects():
    cover = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]
    window = [(1.0, 5.5), (7.0, 8.0)]
    assert covered_seconds(cover, window) == pytest.approx(2.0 + 0.5)


def test_instrumentation_restores_every_original():
    original = FrontDoor.__dict__["submit"]
    with Instrumentation(SpanLog()):
        assert FrontDoor.__dict__["submit"] is not original
    assert FrontDoor.__dict__["submit"] is original


# -- due-time latency and failure accounting --------------------------------------


def test_latency_counts_from_due_time_and_refusals_miss():
    outcomes = [
        Outcome(due=0.0, end=1.0, status="ok"),
        Outcome(due=1.0, end=4.0, status="ok"),  # 3 s late: misses the limit
        Outcome(due=2.0, end=2.5, status="degraded"),
        Outcome(due=3.0, end=3.0, status="rejected"),
        Outcome(due=4.0, end=9.0, status="deadline"),
        Outcome(due=5.0, end=5.1, status="wrong"),
    ]
    summary = summarize(outcomes, limit_s=2.0, window_s=10.0)
    assert summary.attempted == 6
    assert summary.answered == 3
    assert summary.good == 2
    assert summary.failed_frac == pytest.approx(3 / 6)
    assert summary.degraded_frac == pytest.approx(1 / 6)
    assert summary.good_per_s == pytest.approx(0.2)
    assert summary.latency.count == 3
    assert summary.latency.p50 == pytest.approx(1.0)


def test_unknown_outcome_is_rejected():
    with pytest.raises(ValueError):
        Outcome(due=0.0, end=1.0, status="maybe")


# -- oracles ----------------------------------------------------------------------

ADJACENCY = [[1, 2], [2], [0, 3], [], [5], []]


def _phase_with(check: Check) -> Phase:
    phase = Phase(window_s=1.0)
    phase.outcomes.append(Outcome(due=0.0, end=1.0, status="ok"))
    phase.checks.append(check)
    return phase


def test_static_oracle_accepts_right_and_catches_corrupted_bfs():
    levels = reference_bfs_levels(ADJACENCY, 0)
    good = _phase_with(Check(0, "bfs", levels.copy(), source=0))
    assert _verify_static(ADJACENCY, [good], 0) == 0
    corrupted = levels.copy()
    corrupted[3] += 1
    bad = _phase_with(Check(0, "bfs", corrupted, source=0))
    assert _verify_static(ADJACENCY, [bad], 0) == 1
    assert bad.outcomes[0].status == "wrong"


def test_static_oracle_enforces_staleness_budget_on_degraded_cc():
    labels = np.array([0, 0, 0, 0, 4, 4])
    fresh = _phase_with(Check(0, "cc", labels, staleness=2))
    assert _verify_static(ADJACENCY, [fresh], 2) == 0
    stale = _phase_with(Check(0, "cc", labels, staleness=3))
    assert _verify_static(ADJACENCY, [stale], 2) == 1


def test_view_oracle_catches_corrupted_answers():
    shadow = ShadowGraph(ADJACENCY)
    shadow.apply([EdgeUpdate.insert(3, 4), EdgeUpdate.delete(2, 3),
                  EdgeUpdate.insert(5, 5)])
    adjacency = shadow.adjacency()
    assert adjacency == [[1, 2], [2], [0], [4], [5], []]
    labels = np.array([0, 0, 0, 3, 3, 3])
    assert view_answer_ok("cc", labels, adjacency, 0, 0.15)
    assert not view_answer_ok("cc", labels[::-1].copy(), adjacency, 0, 0.15)
    levels = reference_bfs_levels(adjacency, 3)
    assert view_answer_ok("khop", levels, adjacency, 3, 0.15)
    assert not view_answer_ok("khop", levels + 1, adjacency, 3, 0.15)

    truth = pagerank_reference(adjacency, 0, 0.15)
    bound = 1e-3
    close = PageRankValue(0, truth + bound / 12, np.full(6, bound / 6))
    assert view_answer_ok("pagerank", close, adjacency, 0, 0.15)
    off = PageRankValue(0, truth + 0.05, np.full(6, bound / 6))
    assert not view_answer_ok("pagerank", off, adjacency, 0, 0.15)


def test_pagerank_reference_is_the_push_fixed_point():
    truth = pagerank_reference(ADJACENCY, 0, 0.15)
    # p = alpha * e_s + (1 - alpha) * P^T p, dangling rows dropped.
    expected = np.zeros(6)
    expected[0] = 0.15
    for node, neighbors in enumerate(ADJACENCY):
        for neighbor in neighbors:
            expected[neighbor] += 0.85 * truth[node] / len(neighbors)
    np.testing.assert_allclose(truth, expected, atol=1e-12)


# -- metric names -----------------------------------------------------------------


def test_metric_names_are_well_formed_and_unique():
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_PATTERN.fullmatch(name), name
        assert len(name) <= 64


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert listed == [(m.name, m.unit, m.better) for m in table]
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
