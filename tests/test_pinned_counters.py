"""Pinned modelled counters: the simulator's cost model must not drift.

Every ``KernelMetrics`` field, the answers (BFS levels, MS-BFS lane levels,
CC labels) and the plan-cache counters are asserted *exactly* against
values recorded in ``pinned_counters.json``, for each of the five
``STRATEGY_LADDER`` rungs x three dataset families x BFS, 4-lane MS-BFS and
CC x no plan cache and a 64-node cache at the paper's 32-lane warp, plus
the web family at a 4-lane warp.  Host-side speedups of the
strategies, the plan format or the plan cache must leave every number
here unchanged; a change that means to move the cost model re-records the
file (``python tests/test_pinned_counters.py --record``) and says why.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields
from functools import lru_cache
from pathlib import Path

import pytest

from repro.apps.bfs import bfs
from repro.apps.cc import connected_components
from repro.gpu.device import GPUDevice
from repro.graph.datasets import load_dataset
from repro.gpu.metrics import KernelMetrics
from repro.service.cache import DecodedAdjacencyCache
from repro.traversal.gcgt import STRATEGY_LADDER, GCGTEngine
from repro.traversal.msbfs import msbfs

PINNED = Path(__file__).with_name("pinned_counters.json")

#: Dataset families at small scale: web locality, power-law social, and
#: extreme skew (its hubs take the warp-centric and multi-segment paths).
FAMILIES = {"uk-2002": 400, "ljournal": 400, "twitter": 600}
CACHES = {"nocache": None, "cache64": 64}
APPS = ("bfs", "msbfs", "cc")
#: Narrow-warp axis.  At 32 lanes no interval of these graphs is a warp
#: long, so stage 1 of the Two-Phase interval expansion (elected leaders
#: emitting warp-width slices) never runs; at 4 lanes the web family's
#: intervals reach it with several leaders per round and several slices
#: per lane.
NARROW_WARP = ("uk-2002", 4)
DEFAULT_WARP = 32


def _sources(num_nodes: int) -> list[int]:
    return [0, num_nodes // 3, num_nodes // 2, num_nodes - 1]


def _engine(
    graph, rung: str, capacity: int | None, warp_size: int
) -> GCGTEngine:
    cache = None if capacity is None else DecodedAdjacencyCache(capacity)
    return GCGTEngine.from_graph(
        graph, device=GPUDevice(warp_size=warp_size),
        config=STRATEGY_LADDER[rung], plan_cache=cache,
    )


def _counters(engine: GCGTEngine) -> dict:
    record = {
        field.name: getattr(engine.metrics, field.name)
        for field in fields(KernelMetrics)
    }
    cache = engine.plan_cache
    if cache is not None:
        record["cache"] = [
            cache.hits, cache.misses, cache.evictions, cache.invalidations
        ]
    return record


@lru_cache(maxsize=None)
def _graphs(family: str):
    graph = load_dataset(family, FAMILIES[family])
    return graph, graph.to_undirected()


def measure(
    family: str, rung: str, cache: str, warp_size: int = DEFAULT_WARP
) -> dict:
    """Run BFS, MS-BFS and CC for one case; return counters and answers."""
    graph, undirected = _graphs(family)
    capacity = CACHES[cache]
    engine = _engine(graph, rung, capacity, warp_size)
    sources = _sources(graph.num_nodes)
    result = {}
    answer = bfs(engine, sources[0])
    result["bfs"] = {"counters": _counters(engine),
                     "answer": answer.levels.tolist()}
    engine.reset_metrics()
    lanes = msbfs(engine, sources)
    result["msbfs"] = {"counters": _counters(engine),
                       "answer": lanes.lane_levels.tolist()}
    cc_engine = _engine(undirected, rung, capacity, warp_size)
    labels = connected_components(cc_engine)
    result["cc"] = {"counters": _counters(cc_engine),
                    "answer": labels.labels.tolist()}
    return result


CASES = [
    (family, rung, cache, DEFAULT_WARP)
    for family in FAMILIES for rung in STRATEGY_LADDER for cache in CACHES
] + [
    (NARROW_WARP[0], rung, cache, NARROW_WARP[1])
    for rung in STRATEGY_LADDER for cache in CACHES
]


def _case_id(case) -> str:
    family, rung, cache, warp_size = case
    suffix = [] if warp_size == DEFAULT_WARP else [f"w{warp_size}"]
    return "-".join([family, rung, cache, *suffix])


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_counters_and_answers_match_the_pinned_record(case, pinned):
    expected = pinned["cases"][_case_id(case)]
    observed = measure(*case)
    for app in APPS:
        assert observed[app]["counters"] == expected[app]["counters"], app
        answer = pinned["answers"][case[0]][app]
        assert observed[app]["answer"] == answer, app


def _record() -> None:
    cases, answers = {}, {}
    for case in CASES:
        observed = measure(*case)
        cases[_case_id(case)] = {
            app: {"counters": observed[app]["counters"]} for app in APPS
        }
        first = answers.setdefault(
            case[0], {app: observed[app]["answer"] for app in APPS}
        )
        for app in APPS:
            # Answers are rung-, cache- and warp-independent: one copy per
            # family.
            assert observed[app]["answer"] == first[app], (case, app)
    PINNED.write_text(
        json.dumps({"cases": cases, "answers": answers}, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_pinned_counters.py --record")
    _record()
