"""Tests for :mod:`repro.obs`: tracing, metrics, exporters, integration.

Covers the instruments in isolation (fake-clock span trees, sampling
determinism, registry typing, exposition formats), then the end-to-end
contract the front door promises: every admitted request produces a
complete span tree -- admission, queue wait, execution supersteps,
response -- retrievable by its ``trace_id``, including the degraded,
deadline-expired and rejected paths, with audit events carrying the same
id.  The differential tests pin the registry to the legacy stats
surfaces: identical workloads must move both by identical deltas.
"""

import json
import threading
import time

import pytest

from repro.graph.generators import web_locality_graph
from repro.obs import (
    MAX_SPAN_EVENTS,
    NOOP_TRACER,
    NULL_SPAN,
    MetricsRegistry,
    SlowQueryLog,
    Telemetry,
    Tracer,
    json_snapshot,
    prometheus_text,
)
from repro.server import (
    FrontDoor,
    LatencyReservoir,
    TenantCounters,
    TenantSLA,
    snapshot_sla,
)
from repro.service import (
    BFSQuery,
    CCQuery,
    PageRankQuery,
    TraversalService,
)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class TestSpans:
    def test_span_tree_records_timing_and_attributes(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        root = tracer.start_trace("request", tenant="t")
        clock.advance(1.0)
        child = root.child("execute", group=2)
        clock.advance(0.5)
        child.finish()
        clock.advance(0.25)
        root.finish()
        assert root.trace_id == "t-00000001"
        assert root.attributes == {"tenant": "t"}
        assert child.duration == pytest.approx(0.5)
        assert root.duration == pytest.approx(1.75)
        assert [s.name for s in root.walk()] == ["request", "execute"]
        assert root.find("execute") is child
        assert root.find("missing") is None
        assert tracer.trace(root.trace_id) is root

    def test_context_manager_nests_and_finishes(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert tracer.current() is None
        assert outer.ended and inner.ended
        assert [s.name for s in outer.walk()] == ["outer", "inner"]

    def test_exception_marks_span_error(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("boom") as span:
                raise RuntimeError("nope")
        assert span.status == "error"
        assert span.attributes["error"] == "RuntimeError"
        assert tracer.trace(span.trace_id) is span

    def test_events_are_bounded_per_span(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.start_trace("request")
        for i in range(MAX_SPAN_EVENTS + 5):
            span.event("decode_miss", node=i)
        assert len(span.events) == MAX_SPAN_EVENTS
        assert span.dropped_events == 5
        rendered = span.to_dict()
        assert rendered["dropped_events"] == 5
        json.dumps(rendered)  # JSON-ready by construction

    def test_finish_is_idempotent(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        span = tracer.start_trace("request")
        span.finish("ok")
        end = span.end
        clock.advance(5.0)
        span.finish("error")
        assert span.end == end and span.status == "ok"
        assert tracer.completed == 1

    def test_ring_evicts_oldest_traces(self):
        tracer = Tracer(capacity=2, clock=FakeClock())
        roots = [tracer.start_trace("r") for _ in range(3)]
        for root in roots:
            root.finish()
        assert len(tracer) == 2
        assert tracer.trace(roots[0].trace_id) is None
        assert tracer.trace(roots[2].trace_id) is roots[2]
        assert tracer.completed == 3


class TestSampling:
    def test_head_sampling_is_deterministic(self):
        tracer = Tracer(sample_rate=0.25, clock=FakeClock())
        kept = [tracer.start_trace("r").sampled for _ in range(20)]
        assert kept.count(True) == 5
        # Head-based: the decision depends only on the sequence number.
        again = Tracer(sample_rate=0.25, clock=FakeClock())
        assert [again.start_trace("r").sampled for _ in range(20)] == kept

    def test_unsampled_traces_keep_unique_ids(self):
        tracer = Tracer(sample_rate=0.0, clock=FakeClock())
        stubs = [tracer.start_trace("r") for _ in range(3)]
        assert len({s.trace_id for s in stubs}) == 3
        assert all(not s.sampled and not s.recording for s in stubs)
        stubs[0].finish()
        assert len(tracer) == 0

    def test_unsampled_span_suppresses_nested_roots(self):
        # Lower layers calling tracer.span() inside an unsampled request
        # must inherit the not-sampled decision, not open orphan roots.
        tracer = Tracer(sample_rate=0.0, clock=FakeClock())
        with tracer.start_trace("request") as root:
            inner = tracer.span("superstep")
            assert not inner.recording
            assert inner.trace_id == root.trace_id
        assert tracer.traces() == []

    def test_disabled_tracer_returns_shared_null_span(self):
        tracer = Tracer(enabled=False, clock=FakeClock())
        assert tracer.span("anything") is NULL_SPAN
        root = tracer.start_trace("request")
        assert root.trace_id  # ids still minted for audit correlation
        assert not root.sampled

    def test_noop_tracer_is_inert(self):
        assert NOOP_TRACER.span("x") is NULL_SPAN
        assert NOOP_TRACER.start_trace("x") is NULL_SPAN
        assert NOOP_TRACER.current() is None
        assert NOOP_TRACER.traces() == []
        with NULL_SPAN as span:
            span.annotate(a=1)
            span.event("e")
        assert NULL_SPAN.attributes == {}

    def test_invalid_configuration_raises(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(capacity=0)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", labels=("outcome",))
        counter.inc(outcome="ok")
        counter.inc(2.0, outcome="ok")
        assert counter.value(outcome="ok") == 3.0
        assert counter.value(outcome="shed") == 0.0
        with pytest.raises(ValueError):
            counter.inc(-1.0, outcome="ok")

    def test_callback_backed_counter_reads_live_source(self):
        registry = MetricsRegistry()
        state = {"served": 0}
        counter = registry.counter("served_total")
        counter.set_function(lambda: state["served"])
        state["served"] = 7
        assert counter.value() == 7.0
        with pytest.raises(ValueError, match="callback-backed"):
            counter.inc()

    def test_label_set_must_match_declaration(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labels=("tenant",))
        with pytest.raises(ValueError):
            counter.inc()  # missing label
        with pytest.raises(ValueError):
            counter.inc(tenant="t", extra="x")

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("queue_depth")
        gauge.set(4)
        gauge.set(1)
        assert gauge.value() == 1.0

    def test_get_or_create_is_idempotent_but_typed(self):
        registry = MetricsRegistry()
        first = registry.counter("c", labels=("a",))
        assert registry.counter("c", labels=("a",)) is first
        with pytest.raises(ValueError):
            registry.gauge("c", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("c", labels=("b",))

    def test_name_and_label_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name")
        with pytest.raises(ValueError):
            registry.counter("ok", labels=("bad-label",))
        assert "ok" not in registry
        registry.counter("ok")
        assert "ok" in registry and registry.names() == ["ok"]


# ---------------------------------------------------------------------------
# Exporters and the slow-query log
# ---------------------------------------------------------------------------

class TestExporters:
    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter(
            "requests_total", "Requests.", labels=("tenant",)
        ).inc(3, tenant='we"ird\\te\nnant')
        registry.gauge("depth", "Depth.").set(2.5)
        text = prometheus_text(registry)
        assert "# HELP requests_total Requests." in text
        assert "# TYPE requests_total counter" in text
        assert (
            'requests_total{tenant="we\\"ird\\\\te\\nnant"} 3' in text
        )
        assert "# TYPE depth gauge" in text and "depth 2.5" in text
        assert text.endswith("\n")

    def test_json_snapshot_bundles_everything(self):
        telemetry = Telemetry(clock=FakeClock())
        telemetry.metrics.counter("c").inc()
        with telemetry.tracer.span("request"):
            pass
        snapshot = telemetry.snapshot()
        json.dumps(snapshot)
        assert snapshot["traces_completed"] == 1
        assert [m["name"] for m in snapshot["metrics"]] == ["c"]
        assert snapshot["traces"][0]["name"] == "request"

    def test_slow_query_log_admits_over_threshold(self):
        clock = FakeClock()
        log = SlowQueryLog(threshold_seconds=1.0, capacity=2)
        tracer = Tracer(clock=clock, slow_log=log)
        for seconds in (0.5, 1.5, 3.0, 2.0):
            span = tracer.start_trace("request")
            clock.advance(seconds)
            span.finish()
        assert log.observed == 4 and log.admitted == 3
        assert len(log) == 2  # ring keeps the most recent admissions
        durations = [root.duration for root in log.entries()]
        assert durations == [pytest.approx(3.0), pytest.approx(2.0)]
        assert [d["name"] for d in log.as_dicts()] == ["request"] * 2
        log.clear()
        assert len(log) == 0 and log.admitted == 3


# ---------------------------------------------------------------------------
# Latency reservoir edge cases (satellite)
# ---------------------------------------------------------------------------

class TestReservoirEdgeCases:
    def test_empty_reservoir_reports_zero(self):
        reservoir = LatencyReservoir(capacity=4)
        assert reservoir.percentile(0.0) == 0.0
        assert reservoir.percentile(0.99) == 0.0
        assert snapshot_sla("t", TenantCounters(), reservoir) == TenantSLA("t")

    def test_single_sample_is_every_quantile(self):
        reservoir = LatencyReservoir(capacity=4)
        reservoir.record(0.123)
        for fraction in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert reservoir.percentile(fraction) == 0.123

    def test_extreme_fractions_clamp_to_window(self):
        reservoir = LatencyReservoir(capacity=8)
        for value in (3.0, 1.0, 2.0):
            reservoir.record(value)
        assert reservoir.percentile(0.0) == 1.0
        assert reservoir.percentile(1.0) == 3.0  # not one-past-the-end
        with pytest.raises(ValueError):
            reservoir.percentile(1.5)

    def test_snapshot_summarizes_window(self):
        reservoir = LatencyReservoir(capacity=2)
        for value in (5.0, 1.0, 3.0):  # 5.0 overwritten by the ring
            reservoir.record(value)
        sla = snapshot_sla("t", TenantCounters(), reservoir)
        assert sla.latency_count == 3 and len(reservoir) == 2
        assert sla.p50 == 3.0 and sla.p99 == 3.0
        assert sorted(reservoir.values()) == [1.0, 3.0]


# ---------------------------------------------------------------------------
# End-to-end integration through the serving stack
# ---------------------------------------------------------------------------

def _wait_until(predicate, timeout=10.0):
    """Poll ``predicate`` until true (returns False on timeout)."""
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class _GatedService:
    """Service wrapper whose execution blocks on a gate event."""

    def __init__(self, real: TraversalService) -> None:
        self._real = real
        self.registry = real.registry
        self.views = real.views
        self.telemetry = real.telemetry
        self.gate = threading.Event()
        self.gate.set()

    def submit(self, queries, checkpoint=None):
        assert self.gate.wait(timeout=30), "test gate never opened"
        return self._real.submit(queries, checkpoint=checkpoint)

    def stats(self):
        return self._real.stats()

    def close(self):
        self._real.close()


@pytest.fixture()
def traced():
    """A fully sampled telemetry bundle over a sharded service + door."""
    telemetry = Telemetry(sample_rate=1.0)
    service = TraversalService(telemetry=telemetry)
    graph = web_locality_graph(150, avg_degree=6.0, seed=3)
    service.register_graph("g", graph, shards=2)
    door = FrontDoor(service, queue_capacity=8)
    door.register_tenant("t")
    yield door, service, telemetry
    door.close()
    service.close()


class TestEndToEndTracing:
    def test_completed_request_has_full_span_tree(self, traced):
        door, _, telemetry = traced
        ticket = door.submit("t", BFSQuery("g", source=0))
        response = ticket.response(timeout=30)
        assert response.ok and response.trace_id == ticket.trace_id
        root = telemetry.trace(response.trace_id)
        assert root is not None and root.status == "ok"
        for stage in ("admission", "queue", "execute", "response"):
            assert root.find(stage) is not None, stage
        # The executor's superstep spans nested under the execution span.
        execute = root.find("execute")
        assert execute.spans_named("superstep")
        assert root.find("service.submit") is not None
        assert all(span.ended for span in root.walk())

    def test_coalesced_group_shares_one_execution_span(self, traced):
        door, service, telemetry = traced
        gated = _GatedService(service)
        shared = FrontDoor(gated, queue_capacity=8)
        shared.register_tenant("t")
        gated.gate.clear()
        head = shared.submit("t", CCQuery("g"))
        assert _wait_until(lambda: shared.admission.depth() == 0)
        points = [
            shared.submit("t", BFSQuery("g", source=i)) for i in range(3)
        ]
        gated.gate.set()
        assert head.response(timeout=30).ok
        assert all(t.response(timeout=30).ok for t in points)
        shared.close()
        leader = telemetry.trace(points[0].trace_id)
        execute = leader.find("execute")
        assert execute.attributes["coalesced"] is True
        assert execute.attributes["group"] == 3
        # One lane child per group member, naming each member's trace...
        lanes = execute.spans_named("lane")
        assert [l.attributes["trace"] for l in lanes] == [
            t.trace_id for t in points
        ]
        # ...and each follower's own tree links back to the shared trace.
        for follower in points[1:]:
            link = telemetry.trace(follower.trace_id).find("execute")
            assert link.attributes["shared"] is True
            assert link.attributes["shared_trace"] == leader.trace_id
        # The MS-BFS sweep itself recorded under the leader only.
        assert leader.find("msbfs.sweep") is not None

    def test_degraded_request_traces_the_view_serve(self, traced):
        door, service, telemetry = traced
        service.register_view(
            "khop0", "g", "khop", params={"source": 0, "depth": 6}
        )
        degrading = FrontDoor(service, degraded_staleness=2)
        degrading.register_tenant("t")
        degrading._exec_ema["BFSQuery"] = 100.0  # predicted deadline miss
        response = degrading.call(
            "t", BFSQuery("g", source=0), deadline=1.0, timeout=30
        )
        degrading.close()
        assert response.ok and response.degraded
        root = telemetry.trace(response.trace_id)
        assert root.status == "ok"
        degrade = root.find("degrade")
        assert degrade.attributes["view"] == "khop0"
        assert root.find("response").attributes["degraded"] is True
        assert root.find("execute") is None  # fresh work never ran

    def test_deadline_expired_request_still_closes_its_trace(self, traced):
        door, _, telemetry = traced
        response = door.call("t", CCQuery("g"), deadline=1e-9, timeout=30)
        assert response.status == "deadline_exceeded"
        root = telemetry.trace(response.trace_id)
        assert root is not None
        assert root.status == "deadline_exceeded"
        assert root.find("response").attributes["status"] == (
            "deadline_exceeded"
        )
        assert all(span.ended for span in root.walk())

    def test_rejections_produce_finished_traces(self, traced):
        door, _, telemetry = traced
        ticket = door.submit("ghost", CCQuery("g"))
        response = ticket.response(timeout=30)
        assert response.status == "rejected" and response.trace_id
        root = telemetry.trace(response.trace_id)
        assert root.status == "rejected"
        assert root.attributes["reason"] == "unknown_tenant"

    def test_audit_events_join_spans_by_trace_id(self, traced):
        door, _, telemetry = traced
        ticket = door.submit("t", CCQuery("g"))
        assert ticket.response(timeout=30).ok
        trail = door.audit.for_trace(ticket.trace_id)
        assert [e.event for e in trail] == [
            "submitted", "admitted", "started", "completed",
        ]
        assert all(e.trace_id == ticket.trace_id for e in trail)
        assert telemetry.trace(ticket.trace_id) is not None

    def test_cache_misses_surface_as_span_events(self, traced):
        door, _, telemetry = traced
        response = door.call("t", BFSQuery("g", source=1), timeout=30)
        assert response.ok
        root = telemetry.trace(response.trace_id)
        misses = [
            event
            for span in root.walk()
            for event in span.events
            if event["name"] == "decode_miss"
        ]
        assert misses  # cold caches: the first traversal decodes plans
        assert all("node" in event["detail"] for event in misses)

    def test_view_maintenance_is_traced(self):
        telemetry = Telemetry(sample_rate=1.0)
        service = TraversalService(telemetry=telemetry)
        service.register_graph("g", web_locality_graph(80, seed=2))
        service.register_view("cc", "g", "cc")
        from repro.dynamic import EdgeUpdate

        service.apply_updates("g", [EdgeUpdate.insert(0, 50)])
        roots = telemetry.tracer.traces()
        spans = [s.name for root in roots for s in root.walk()]
        assert "apply_updates" in spans
        assert "view.repair" in spans
        service.close()


# ---------------------------------------------------------------------------
# Differential consistency with the legacy stats surfaces (satellite)
# ---------------------------------------------------------------------------

class TestDifferentialConsistency:
    def _registry_deltas(self, metrics, before):
        after = {}
        for doc in metrics.collect():
            for sample in doc["samples"]:
                key = (doc["name"], tuple(sorted(sample["labels"].items())))
                after[key] = sample["value"]
        return {
            key: value - before.get(key, 0.0)
            for key, value in after.items()
        }

    def _flat_values(self, metrics):
        return {
            (doc["name"], tuple(sorted(sample["labels"].items()))):
                sample["value"]
            for doc in metrics.collect()
            for sample in doc["samples"]
        }

    def test_registry_counters_track_legacy_stats_deltas(self, traced):
        door, service, telemetry = traced
        metrics = telemetry.metrics
        stats_before = door.stats()
        values_before = self._flat_values(metrics)
        for source in range(4):
            assert door.call("t", BFSQuery("g", source=source), timeout=30).ok
        assert door.call("t", CCQuery("g"), timeout=30).ok
        assert door.call("ghost", CCQuery("g"), timeout=30).status == (
            "rejected"
        )
        stats_after = door.stats()
        deltas = self._registry_deltas(metrics, values_before)

        def delta(name, **labels):
            return deltas.get((name, tuple(sorted(labels.items()))), 0.0)

        assert delta("service_queries_served_total") == (
            stats_after.service.queries_served
            - stats_before.service.queries_served
        )
        assert delta("service_cache_events_total", event="misses") == (
            stats_after.service.cache_misses
            - stats_before.service.cache_misses
        )
        assert delta("service_cache_events_total", event="hits") == (
            stats_after.service.cache_hits - stats_before.service.cache_hits
        )
        tenant_after = stats_after.tenants["t"].counters
        tenant_before = stats_before.tenants["t"].counters
        for outcome in ("submitted", "admitted", "completed"):
            assert delta(
                "frontdoor_requests_total", tenant="t", outcome=outcome
            ) == (
                getattr(tenant_after, outcome)
                - getattr(tenant_before, outcome)
            )
        assert delta("frontdoor_unknown_tenant_rejects_total") == (
            stats_after.unknown_tenant_rejects
            - stats_before.unknown_tenant_rejects
        )
        # Latency surfaces agree: the observation counter reads the
        # reservoir's lifetime count, which only answered requests move.
        observations = metrics.get("frontdoor_latency_observations_total")
        assert observations.value(tenant="t") == (
            stats_after.tenants["t"].latency_count
        )
        assert delta("frontdoor_latency_observations_total", tenant="t") == 5
        # Quantile gauges re-read the same reservoir the SLA snapshots use.
        p99 = metrics.get("frontdoor_latency_quantile_seconds")
        assert p99.value(tenant="t", quantile="0.99") == (
            stats_after.tenants["t"].p99
        )

    def test_exchange_and_view_counters_agree(self, traced):
        door, service, telemetry = traced
        assert door.call("t", CCQuery("g"), timeout=30).ok
        stats = service.stats()
        metrics = telemetry.metrics
        assert metrics.get("service_exchange_volume_total").value() == (
            stats.exchange_volume
        )
        assert metrics.get("service_graphs_resident").value() == (
            stats.graphs_resident
        )


# ---------------------------------------------------------------------------
# Overhead discipline at the unit level
# ---------------------------------------------------------------------------

class TestOverheadDiscipline:
    def test_disabled_telemetry_records_nothing(self):
        service = TraversalService()  # defaults to Telemetry.disabled()
        service.register_graph("g", web_locality_graph(60, seed=1))
        door = FrontDoor(service)
        door.register_tenant("t")
        response = door.call("t", CCQuery("g"), timeout=30)
        assert response.ok and response.trace_id  # ids still minted
        assert service.telemetry.tracer.traces() == []
        assert door.telemetry is service.telemetry
        door.close()
        service.close()

    def test_sampled_door_records_exactly_the_sampled_fraction(self):
        telemetry = Telemetry(sample_rate=0.5)
        service = TraversalService(telemetry=telemetry)
        service.register_graph("g", web_locality_graph(60, seed=1))
        door = FrontDoor(service)
        door.register_tenant("t")
        for _ in range(6):
            assert door.call("t", CCQuery("g"), timeout=30).ok
        assert len(telemetry.tracer.traces()) == 3
        door.close()
        service.close()

    def test_pagerank_queries_trace_too(self, traced):
        door, _, telemetry = traced
        response = door.call(
            "t", PageRankQuery("g", source=0), timeout=30
        )
        assert response.ok
        root = telemetry.trace(response.trace_id)
        assert root.find("query") is not None
