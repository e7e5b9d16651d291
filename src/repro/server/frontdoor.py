"""The multi-tenant front door over :class:`~repro.service.TraversalService`.

:class:`FrontDoor` is the request tier that makes the serving stack survive
hostile load.  Every request passes four stages:

1. **Admission** (caller thread, constant-time): resolve the tenant, take a
   token from its bucket, charge its quota, and offer the request to the
   bounded priority queue.  Any refusal completes the request *immediately*
   with a structured, retryability-flagged rejection
   (:mod:`repro.server.errors`) -- overload is answered in microseconds,
   not by unbounded queueing.
2. **Queueing** (:class:`~repro.server.admission.AdmissionController`):
   bounded FIFOs per priority class; same-graph BFS point queries carry a
   coalesce key so the dispatcher drains them together.
3. **Dispatch** (dispatcher thread): expired requests fast-fail as deadline
   misses; requests predicted to miss (remaining budget below the observed
   execution time for their kind) are served **degraded** from a matching
   materialized view when one is fresh enough; the rest execute through
   :meth:`~repro.service.TraversalService.submit` with a cooperative
   cancellation checkpoint, so an expired or cancelled request stops
   consuming decode/exchange budget at the next superstep boundary.
4. **Completion**: every outcome -- answer, refusal, miss, cancellation,
   failure -- takes one terminal path (``FrontDoor._finish``), which writes
   the tenant's ledger, the latency reservoir (answers only), the audit log
   and the trace exactly once each, then completes the :class:`Ticket`.

All time is read from one injectable monotonic clock, so deadline and
rate-limit behaviour is deterministic under test.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.service.queries import BFSQuery, CCQuery, PageRankQuery, Query
from repro.obs.metrics import Bindings
from repro.obs.telemetry import Telemetry
from repro.service.service import ServiceStats, TraversalService
from repro.traversal.msbfs import LANE_WIDTH
from repro.views.base import ViewResult

from repro.server.admission import AdmissionController
from repro.server.audit import AuditLog
from repro.server.deadline import CancelToken, Deadline
from repro.server.errors import (
    Cancelled,
    DeadlineExceeded,
    Failed,
    Overloaded,
    Rejected,
    ServerError,
    ServerResponse,
)
from repro.server.sla import OUTCOMES, TenantSLA, snapshot_sla
from repro.server.tenants import TenantConfig, TenantRegistry, TenantState


#: Ledger field counting each :attr:`Rejected.reason` (an unknown tenant
#: has no ledger; the front door counts those refusals itself).
_REFUSAL_OUTCOMES = {
    "unknown_tenant": None,
    "rate_limited": "rate_limited",
    "quota_exhausted": "quota_rejected",
    "queue_full": "shed",
    "shutdown": "shutdown",
}

#: (response status, audit event, ledger field) of the other errors.
_ERROR_OUTCOMES = {
    DeadlineExceeded: ("deadline_exceeded", "deadline_miss", "deadline_misses"),
    Cancelled: ("cancelled", "cancelled", "cancelled"),
    Failed: ("failed", "failed", "failed"),
}


class _Request:
    """One in-flight request's internal state (never leaves the front door).

    ``state`` is ``None`` only for a submission naming no registered
    tenant, which is refused before it could be admitted.
    """

    __slots__ = (
        "request_id", "tenant", "state", "query", "deadline", "token",
        "priority", "coalesce_key", "ticket", "submitted_at", "admitted_at",
        "started_at", "trace_id", "root_span", "queue_span",
    )

    def __init__(
        self,
        request_id: int,
        tenant: str,
        state: TenantState | None,
        query: Query,
        deadline: Deadline,
        priority: int,
        submitted_at: float,
        root_span,
    ) -> None:
        self.request_id = request_id
        self.tenant = tenant
        self.state = state
        self.query = query
        self.deadline = deadline
        self.token = CancelToken()
        self.priority = priority
        self.coalesce_key = (
            ("bfs", query.graph) if isinstance(query, BFSQuery) else None
        )
        self.root_span = root_span
        self.trace_id = root_span.trace_id
        #: Queue-wait span, opened at admission and closed when the
        #: dispatcher picks the request up (or at any earlier terminal).
        self.queue_span = None
        self.ticket = Ticket(
            tenant, request_id, self.token, trace_id=self.trace_id
        )
        self.submitted_at = submitted_at
        #: When the request entered the queue and when a dispatcher took
        #: it out to run; ``None`` until (unless) that happens.
        self.admitted_at: float | None = None
        self.started_at: float | None = None


class Ticket:
    """The client's handle on one submitted request.

    A ticket completes exactly once, with a :class:`~repro.server.errors.
    ServerResponse`; :meth:`response` returns it without raising, while
    :meth:`result` raises the taxonomy error for non-``ok`` outcomes.
    Rejected submissions return an already-completed ticket, so callers
    handle admission refusals and execution outcomes through one interface.
    """

    def __init__(
        self,
        tenant: str,
        request_id: int,
        token: CancelToken,
        trace_id: str = "",
    ) -> None:
        self.tenant = tenant
        self.request_id = request_id
        #: The request's trace id (see :mod:`repro.obs`): joins this
        #: ticket to its span tree and audit events; minted at submission
        #: for every request, refused ones included.
        self.trace_id = trace_id
        self._token = token
        self._done = threading.Event()
        self._response: ServerResponse | None = None

    def _complete(self, response: ServerResponse) -> None:
        """Deliver the terminal response (first completion wins)."""
        if not self._done.is_set():
            self._response = response
            self._done.set()

    @property
    def done(self) -> bool:
        """Whether a terminal response has been delivered."""
        return self._done.is_set()

    def cancel(self) -> None:
        """Revoke the request cooperatively.

        Queued requests complete ``cancelled`` when the dispatcher reaches
        them; executing requests observe the token at their next
        checkpoint.  A no-op once the ticket is done.
        """
        self._token.cancel()

    def response(self, timeout: float | None = None) -> ServerResponse:
        """Block for the terminal response.

        Raises :class:`TimeoutError` when ``timeout`` (wall-clock seconds)
        elapses first -- distinct from the request's own deadline, which is
        enforced server-side.
        """
        if not self._done.wait(timeout=timeout):
            raise TimeoutError(
                f"request {self.request_id} not complete after {timeout}s"
            )
        assert self._response is not None
        return self._response

    def result(self, timeout: float | None = None) -> Any:
        """Block for the answer; raise the taxonomy error on any other outcome.

        Returns the :class:`~repro.service.QueryResult` of a fresh answer,
        or the :class:`~repro.views.ViewResult` of a degraded one (check
        :attr:`~repro.server.errors.ServerResponse.degraded` via
        :meth:`response` to tell them apart).
        """
        response = self.response(timeout)
        if response.ok:
            return response.value
        assert response.error is not None
        raise response.error


@dataclass(frozen=True)
class ServerStats:
    """Aggregate front-door statistics plus per-tenant SLA snapshots.

    Attributes:
        tenants: per-tenant :class:`~repro.server.sla.TenantSLA`, keyed by
            name.
        submitted / admitted: offered requests, and those that ever entered
            the queue (monotone: evicted and drained requests stay counted),
            all tenants.
        completed / degraded: fresh vs stale-view answers delivered.
        shed: requests rejected (or evicted) because the bounded queue was
            full -- the load-shedding counter.
        rate_limited / quota_rejected: token-bucket and quota refusals.
        unknown_tenant_rejects: submissions naming no registered tenant
            (not part of ``submitted``, which counts registered tenants).
        deadline_misses / cancelled / failed / shutdown: the remaining
            terminal states; ``shutdown`` counts refusals at submission
            after :meth:`FrontDoor.close` and requests it drained from the
            queue.  Every submitted request ends in exactly one of
            ``completed``, ``degraded``, ``shed``, ``rate_limited``,
            ``quota_rejected``, ``deadline_misses``, ``cancelled``,
            ``failed`` and ``shutdown``.
        coalesced_groups / coalesced_requests: dispatch groups that packed
            more than one same-graph BFS request, and the requests they
            carried -- the queue-level MS-BFS coalescing at work.
        queue_depth / queue_capacity: the admission queue now and its bound.
        service: the underlying :class:`~repro.service.ServiceStats` --
            cache, encode, update, shard and view counters ride along so
            one snapshot covers the whole serving stack.
    """

    tenants: dict[str, TenantSLA] = field(default_factory=dict)
    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    degraded: int = 0
    shed: int = 0
    rate_limited: int = 0
    quota_rejected: int = 0
    unknown_tenant_rejects: int = 0
    deadline_misses: int = 0
    cancelled: int = 0
    failed: int = 0
    shutdown: int = 0
    coalesced_groups: int = 0
    coalesced_requests: int = 0
    queue_depth: int = 0
    queue_capacity: int = 0
    service: ServiceStats | None = None


class FrontDoor:
    """Admission-controlled, deadline-aware request tier over one service.

    Args:
        service: the :class:`~repro.service.TraversalService` to front.
            Graphs (and any views used for degradation) are registered on
            the service as usual; the front door only adds the request
            plane.
        queue_capacity: bound of the admission queue -- the knob trading
            queueing latency against shed rate under overload.
        dispatchers: dispatcher threads executing dequeued work (the
            service serializes execution internally; extra dispatchers only
            overlap bookkeeping, so 1 is the deterministic default).
        default_deadline: per-request deadline in seconds applied when
            neither the request nor its tenant specifies one (``None`` =
            no deadline).
        degraded_staleness: staleness budget, in logical update epochs, for
            serving matching materialized-view answers when fresh
            computation is predicted to miss the deadline; ``None``
            disables degradation.
        clock: monotonic clock shared by deadlines, buckets and the audit
            log (injectable for deterministic tests).
        audit_capacity: audit-log ring size.
        audit_sink: optional callback tailing every audit event.
        reservoir_capacity: per-tenant latency-reservoir size.
        telemetry: the :class:`~repro.obs.Telemetry` bundle to record
            into; defaults to the *service's* bundle so one telemetry
            object (passed at service construction) covers the whole
            stack.  Every submission mints a ``trace_id`` at admission,
            threaded through the ticket, the audit log and the response;
            sampled requests additionally record a span tree (admission,
            queue wait, execution supersteps, response).
    """

    #: Dispatcher poll interval while idle (seconds); bounds shutdown lag.
    _IDLE_WAIT = 0.05

    def __init__(
        self,
        service: TraversalService,
        queue_capacity: int = 64,
        dispatchers: int = 1,
        default_deadline: float | None = None,
        degraded_staleness: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        audit_capacity: int = 1024,
        audit_sink: Callable | None = None,
        reservoir_capacity: int = 1024,
        telemetry: Telemetry | None = None,
    ) -> None:
        if dispatchers <= 0:
            raise ValueError(f"dispatchers must be > 0, got {dispatchers}")
        self.service = service
        self.clock = clock
        self.default_deadline = default_deadline
        self.degraded_staleness = degraded_staleness
        if telemetry is None:
            telemetry = getattr(service, "telemetry", None)
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry.disabled()
        )
        self.tracer = self.telemetry.tracer
        #: The door's callback-backed instruments, frozen at close.
        self._metric_bindings = Bindings()
        self.tenants = TenantRegistry(
            clock=clock, reservoir_capacity=reservoir_capacity
        )
        self.admission = AdmissionController(
            capacity=queue_capacity, coalesce_width=LANE_WIDTH
        )
        self.audit = AuditLog(
            capacity=audit_capacity, clock=clock, sink=audit_sink
        )
        self._request_seq = 0
        self._unknown_tenant_rejects = 0
        self._coalesced_groups = 0
        self._coalesced_requests = 0
        #: Exponential moving average of fresh execution seconds per query
        #: kind -- the miss predictor behind degraded serving.
        self._exec_ema: dict[str, float] = {}
        #: Guards the request sequence, the closing flag, admission and
        #: every ledger write (the ledger must conserve requests).
        self._lock = threading.Lock()
        self._closing = False
        #: The attached maintenance scheduler (None until
        #: :meth:`attach_maintenance`); ticked by idle dispatchers.
        self._maintenance = None
        #: Run counter of idle maintenance ticks (exported as a metric).
        self._maintenance_ticks = 0
        #: Maintenance ticks that raised (exported as a metric).
        self._maintenance_errors = 0
        # At most one dispatcher runs maintenance at a time; the others
        # keep polling the queue so foreground latency is unaffected.
        self._maintenance_mutex = threading.Lock()
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"frontdoor-dispatch-{index}",
                daemon=True,
            )
            for index in range(dispatchers)
        ]
        self._bind_metrics()
        for thread in self._dispatchers:
            thread.start()

    # -- telemetry wiring -------------------------------------------------------

    def _bind_metrics(self) -> None:
        """Register the front door's own instruments into the registry.

        This publishes the state the door previously kept private: live
        queue depth, coalescing totals, and the per-kind execution-seconds
        EMA behind the degradation predictor.  Per-tenant instruments bind
        at :meth:`register_tenant`.
        """
        metrics = self.telemetry.metrics
        bind = self._metric_bindings.bind
        bind(metrics.gauge(
            "frontdoor_queue_depth",
            "Requests waiting in the admission queue.",
        ), self.admission.depth)
        metrics.gauge(
            "frontdoor_queue_capacity",
            "Bound of the admission queue.",
        ).set(float(self.admission.capacity))
        bind(metrics.counter(
            "frontdoor_unknown_tenant_rejects_total",
            "Submissions naming no registered tenant.",
        ), lambda: self._unknown_tenant_rejects)
        bind(metrics.counter(
            "frontdoor_coalesced_groups_total",
            "Dispatch groups that packed more than one BFS request.",
        ), lambda: self._coalesced_groups)
        bind(metrics.counter(
            "frontdoor_coalesced_requests_total",
            "Requests carried by coalesced dispatch groups.",
        ), lambda: self._coalesced_requests)
        bind(metrics.counter(
            "frontdoor_maintenance_ticks_total",
            "Maintenance ticks run by idle dispatchers.",
        ), lambda: self._maintenance_ticks)
        bind(metrics.counter(
            "frontdoor_maintenance_errors_total",
            "Maintenance ticks that raised and were contained.",
        ), lambda: self._maintenance_errors)
        self._ema_gauge = metrics.gauge(
            "frontdoor_exec_ema_seconds",
            "EMA of fresh execution seconds per query kind -- the "
            "degradation predictor.",
            labels=("kind",),
        )

    def _bind_tenant_metrics(self, state: TenantState) -> None:
        """Bind one tenant's ledger, bucket and reservoir into the registry.

        All callback-backed: the instruments read the same live
        :class:`~repro.server.sla.TenantCounters`, token bucket and
        :class:`~repro.server.sla.LatencyReservoir` the SLA snapshots are
        built from, so the two surfaces cannot drift.
        """
        metrics = self.telemetry.metrics
        bind = self._metric_bindings.bind
        counters = state.counters
        reservoir = state.reservoir
        outcomes = metrics.counter(
            "frontdoor_requests_total",
            "Per-tenant request outcomes (live SLA-ledger reads).",
            labels=("tenant", "outcome"),
        )
        for outcome in OUTCOMES:
            bind(
                outcomes,
                (lambda name: lambda: getattr(counters, name))(outcome),
                tenant=state.name, outcome=outcome,
            )
        bind(metrics.counter(
            "frontdoor_quota_used_total",
            "Admission units charged against the tenant quota.",
            labels=("tenant",),
        ), lambda: counters.quota_used, tenant=state.name)
        bind(metrics.gauge(
            "frontdoor_tenant_tokens",
            "Tokens currently available in the tenant's bucket.",
            labels=("tenant",),
        ), lambda: state.bucket.tokens, tenant=state.name)
        quantiles = metrics.gauge(
            "frontdoor_latency_quantile_seconds",
            "Answered-request latency quantiles over the reservoir window.",
            labels=("tenant", "quantile"),
        )
        for quantile in (0.5, 0.95, 0.99):
            bind(
                quantiles,
                (lambda q: lambda: reservoir.percentile(q))(quantile),
                tenant=state.name, quantile=f"{quantile:g}",
            )
        bind(metrics.counter(
            "frontdoor_latency_observations_total",
            "Answered-request latency observations ever recorded.",
            labels=("tenant",),
        ), lambda: reservoir.count, tenant=state.name)

    # -- tenant management -----------------------------------------------------

    def register_tenant(
        self,
        name: str,
        rate: float | None = None,
        burst: float | None = None,
        priority: int = 1,
        quota: int | None = None,
        default_deadline: float | None = None,
    ) -> TenantConfig:
        """Register a tenant with its admission policy; returns the config.

        See :class:`~repro.server.tenants.TenantConfig` for the knobs.
        Duplicate names raise :class:`ValueError`.
        """
        config = TenantConfig(
            name=name, rate=rate, burst=burst, priority=priority,
            quota=quota, default_deadline=default_deadline,
        )
        self.tenants.register(config)
        state = self.tenants.get(name)
        assert state is not None
        self._bind_tenant_metrics(state)
        return config

    # -- submission (admission control) ----------------------------------------

    def submit(
        self,
        tenant: str,
        query: Query,
        deadline: float | None = None,
        priority: int | None = None,
    ) -> Ticket:
        """Offer one query; returns a :class:`Ticket`, never blocks on load.

        Admission refusals (unknown tenant, rate limit, quota, full queue,
        shutdown) complete the ticket immediately with the structured
        rejection -- inspect :meth:`Ticket.response` for the reason,
        retryability and ``retry_after`` hint.  Malformed queries (unknown
        type, unregistered graph, out-of-range source) raise immediately in
        the caller's thread: they are programming errors, not load.

        ``deadline`` is a budget in seconds from now (falling back to the
        tenant's ``default_deadline``, then the front door's); ``priority``
        overrides the tenant's queue class for this request.
        """
        now = self.clock()
        with self._lock:
            self._request_seq += 1
            request_id = self._request_seq
        root = self.tracer.start_trace(
            "request", tenant=tenant, request_id=request_id,
            kind=type(query).__name__,
        )
        state = self.tenants.get(tenant)
        if state is None:
            unknown = _Request(
                request_id, tenant, None, query, Deadline(None),
                priority=0, submitted_at=now, root_span=root,
            )
            return self._finish(unknown, Rejected(
                f"tenant {tenant!r} is not registered",
                reason="unknown_tenant",
            ))
        try:
            self._validate_query(query)
        except Exception as error:
            root.annotate(error=type(error).__name__)
            root.finish("invalid")
            raise
        self.audit.record(
            "submitted", tenant, request_id,
            trace_id=root.trace_id, kind=type(query).__name__,
        )

        budget = deadline
        if budget is None:
            budget = state.config.default_deadline
        if budget is None:
            budget = self.default_deadline
        request = _Request(
            request_id=request_id,
            tenant=tenant,
            state=state,
            query=query,
            deadline=Deadline.after(budget, self.clock),
            priority=(
                priority if priority is not None else state.config.priority
            ),
            submitted_at=now,
            root_span=root,
        )

        admission_span = root.child("admission", priority=request.priority)
        rejection: Rejected | None = None
        evicted: _Request | None = None
        with self._lock:
            state.counters.submitted += 1
            if self._closing:
                rejection = Rejected(
                    "front door is shutting down", reason="shutdown"
                )
            elif not state.bucket.try_acquire():
                rejection = Rejected(
                    f"tenant {tenant!r} exceeded its "
                    f"{state.config.rate}/s rate",
                    reason="rate_limited",
                    retry_after=state.bucket.retry_after(),
                )
            elif not state.charge_quota():
                rejection = Rejected(
                    f"tenant {tenant!r} exhausted its quota of "
                    f"{state.config.quota} requests",
                    reason="quota_exhausted",
                )
            else:
                request.admitted_at = now
                admitted, evicted = self.admission.offer(request)
                if admitted:
                    state.counters.admitted += 1
                    admission_span.annotate(
                        outcome="admitted",
                        queue_depth=self.admission.depth(),
                    )
                    admission_span.finish()
                    request.queue_span = root.child("queue")
                    self.audit.record(
                        "admitted", tenant, request_id,
                        trace_id=root.trace_id,
                        queue_depth=self.admission.depth(),
                        priority=request.priority,
                    )
                else:
                    request.admitted_at = None
                    rejection = Overloaded(
                        f"admission queue full "
                        f"({self.admission.capacity} waiting)",
                        queue_depth=self.admission.capacity,
                        queue_capacity=self.admission.capacity,
                        retry_after=self._drain_estimate(),
                    )
        if rejection is not None:
            admission_span.annotate(outcome=rejection.reason)
            admission_span.finish()
            return self._finish(request, rejection)
        if evicted is not None:
            self._finish(evicted, Overloaded(
                "evicted from the admission queue by higher-priority work",
                queue_depth=self.admission.depth(),
                queue_capacity=self.admission.capacity,
                retry_after=self._drain_estimate(),
            ), evicted_by_priority=True)
        return request.ticket

    def call(
        self,
        tenant: str,
        query: Query,
        deadline: float | None = None,
        priority: int | None = None,
        timeout: float | None = None,
    ) -> ServerResponse:
        """Submit and block for the structured response (see :meth:`submit`)."""
        return self.submit(
            tenant, query, deadline=deadline, priority=priority
        ).response(timeout)

    def _validate_query(self, query: Query) -> None:
        """Reject malformed queries in the caller's thread, pre-admission.

        Mirrors the service's own admission checks (unsupported type ->
        :class:`TypeError`, unknown graph -> :class:`KeyError`, bad source
        -> :class:`IndexError`) so client bugs surface at submission, not
        as ``Failed`` responses minutes later.
        """
        if not isinstance(query, Query.__args__):  # type: ignore[attr-defined]
            raise TypeError(
                f"unsupported query type {type(query).__name__}"
            )
        entry = self.service.registry.resolve(query.graph)
        source = getattr(query, "source", None)
        if source is not None and not 0 <= source < entry.num_nodes:
            raise IndexError(
                f"source {source} out of range [0, {entry.num_nodes})"
            )

    def _drain_estimate(self) -> float | None:
        """Seconds until the queue likely has room, from the execution EMA."""
        if not self._exec_ema:
            return None
        mean = sum(self._exec_ema.values()) / len(self._exec_ema)
        return self.admission.depth() * mean

    # -- background maintenance ------------------------------------------------

    def attach_maintenance(self, scheduler) -> None:
        """Run lifecycle maintenance in the gaps between request waves.

        ``scheduler`` is a :class:`~repro.lifecycle.MaintenanceScheduler`
        (typically from :meth:`~repro.service.TraversalService.
        enable_maintenance`).  Whenever a dispatcher's queue poll comes back
        empty, it runs **one** maintenance tick with a ``should_yield``
        that fires as soon as a request is admitted or shutdown starts --
        so compaction, rebase and snapshot/GC happen strictly between
        queries and never block a read for more than one bounded step.
        Pass ``None`` to detach.
        """
        self._maintenance = scheduler

    def _maintenance_should_yield(self) -> bool:
        """Foreground work (or shutdown) wants the dispatcher back."""
        return self._closing or self.admission.depth() > 0

    def _run_maintenance_tick(self) -> None:
        """One idle-time maintenance tick, single-flighted across dispatchers.

        Maintenance errors are contained here and counted in
        ``frontdoor_maintenance_errors_total`` (with telemetry enabled or
        not): a failing snapshot directory must not take the dispatcher
        thread -- and with it the whole front door -- down.
        """
        scheduler = self._maintenance
        if scheduler is None or self._closing:
            return
        if not self._maintenance_mutex.acquire(blocking=False):
            return
        try:
            self._maintenance_ticks += 1
            scheduler.tick(should_yield=self._maintenance_should_yield)
        except Exception:  # noqa: BLE001 - maintenance must not kill dispatch
            self._maintenance_errors += 1
        finally:
            self._maintenance_mutex.release()

    # -- dispatch --------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        """Dispatcher thread: drain the admission queue until closed.

        An empty poll means the door is idle; with a maintenance scheduler
        attached (:meth:`attach_maintenance`) the dispatcher spends that
        gap on one bounded maintenance tick instead of sleeping again.
        """
        while True:
            group = self.admission.take(timeout=self._IDLE_WAIT)
            if not group:
                if self._closing and self.admission.depth() == 0:
                    return
                self._run_maintenance_tick()
                continue
            self._execute_group(group)

    def _execute_group(self, group: list[_Request]) -> None:
        """Run one dispatch group, completing every request exactly once."""
        if len(group) > 1:
            self._coalesced_groups += 1
            self._coalesced_requests += len(group)
        live: list[_Request] = []
        for request in group:
            dead = self._dead(request)
            if dead is not None:
                self._finish(request, dead, where="queued")
            elif not (self._predicts_miss(request)
                      and self._try_degrade(request)):
                live.append(request)
        if not live:
            return

        now = self.clock()
        for request in live:
            request.started_at = now
            queue_span = request.queue_span
            if queue_span is not None and not queue_span.ended:
                queue_span.finish()
            self.audit.record(
                "started", request.tenant, request.request_id,
                trace_id=request.trace_id,
                queue_seconds=now - request.admitted_at,
                group=len(group),
            )

        # One shared execution span, recorded under the group leader's
        # trace; a coalesced group links every lane to it -- the leader's
        # tree carries per-lane children naming each member's trace, and
        # each non-leader's tree carries an ``execute`` marker naming the
        # shared (leader's) trace, so the join works from either end.
        leader = live[0]
        exec_span = leader.root_span.child(
            "execute", group=len(live), coalesced=len(live) > 1,
        )
        link_spans = []
        if len(live) > 1:
            for lane, request in enumerate(live):
                exec_span.child(
                    "lane", lane=lane, trace=request.trace_id,
                    tenant=request.tenant,
                ).finish()
                if request is not leader:
                    link_spans.append(request.root_span.child(
                        "execute", shared=True,
                        shared_trace=leader.trace_id, lane=lane,
                    ))
        checkpoint = self._group_checkpoint(live)
        try:
            with exec_span:
                results = self.service.submit(
                    [request.query for request in live],
                    checkpoint=checkpoint,
                )
        except (DeadlineExceeded, Cancelled) as stopped:
            # The group checkpoint fires only when no member still wants
            # the answer; complete each by its own terminal cause.
            for request in live:
                self._finish(
                    request, self._dead(request) or stopped,
                    where="mid-flight",
                )
        except Exception as cause:  # noqa: BLE001 - taxonomy boundary
            for request in live:
                failure = Failed(f"query execution raised: {cause!r}")
                failure.__cause__ = cause
                self._finish(request, failure)
        else:
            for request, result in zip(live, results):
                dead = self._dead(request)
                if dead is None:
                    self._finish(request, value=result)
                else:
                    self._finish(request, dead, where="completed-late")
        finally:
            for link in link_spans:
                link.finish(exec_span.status)

    @staticmethod
    def _dead(request: _Request) -> ServerError | None:
        """The terminal error of a request nobody can use any more.

        ``Cancelled`` once the client revoked it, else ``DeadlineExceeded``
        once its deadline passed, else ``None`` (still wanted).
        """
        if request.token.cancelled:
            return Cancelled(f"request {request.request_id} was cancelled")
        if request.deadline.expired:
            return DeadlineExceeded(
                f"request {request.request_id} exceeded its deadline"
            )
        return None

    @staticmethod
    def _group_checkpoint(live: list[_Request]) -> Callable[[], None]:
        """A checkpoint that fires once *every* group member is dead.

        A shared MS-BFS sweep serves many requests at once, so one expired
        lane must not cancel work its groupmates still need; only when no
        member can use the answer does the sweep stop consuming budget.
        For singleton groups this degenerates to the request's own
        deadline/cancel probe.
        """

        def checkpoint() -> None:
            for request in live:
                if not request.token.cancelled and not request.deadline.expired:
                    return
            if all(request.token.cancelled for request in live):
                raise Cancelled("every request in the group was cancelled")
            raise DeadlineExceeded(
                "every live request in the group exceeded its deadline"
            )

        return checkpoint

    # -- degradation -----------------------------------------------------------

    def _predicts_miss(self, request: _Request) -> bool:
        """Whether fresh execution is predicted to blow the deadline.

        Uses the per-kind execution-seconds EMA; with no deadline or no
        observations yet, predicts a hit (run fresh).
        """
        remaining = request.deadline.remaining()
        if remaining is None:
            return False
        ema = self._exec_ema.get(self._kind_of(request.query))
        if ema is None:
            return False
        return remaining < ema

    def _try_degrade(self, request: _Request) -> bool:
        """Serve a matching view's (possibly stale) answer, if allowed.

        Returns ``True`` when a degraded response was delivered.  Requires
        ``degraded_staleness`` to be set, a registered view matching the
        query (same graph; same source for BFS/PageRank), and the view's
        staleness within the budget.
        """
        if self.degraded_staleness is None:
            return False
        query = request.query
        if isinstance(query, BFSQuery):
            kind, match = "khop", {"source": query.source}
        elif isinstance(query, CCQuery):
            kind, match = "cc", {}
        elif isinstance(query, PageRankQuery):
            kind, match = "pagerank", {"source": query.source}
        else:
            return False
        # Neither read takes the service lock: find iterates a copy of the
        # registrations, and peek serves the answer the view published at
        # the end of its last build or repair, never its working state.
        views = self.service.views
        name = views.find(query.graph, kind, match)
        if name is None:
            return False
        try:
            view_result = views.peek(name)
        except KeyError:  # dropped since find
            return False
        if view_result.staleness > self.degraded_staleness:
            return False
        request.root_span.child(
            "degrade", view=name, staleness=view_result.staleness,
        ).finish()
        self._finish(request, value=view_result)
        return True

    # -- completion ------------------------------------------------------------

    @staticmethod
    def _kind_of(query: Query) -> str:
        """The EMA bucket for a query (its type name)."""
        return type(query).__name__

    def _observe_exec(self, request: _Request, seconds: float) -> None:
        """Fold one fresh execution time into the per-kind EMA."""
        kind = self._kind_of(request.query)
        previous = self._exec_ema.get(kind)
        self._exec_ema[kind] = (
            seconds if previous is None else 0.8 * previous + 0.2 * seconds
        )
        self._ema_gauge.set(self._exec_ema[kind], kind=kind)

    def _finish(
        self,
        request: _Request,
        error: ServerError | None = None,
        value: Any = None,
        **detail: Any,
    ) -> Ticket:
        """Complete ``request``: the one terminal path of every outcome.

        Without ``error`` the request was answered -- ``degraded`` when
        ``value`` is a :class:`~repro.views.ViewResult`, fresh otherwise.
        With one, the error's type (and a :class:`Rejected`'s ``reason``)
        picks the status, the ledger field and the audit event, and the
        response takes ``retryable`` / ``retry_after`` from it.  Writes the
        tenant ledger (or, for an unknown tenant, the door's own count),
        the latency reservoir (answers only), the audit log and the trace
        once each, then completes and returns the ticket.  ``detail``
        (e.g. ``where=``) rides along in the audit event and the trace.
        """
        now = self.clock()
        degraded = isinstance(value, ViewResult)
        if error is None:
            status = "ok"
            event = outcome = "degraded" if degraded else "completed"
        elif isinstance(error, Rejected):
            status = event = "rejected"
            outcome = _REFUSAL_OUTCOMES[error.reason]
            detail = {"reason": error.reason, **detail}
        else:
            status, event, outcome = _ERROR_OUTCOMES[type(error)]
            if isinstance(error, Failed):
                detail["error"] = repr(error.__cause__)
        if degraded:
            detail.update(view=value.name, staleness=value.staleness)
        queue_seconds = 0.0
        if request.admitted_at is not None:
            left = now if request.started_at is None else request.started_at
            queue_seconds = max(0.0, left - request.admitted_at)
        total_seconds = max(0.0, now - request.submitted_at)

        state = request.state
        with self._lock:
            if state is None:
                self._unknown_tenant_rejects += 1
            else:
                counters = state.counters
                setattr(counters, outcome, getattr(counters, outcome) + 1)
                if status == "ok":
                    state.reservoir.record(total_seconds)
        if event == "completed":
            self._observe_exec(request, max(0.0, now - request.started_at))
        self.audit.record(
            event, request.tenant, request.request_id,
            trace_id=request.trace_id, seconds=total_seconds, **detail,
        )
        queue_span = request.queue_span
        if queue_span is not None and not queue_span.ended:
            queue_span.finish()
        root = request.root_span
        root.child(
            "response", status=status, degraded=degraded,
            queue_seconds=queue_seconds, total_seconds=total_seconds,
            **detail,
        ).finish()
        root.annotate(status=status, **detail)
        root.finish(status)
        request.ticket._complete(ServerResponse(
            status=status,
            tenant=request.tenant,
            value=value,
            error=error,
            retryable=error is not None and error.retryable,
            retry_after=None if error is None else error.retry_after,
            degraded=degraded,
            staleness=value.staleness if degraded else 0,
            queue_seconds=queue_seconds,
            total_seconds=total_seconds,
            request_id=request.request_id,
            trace_id=request.trace_id,
        ))
        return request.ticket

    # -- introspection ---------------------------------------------------------

    def stats(self) -> ServerStats:
        """One snapshot of the whole serving stack's health.

        Per-tenant SLA snapshots (p50/p95/p99 latency, outcome ledgers),
        the front door's aggregate admission/outcome counters, the live
        queue depth, and the underlying service's
        :class:`~repro.service.ServiceStats`.
        """
        tenants = {
            state.name: snapshot_sla(
                state.name, state.counters, state.reservoir
            )
            for state in self.tenants.states()
        }
        totals = {
            outcome: sum(
                getattr(sla.counters, outcome) for sla in tenants.values()
            )
            for outcome in OUTCOMES
        }
        return ServerStats(
            tenants=tenants,
            unknown_tenant_rejects=self._unknown_tenant_rejects,
            coalesced_groups=self._coalesced_groups,
            coalesced_requests=self._coalesced_requests,
            queue_depth=self.admission.depth(),
            queue_capacity=self.admission.capacity,
            service=self.service.stats(),
            **totals,
        )

    # -- lifecycle -------------------------------------------------------------

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop admitting, drain the queue as shutdown rejections, join.

        Queued-but-undispatched requests complete ``rejected`` with reason
        ``"shutdown"``; dispatcher threads are joined up to ``timeout``
        seconds each, then the door's instruments are pinned at their final
        values, which frees a closed door without waiting for a full
        garbage collection.  The underlying service is left open (the front
        door does not own it).  Idempotent.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
        self.admission.close()
        for request in self.admission.drain():
            self._finish(request, Rejected(
                "front door shut down before dispatch", reason="shutdown",
            ))
        for thread in self._dispatchers:
            thread.join(timeout=timeout)
        self._metric_bindings.freeze()

    def __enter__(self) -> "FrontDoor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["FrontDoor", "ServerStats", "Ticket"]
