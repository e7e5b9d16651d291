"""Multi-tenant front door: admission control, deadlines, degradation.

``repro.server`` is the request tier over
:class:`~repro.service.TraversalService`.  It adds everything a shared
serving deployment needs that the query engine itself should not know
about: per-tenant registration with token-bucket rate limits and quotas
(:mod:`~repro.server.tenants`), a bounded priority admission queue that
sheds early and coalesces same-graph BFS point queries into MS-BFS lane
batches (:mod:`~repro.server.admission`), per-request deadlines with
cooperative cancellation propagated into the superstep loops
(:mod:`~repro.server.deadline`), a retryability-flagged error taxonomy
(:mod:`~repro.server.errors`), graceful degradation from materialized
views, per-tenant SLA metrics (:mod:`~repro.server.sla`) and a structured
audit log (:mod:`~repro.server.audit`).

The one entry point is :class:`~repro.server.FrontDoor`::

    service = TraversalService()
    service.register_graph("social", graph)
    door = FrontDoor(service, queue_capacity=64)
    door.register_tenant("analytics", rate=50.0, priority=2)
    ticket = door.submit("analytics", BFSQuery("social", source=0),
                         deadline=0.5)
    response = ticket.response()

Every outcome -- answered fresh, answered stale, rate-limited, shed,
deadline-missed, cancelled, failed, refused at shutdown -- arrives as one structured
:class:`~repro.server.ServerResponse` with a retryability flag, so
clients implement exactly one backoff loop.
"""

from repro.server.admission import AdmissionController
from repro.server.audit import AUDIT_EVENTS, AuditEvent, AuditLog
from repro.server.deadline import CancelToken, Deadline, make_checkpoint
from repro.server.errors import (
    Cancelled,
    DeadlineExceeded,
    Failed,
    Overloaded,
    Rejected,
    ServerError,
    ServerResponse,
)
from repro.server.frontdoor import FrontDoor, ServerStats, Ticket
from repro.server.sla import (
    LatencyReservoir,
    TenantCounters,
    TenantSLA,
    snapshot_sla,
)
from repro.server.tenants import (
    TenantConfig,
    TenantRegistry,
    TenantState,
    TokenBucket,
)

__all__ = [
    "AUDIT_EVENTS",
    "AdmissionController",
    "AuditEvent",
    "AuditLog",
    "CancelToken",
    "Cancelled",
    "Deadline",
    "DeadlineExceeded",
    "Failed",
    "FrontDoor",
    "LatencyReservoir",
    "Overloaded",
    "Rejected",
    "ServerError",
    "ServerResponse",
    "ServerStats",
    "TenantConfig",
    "TenantCounters",
    "TenantRegistry",
    "TenantSLA",
    "TenantState",
    "Ticket",
    "TokenBucket",
    "make_checkpoint",
    "snapshot_sla",
]
