"""Error taxonomy and structured responses of the serving front door.

Every request submitted through :class:`~repro.server.FrontDoor` terminates
in exactly one of five states, and the taxonomy makes the retry contract
explicit so clients (and their backoff loops) never have to parse message
strings:

* **ok** -- the query ran (or was served from a stale view within its
  staleness budget, flagged ``degraded``).
* **rejected** (:class:`Rejected` / :class:`Overloaded`) -- admission
  refused the request *before* any execution work: unknown tenant,
  exhausted quota, a drained token bucket, full admission queues (the
  load-shedding case, which carries queue depth and a ``retry_after``
  hint), or a front door shutting down (at submission, or draining its
  queue).  Shedding early is the front door's survival strategy: a bounded
  queue plus cheap rejection keeps latency of admitted work flat while
  excess offered load bounces.
* **deadline_exceeded** (:class:`DeadlineExceeded`) -- the request's
  deadline passed while it waited or executed; cooperative cancellation
  checkpoints stop it from consuming further decode/exchange budget.
  Retryable, ideally with a longer deadline.
* **cancelled** (:class:`Cancelled`) -- the client revoked the request via
  :meth:`~repro.server.Ticket.cancel`.  Not retryable (the client asked).
* **failed** (:class:`Failed`) -- the query raised; carries the cause.  Not
  retryable by default: the same query will fail the same way.

:class:`ServerResponse` is the non-raising view of the same outcome --
:meth:`~repro.server.Ticket.response` returns it, while
:meth:`~repro.server.Ticket.result` raises the taxonomy errors instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Terminal request states, as they appear in :attr:`ServerResponse.status`.
STATUSES = ("ok", "rejected", "deadline_exceeded", "cancelled", "failed")

#: Admission-refusal reasons (:attr:`Rejected.reason`).
REJECT_REASONS = (
    "unknown_tenant",
    "rate_limited",
    "quota_exhausted",
    "queue_full",
    "shutdown",
)


class ServerError(Exception):
    """Base of the front door's error taxonomy.

    Attributes:
        retryable: whether retrying the same request (after backing off)
            can plausibly succeed.
        retry_after: a backoff hint in seconds when the server can compute
            one (token-bucket refill time, queue-drain estimates), else
            ``None``.
    """

    #: Default retryability of the class; instances may override.
    retryable: bool = False

    def __init__(
        self,
        message: str,
        retryable: bool | None = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        if retryable is not None:
            self.retryable = retryable
        self.retry_after = retry_after


class Rejected(ServerError):
    """Admission refused the request before any execution work ran.

    Attributes:
        reason: one of :data:`REJECT_REASONS`; determines the default
            retryability (``rate_limited`` and ``queue_full`` are transient
            and retryable, the rest are not).
    """

    def __init__(
        self,
        message: str,
        reason: str,
        retryable: bool | None = None,
        retry_after: float | None = None,
    ) -> None:
        if reason not in REJECT_REASONS:
            raise ValueError(
                f"unknown reject reason {reason!r}; expected one of "
                f"{REJECT_REASONS}"
            )
        if retryable is None:
            retryable = reason in ("rate_limited", "queue_full")
        super().__init__(message, retryable=retryable, retry_after=retry_after)
        self.reason = reason


class Overloaded(Rejected):
    """The structured load-shedding rejection: admission queues are full.

    Attributes:
        queue_depth: requests waiting at rejection time.
        queue_capacity: the bounded queue's total capacity.
    """

    def __init__(
        self,
        message: str,
        queue_depth: int,
        queue_capacity: int,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(
            message, reason="queue_full", retryable=True,
            retry_after=retry_after,
        )
        self.queue_depth = queue_depth
        self.queue_capacity = queue_capacity


class DeadlineExceeded(ServerError):
    """The request's deadline passed before an answer was produced."""

    retryable = True


class Cancelled(ServerError):
    """The client revoked the request before it completed."""

    retryable = False


class Failed(ServerError):
    """The query raised while executing; ``__cause__`` holds the error."""

    retryable = False


@dataclass(frozen=True)
class ServerResponse:
    """The structured outcome of one front-door request.

    Attributes:
        status: terminal state, one of :data:`STATUSES`.
        tenant: the submitting tenant's name.
        value: the query's answer on ``"ok"`` -- a
            :class:`~repro.service.QueryResult`, or a
            :class:`~repro.views.ViewResult` when ``degraded`` -- else
            ``None``.
        error: the taxonomy error for non-``"ok"`` outcomes, else ``None``.
        retryable: whether a backoff-and-retry can plausibly succeed
            (``False`` for ``"ok"``).
        retry_after: backoff hint in seconds, when the server computed one.
        degraded: the answer came from a materialized view within its
            staleness budget instead of fresh computation -- served because
            fresh work would have missed the deadline.
        staleness: logical update epochs the degraded answer lags the live
            graph (0 for fresh answers).
        queue_seconds: time the request spent in the admission queue (0.0
            when admission refused it).
        total_seconds: submit-to-terminal latency.  The tenant's SLA
            reservoir records it once per answered (``"ok"``, fresh or
            degraded) request and for no other outcome.
        request_id: the front door's sequence number for audit correlation.
        trace_id: the request's trace id (see :mod:`repro.obs`): the key
            that retrieves the request's span tree from the tracer and its
            lifecycle events from the audit log.  The front door mints one
            at submission for every request, refused ones included.
    """

    status: str
    tenant: str
    value: Any = None
    error: ServerError | None = field(default=None, repr=False)
    retryable: bool = False
    retry_after: float | None = None
    degraded: bool = False
    staleness: int = 0
    queue_seconds: float = 0.0
    total_seconds: float = 0.0
    request_id: int = 0
    trace_id: str = ""

    @property
    def ok(self) -> bool:
        """Whether the request produced an answer (fresh or degraded)."""
        return self.status == "ok"


__all__ = [
    "STATUSES",
    "REJECT_REASONS",
    "ServerError",
    "Rejected",
    "Overloaded",
    "DeadlineExceeded",
    "Cancelled",
    "Failed",
    "ServerResponse",
]
