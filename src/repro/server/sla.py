"""Per-tenant SLA accounting: latency reservoirs and outcome counters.

The front door records one latency observation per *completed* request
(fresh or degraded answers -- the requests a client actually waited on) into
a bounded :class:`LatencyReservoir`, and counts every terminal outcome in a
:class:`TenantCounters` ledger.  :class:`TenantSLA` is the frozen snapshot
:meth:`~repro.server.FrontDoor.stats` publishes per tenant: p50/p95/p99
latency, deadline-miss and shed counters, quota burn-down.  It is the one
latency snapshot: the front door's ``frontdoor_latency_quantile_seconds``
gauges read the same reservoir at scrape time.

The reservoir keeps the most recent ``capacity`` observations in a ring, so
percentiles track the *current* serving regime (what an SLA dashboard
wants) rather than averaging a calm warm-up into an overload spike; the
lifetime observation count is kept alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


class LatencyReservoir:
    """A ring of the most recent latency observations, in seconds.

    Args:
        capacity: observations retained; older ones are overwritten.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(f"reservoir capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self._ring: list[float] = []
        self._cursor = 0
        #: Lifetime observations, including overwritten ones.
        self.count = 0

    def record(self, seconds: float) -> None:
        """Add one observation, overwriting the oldest when full."""
        if len(self._ring) < self.capacity:
            self._ring.append(seconds)
        else:
            self._ring[self._cursor] = seconds
            self._cursor = (self._cursor + 1) % self.capacity
        self.count += 1

    def percentile(self, fraction: float) -> float:
        """The ``fraction`` quantile (0..1) of retained observations.

        Nearest-rank on the sorted ring, with the edge cases pinned down
        so no caller ever sees an ``IndexError`` or silent garbage:

        * **empty** -- 0.0 by definition (no traffic means no latency to
          report; every counter-style surface here reads 0 at rest);
        * **single sample** -- that sample, for every fraction (there is
          only one observed latency, so it *is* every quantile);
        * fractions are validated to ``[0, 1]`` and the computed rank is
          clamped to the retained window, so ``percentile(1.0)`` is the
          maximum rather than one-past-the-end.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if not self._ring:
            return 0.0
        if len(self._ring) == 1:
            return self._ring[0]
        ordered = sorted(self._ring)
        rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
        return ordered[rank]

    def values(self) -> list[float]:
        """The retained observations, unordered (ring order)."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


@dataclass
class TenantCounters:
    """Mutable per-tenant outcome ledger (cumulative, monotone).

    ``submitted`` and ``admitted`` are written at admission; every other
    request count is a terminal outcome, and each submitted request ends
    in exactly one of them, so ``submitted`` equals their sum once the
    door is closed and drained.

    Attributes:
        submitted: requests offered through :meth:`FrontDoor.submit`.
        admitted: requests that ever entered the admission queue.  Never
            decremented: a request evicted or drained from the queue stays
            counted here and is also counted under its terminal outcome.
        completed: requests answered fresh.
        degraded: requests answered from a stale view within budget.
        shed: requests rejected because the bounded queue was full, or
            evicted from it by higher-priority work.
        rate_limited: requests rejected by the tenant's token bucket.
        quota_rejected: requests rejected for an exhausted quota.
        deadline_misses: requests that terminated ``deadline_exceeded``.
        cancelled: requests revoked by the client.
        failed: requests whose query raised.
        shutdown: requests refused because the front door was closing --
            at submission, or drained from the queue by ``close()``.
        quota_used: admission units charged against the tenant quota.
    """

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    degraded: int = 0
    shed: int = 0
    rate_limited: int = 0
    quota_rejected: int = 0
    deadline_misses: int = 0
    cancelled: int = 0
    failed: int = 0
    shutdown: int = 0
    quota_used: int = 0


#: The request-count fields of :class:`TenantCounters` (all but
#: ``quota_used``), in declaration order: the ``outcome`` labels of
#: ``frontdoor_requests_total`` and the totals of ``ServerStats``.
OUTCOMES = tuple(
    counter.name for counter in fields(TenantCounters)
    if counter.name != "quota_used"
)


@dataclass(frozen=True)
class TenantSLA:
    """Frozen per-tenant SLA snapshot published by ``FrontDoor.stats``.

    Attributes:
        tenant: the tenant's registered name.
        counters: a copy of the outcome ledger at snapshot time.
        latency_count: completed-request latency observations ever recorded.
        p50 / p95 / p99: latency percentiles in seconds over the
            reservoir's retained window (0.0 with no completed traffic).
    """

    tenant: str
    counters: TenantCounters = field(repr=False, default_factory=TenantCounters)
    latency_count: int = 0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0

    @property
    def goodput_fraction(self) -> float:
        """Answered (fresh + degraded) share of submitted requests (1.0
        with no traffic)."""
        if self.counters.submitted == 0:
            return 1.0
        answered = self.counters.completed + self.counters.degraded
        return answered / self.counters.submitted


def snapshot_sla(
    tenant: str, counters: TenantCounters, reservoir: LatencyReservoir
) -> TenantSLA:
    """Freeze one tenant's ledger and reservoir into a :class:`TenantSLA`."""
    return TenantSLA(
        tenant=tenant,
        counters=TenantCounters(**vars(counters)),
        latency_count=reservoir.count,
        p50=reservoir.percentile(0.50),
        p95=reservoir.percentile(0.95),
        p99=reservoir.percentile(0.99),
    )


__all__ = [
    "LatencyReservoir",
    "OUTCOMES",
    "TenantCounters",
    "TenantSLA",
    "snapshot_sla",
]
