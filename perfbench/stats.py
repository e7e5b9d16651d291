"""Summary statistics of one benchmark run.

Latencies are summarised the way the benchmark reports every timing: a
median plus the highest percentile that still has at least
:data:`TAIL_MIN_BEYOND` samples beyond it, with the sample count and the
percentile used.  That percentile is ``100 * (n - 10) / n`` -- the sample
with exactly ten above it -- so it moves smoothly with the sample count
instead of jumping between fixed rungs.  The operation latencies of a
window are summarised per chunk of consecutive operations and the
median over up to :data:`CHUNKS` chunks is reported, so a host stall
that hits one stretch of the window does not decide the run.  Request outcomes are accounted
against the number attempted; a request that was refused, missed its
deadline, failed or was answered wrongly counts as missing the latency
limit.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: Samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10

#: Consecutive chunks an operation-latency sample is summarised in, as
#: long as each chunk keeps ``MIN_CHUNK`` samples.
CHUNKS = 4
MIN_CHUNK = 40

#: Outcome labels.  ``ok`` and ``degraded`` are answers; the rest are not.
ANSWERED = ("ok", "degraded")
OUTCOMES = ("ok", "degraded", "rejected", "deadline", "failed", "wrong")


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample covering ``pct``%."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    """The highest percentile with ``TAIL_MIN_BEYOND`` samples beyond it.

    With too few samples for any tail the median is used; the percentile
    is always reported next to the value, so the fallback is visible.
    """
    if count <= 2 * TAIL_MIN_BEYOND:
        return 50.0
    return 100.0 * (count - TAIL_MIN_BEYOND) / count


@dataclass(frozen=True)
class Timing:
    """A latency sample summarised as median and tail."""

    count: int
    p50: float
    tail: float
    tail_pct: float

    @classmethod
    def of(cls, samples: Sequence[float]) -> "Timing":
        if not samples:
            raise ValueError("no samples to summarise")
        ordered = sorted(samples)
        count = len(ordered)
        median = percentile(ordered, 50.0)
        return cls(
            count=count,
            p50=median,
            # By rank, not through the float percentile: exactly
            # TAIL_MIN_BEYOND samples lie above it.
            tail=(
                ordered[count - TAIL_MIN_BEYOND - 1]
                if count > 2 * TAIL_MIN_BEYOND else median
            ),
            tail_pct=tail_percentile(count),
        )

    @classmethod
    def of_chunks(cls, samples: Sequence[float]) -> "Timing":
        """Median over consecutive chunks of each statistic.

        Up to :data:`CHUNKS` chunks of at least :data:`MIN_CHUNK` samples;
        ``samples`` are in the order the operations were due, and ``count``
        stays the total sample count.
        """
        chunks = min(CHUNKS, len(samples) // MIN_CHUNK)
        if chunks <= 1:
            return cls.of(samples)
        bounds = [len(samples) * i // chunks for i in range(chunks + 1)]
        parts = [
            cls.of(samples[bounds[i]:bounds[i + 1]]) for i in range(chunks)
        ]
        return cls(
            count=len(samples),
            p50=statistics.median(part.p50 for part in parts),
            tail=statistics.median(part.tail for part in parts),
            tail_pct=statistics.median(part.tail_pct for part in parts),
        )


@dataclass(frozen=True)
class Outcome:
    """One attempted operation: when it was due, when it ended, and how.

    ``due`` is the time the operation was scheduled to start (for an open
    loop, its arrival time; for a closed loop, when the client sent it),
    so ``end - due`` includes any wait a stall imposed on it.
    """

    due: float
    end: float
    status: str

    def __post_init__(self) -> None:
        if self.status not in OUTCOMES:
            raise ValueError(f"unknown outcome {self.status!r}")

    @property
    def latency(self) -> float:
        return self.end - self.due


@dataclass(frozen=True)
class OutcomeSummary:
    """Outcome accounting over one measured window."""

    attempted: int
    answered: int
    good: int
    degraded: int
    wrong: int
    latency: Timing | None
    window_s: float

    @property
    def failed_frac(self) -> float:
        """Refused, deadline-exceeded, failed or wrong, over attempted."""
        return (self.attempted - self.answered) / self.attempted

    @property
    def degraded_frac(self) -> float:
        return self.degraded / self.attempted

    @property
    def good_per_s(self) -> float:
        """Correct answers within the latency limit per second of window."""
        return self.good / self.window_s


def summarize(
    outcomes: Sequence[Outcome], limit_s: float, window_s: float
) -> OutcomeSummary:
    """Account ``outcomes`` against ``limit_s``; latency of correct answers.

    Wrong answers are not answers: they count as failed and stay out of
    the latency sample.
    """
    if not outcomes:
        raise ValueError("no operations were attempted")
    if window_s <= 0:
        raise ValueError(f"window must be positive, got {window_s}")
    answered = sorted(
        (o for o in outcomes if o.status in ANSWERED), key=lambda o: o.due
    )
    wrong = sum(1 for o in outcomes if o.status == "wrong")
    good = sum(1 for o in answered if o.latency <= limit_s)
    latencies = [o.latency for o in answered]
    return OutcomeSummary(
        attempted=len(outcomes),
        answered=len(answered),
        good=good,
        degraded=sum(1 for o in outcomes if o.status == "degraded"),
        wrong=wrong,
        latency=Timing.of_chunks(latencies) if latencies else None,
        window_s=window_s,
    )
