"""The maintenance scheduler: background compaction between queries.

:class:`MaintenanceScheduler` packages the lifecycle operations into
bounded **ticks** a host runs whenever its foreground is idle (the front
door runs one per idle dispatcher wait, see
:meth:`~repro.server.FrontDoor.attach_maintenance`).  One tick:

1. **Compact** -- fold the largest pending per-node deltas back into CGR
   form, at most ``compact_budget`` nodes across all entries, largest
   deltas first (they cost the most decode work per read).
2. **Rebase** -- when an overlay's garbage crosses the policy threshold
   (:meth:`~repro.dynamic.CompactionPolicy.should_rebase`), re-encode it
   into a fresh base generation -- at most ``rebase_shards_per_tick``
   bases per tick, so the longest maintenance pause is bounded by one
   shard's encode, not the whole graph's.
3. **Snapshot + GC** (optional) -- every ``snapshot_every`` ticks, publish
   a snapshot per entry into the configured directory and run retention
   GC over it (process-backed sharded entries, whose state cannot be
   captured, are skipped).

Every mutation goes through the owning service's public hooks
(:meth:`~repro.service.TraversalService.compact_graph`,
:meth:`~repro.service.TraversalService.rebase_graph`, ...), each of which
takes the service lock for just its own bounded step -- so reads are
**never blocked** for longer than one step, and a ``should_yield``
callback (queue non-empty, shutdown) aborts the tick between steps.
Epochs swap atomically through the manifest pointer exactly as foreground
snapshots do; a reader holding the previous epoch keeps serving it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.lifecycle.retention import (
    GCReport,
    RetentionPolicy,
    collect_garbage,
)
from repro.obs.metrics import Bindings


@dataclass(frozen=True)
class MaintenanceConfig:
    """Per-tick work bounds and the optional snapshot/GC cadence.

    Attributes:
        compact_budget: max per-node delta folds per tick, across every
            entry (0 disables the compaction step).
        rebase_shards_per_tick: max overlay-to-base rebases per tick; each
            rebase re-encodes one base (one shard of a sharded entry, or
            one unsharded overlay), which bounds the longest pause.
        snapshot_every: run the snapshot + GC step every N ticks (0
            disables it; requires a directory on the scheduler).
        retention: the GC policy for the snapshot step (default
            :class:`~repro.lifecycle.RetentionPolicy`).
    """

    compact_budget: int = 32
    rebase_shards_per_tick: int = 1
    snapshot_every: int = 0
    retention: RetentionPolicy | None = None

    def __post_init__(self) -> None:
        if self.compact_budget < 0:
            raise ValueError(
                f"compact_budget must be >= 0, got {self.compact_budget}"
            )
        if self.rebase_shards_per_tick < 0:
            raise ValueError(
                "rebase_shards_per_tick must be >= 0, got "
                f"{self.rebase_shards_per_tick}"
            )
        if self.snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}"
            )


@dataclass
class MaintenanceReport:
    """What one :meth:`MaintenanceScheduler.tick` actually did.

    Attributes:
        compacted: per-node delta folds performed.
        rebased: one summary dict per rebased base (see
            :meth:`~repro.service.GraphRegistry.rebase`).
        snapshotted: graph names snapshotted this tick.
        gc: retention reports of the snapshot step, keyed by graph name.
        yielded: whether ``should_yield`` cut the tick short.
    """

    compacted: int = 0
    rebased: list[dict] = field(default_factory=list)
    snapshotted: list[str] = field(default_factory=list)
    gc: dict[str, GCReport] = field(default_factory=dict)
    yielded: bool = False


class MaintenanceScheduler:
    """Run bounded lifecycle maintenance against one service.

    Args:
        service: the :class:`~repro.service.TraversalService` to maintain.
        config: per-tick bounds (default :class:`MaintenanceConfig`).
        directory: root directory for the snapshot + GC step; each graph
            snapshots into ``directory/<name>``.  Required when
            ``config.snapshot_every`` > 0.

    The scheduler is driven, never threaded: call :meth:`tick` from
    whatever idle loop the host has (the front door's dispatcher, a test,
    a cron).  All shared state is touched through the service's locked
    hooks, so concurrent foreground traffic is safe by construction.
    """

    def __init__(
        self,
        service,
        config: MaintenanceConfig | None = None,
        directory: str | Path | None = None,
    ) -> None:
        self.service = service
        self.config = config or MaintenanceConfig()
        self.directory = Path(directory) if directory is not None else None
        if self.config.snapshot_every > 0 and self.directory is None:
            raise ValueError(
                "snapshot_every > 0 requires a snapshot directory"
            )
        self.tracer = service.tracer
        #: Lifetime counters (exported as metrics when telemetry is live).
        self.ticks = 0
        self.total_compactions = 0
        self.total_rebases = 0
        self.total_snapshots = 0
        self.total_gc_passes = 0
        self.total_gc_deleted = 0
        #: This scheduler's callback-backed instruments, frozen at close.
        self._metric_bindings = Bindings()
        self._bind_metrics()

    def close(self) -> None:
        """Pin this scheduler's instruments at their final values,
        breaking the scheduler -> registry -> callback -> scheduler cycle
        (:meth:`~repro.service.TraversalService.close` calls it);
        idempotent."""
        self._metric_bindings.freeze()

    def _bind_metrics(self) -> None:
        """Register maintenance instruments on the service's registry.

        Counters read the scheduler's lifetime totals; the garbage gauge
        reads the live overlays, so a scrape between ticks sees exactly
        the garbage the next tick will consider.  Registration is
        idempotent (the metrics registry returns existing instruments).
        """
        metrics = self.service.telemetry.metrics
        bind = self._metric_bindings.bind
        bind(metrics.counter(
            "maintenance_ticks_total",
            "Maintenance ticks executed.",
        ), lambda: self.ticks)
        bind(metrics.counter(
            "maintenance_compactions_total",
            "Per-node delta folds performed by maintenance ticks.",
        ), lambda: self.total_compactions)
        bind(metrics.counter(
            "maintenance_rebases_total",
            "Overlay-to-base rebases performed by maintenance ticks.",
        ), lambda: self.total_rebases)
        bind(metrics.counter(
            "maintenance_snapshots_total",
            "Snapshots published by the maintenance snapshot step.",
        ), lambda: self.total_snapshots)
        bind(metrics.counter(
            "maintenance_gc_deleted_total",
            "Files deleted by maintenance retention passes.",
        ), lambda: self.total_gc_deleted)
        bind(metrics.gauge(
            "maintenance_overlay_garbage_bits",
            "Garbage bits across every resident overlay (rebase pressure).",
        ), lambda: sum(
            overlay.garbage_bits
            for entry in self.service.registry.entries()
            for overlay in entry.all_overlays()
        ))

    def tick(
        self, should_yield: Callable[[], bool] | None = None
    ) -> MaintenanceReport:
        """One bounded maintenance pass; returns what it did.

        ``should_yield`` is polled between bounded steps (between node
        folds, before each rebase, before the snapshot step); returning
        ``True`` ends the tick immediately with ``report.yielded`` set --
        foreground work arrived and maintenance must get out of the way.
        Un-run work is simply picked up by a later tick; every step
        commits atomically through the service lock, so yielding can never
        strand half-applied state.
        """
        self.ticks += 1
        report = MaintenanceReport()
        with self.tracer.span("maintenance.tick", tick=self.ticks) as span:
            try:
                self._compact_step(report, should_yield)
                if not report.yielded:
                    self._rebase_step(report, should_yield)
                if (
                    not report.yielded
                    and self.config.snapshot_every > 0
                    and self.ticks % self.config.snapshot_every == 0
                ):
                    self._snapshot_step(report, should_yield)
            finally:
                # Committed steps count even when a later step raises.
                self.total_compactions += report.compacted
                self.total_rebases += len(report.rebased)
            if span.recording:
                span.annotate(
                    compacted=report.compacted,
                    rebased=len(report.rebased),
                    snapshotted=report.snapshotted,
                    yielded=report.yielded,
                )
        return report

    def _entries(self):
        """Primary entries in registration order (maintenance targets).

        Undirected CC siblings are maintained through their owning entry's
        hooks (the service compacts sibling overlays alongside), so they
        are not separate targets here.
        """
        return list(self.service.registry.primary_entries())

    def _compact_step(
        self,
        report: MaintenanceReport,
        should_yield: Callable[[], bool] | None,
    ) -> None:
        """Fold the largest pending deltas, up to the tick budget."""
        budget = self.config.compact_budget
        if budget <= 0:
            return
        for entry in self._entries():
            if report.compacted >= budget:
                return
            if should_yield is not None and should_yield():
                report.yielded = True
                return
            folded = self.service.compact_graph(
                entry.name,
                config=entry.config,
                budget=budget - report.compacted,
                should_yield=should_yield,
            )
            report.compacted += folded

    def _rebase_step(
        self,
        report: MaintenanceReport,
        should_yield: Callable[[], bool] | None,
    ) -> None:
        """Rebase over-garbage overlays, at most the per-tick base count."""
        remaining = self.config.rebase_shards_per_tick
        if remaining <= 0:
            return
        policy = self.service.registry.compaction_policy
        for entry in self._entries():
            if remaining <= 0:
                return
            if should_yield is not None and should_yield():
                report.yielded = True
                return
            if entry.executor is not None:
                for shard, overlay in enumerate(entry.executor.overlays):
                    if remaining <= 0:
                        return
                    if should_yield is not None and should_yield():
                        report.yielded = True
                        return
                    if policy.should_rebase(
                        overlay.garbage_bits, overlay.total_bits
                    ):
                        report.rebased.extend(
                            self.service.rebase_graph(
                                entry.name, config=entry.config, shard=shard
                            )
                        )
                        remaining -= 1
            else:
                assert entry.overlay is not None
                if policy.should_rebase(
                    entry.overlay.garbage_bits, entry.overlay.total_bits
                ):
                    report.rebased.extend(
                        self.service.rebase_graph(
                            entry.name, config=entry.config
                        )
                    )
                    remaining -= 1

    def _snapshot_step(
        self,
        report: MaintenanceReport,
        should_yield: Callable[[], bool] | None,
    ) -> None:
        """Publish one snapshot per entry and run retention GC over it.

        Sharded entries whose overlays live in worker processes cannot be
        snapshotted (see :attr:`~repro.shard.executor.ShardExecutor.
        has_local_overlays`); they are skipped so every other entry still
        gets its snapshot.
        """
        assert self.directory is not None
        for entry in self._entries():
            if should_yield is not None and should_yield():
                report.yielded = True
                return
            executor = entry.executor
            if executor is not None and not executor.has_local_overlays:
                continue
            target = self.directory / entry.name
            with self.tracer.span(
                "maintenance.snapshot", graph=entry.name
            ):
                self.service.save_graph(entry.name, target, entry.config)
            self.total_snapshots += 1
            report.snapshotted.append(entry.name)
            with self.tracer.span("maintenance.gc", graph=entry.name) as span:
                gc_report = collect_garbage(target, self.config.retention)
                if span.recording:
                    span.annotate(
                        deleted=len(gc_report.deleted_files)
                        + len(gc_report.deleted_manifests),
                        retained_epochs=gc_report.retained_epochs,
                    )
            self.total_gc_passes += 1
            self.total_gc_deleted += len(gc_report.deleted_files) + len(
                gc_report.deleted_manifests
            )
            report.gc[entry.name] = gc_report


__all__ = ["MaintenanceConfig", "MaintenanceReport", "MaintenanceScheduler"]
