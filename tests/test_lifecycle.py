"""Functional tests of the snapshot lifecycle layer (:mod:`repro.lifecycle`).

Covers the lifecycle operations under *normal* operation -- tagging,
retention GC, overlay-to-base rebase, CDC export and follower replicas, the
maintenance scheduler and its front-door wiring, and the manifest-v2
compatibility surface.  Crash injection lives in
``tests/test_lifecycle_crash.py``; randomized interleavings in
``tests/test_lifecycle_fuzz.py``.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np
import pytest

from repro import BFSQuery, CCQuery, TraversalService
from repro.dynamic.compaction import CompactionPolicy
from repro.graph.graph import Graph
from repro.lifecycle import (
    CDCWriter,
    FollowerReplica,
    MaintenanceConfig,
    MaintenanceScheduler,
    RetentionPolicy,
    collect_garbage,
    create_tag,
    delete_tag,
    list_epoch_manifests,
    list_tags,
    read_cdc_records,
    read_tag,
    resolve_tag,
)
from repro.server import FrontDoor
from repro.store import StoreError, StoreFormatError, read_manifest
from repro.store.format import MAGIC_CDC, write_header, write_json_block
from repro.store.snapshot import (
    MANIFEST_VERSION,
    base_file_name,
    delta_file_name,
    resolve_manifest_path,
)

from lifecycle_harness import FaultInjectingDirectory, SimulatedCrash


def _graph(seed: int = 7, nodes: int = 60, edges: int = 240) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(
        nodes,
        [(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(edges)],
    )


def _service(
    graph: Graph | None = None,
    name: str = "g",
    policy: CompactionPolicy | None = None,
    **register_kwargs,
) -> TraversalService:
    service = TraversalService()
    if policy is not None:
        service.registry.compaction_policy = policy
    if graph is not None:
        service.register_graph(name, graph, **register_kwargs)
    return service


def _levels(service, name: str, source: int = 0):
    [result] = service.submit([BFSQuery(graph=name, source=source)])
    return result.value.levels


def _batch(rng: random.Random, nodes: int, size: int = 20) -> list[tuple]:
    kinds = ("insert", "insert", "insert", "delete")
    return [
        (rng.choice(kinds), rng.randrange(nodes), rng.randrange(nodes))
        for _ in range(size)
    ]


class TestTagging:
    def test_create_read_resolve_roundtrip(self, tmp_path):
        service = _service(_graph())
        service.save_graph("g", tmp_path)
        pointer = read_manifest(tmp_path / "manifest.json")
        tag_path = create_tag(tmp_path, "release-1")
        assert tag_path.exists()
        document = read_tag(tag_path)
        assert document["tag"] == "release-1"
        assert document["epoch"] == pointer["epoch"]
        resolved = resolve_tag(tmp_path, "release-1")
        assert read_manifest(resolved)["epoch"] == pointer["epoch"]
        service.close()

    def test_tag_pins_older_epoch_for_time_travel(self, tmp_path):
        rng = random.Random(1)
        service = _service(_graph())
        service.save_graph("g", tmp_path)
        first_epoch = read_manifest(tmp_path / "manifest.json")["epoch"]
        create_tag(tmp_path, "v1", epoch=first_epoch)
        before = np.array(_levels(service, "g"))
        service.apply_updates("g", _batch(rng, 60))
        service.save_graph("g", tmp_path)

        replica = TraversalService()
        replica.load_graph(resolve_tag(tmp_path, "v1"))
        assert np.array_equal(np.array(_levels(replica, "g")), before)
        service.close()
        replica.close()

    def test_tag_is_idempotent_but_refuses_retarget(self, tmp_path):
        rng = random.Random(2)
        service = _service(_graph())
        service.save_graph("g", tmp_path)
        epoch = read_manifest(tmp_path / "manifest.json")["epoch"]
        create_tag(tmp_path, "pin", epoch=epoch)
        create_tag(tmp_path, "pin", epoch=epoch)  # same target: no-op
        service.apply_updates("g", _batch(rng, 60))
        service.save_graph("g", tmp_path)
        with pytest.raises(StoreError, match="already pins epoch"):
            create_tag(tmp_path, "pin")
        service.close()

    def test_tag_requires_existing_epoch_manifest(self, tmp_path):
        service = _service(_graph())
        service.save_graph("g", tmp_path)
        with pytest.raises(StoreError, match="cannot tag epoch 999"):
            create_tag(tmp_path, "ghost", epoch=999)
        service.close()

    def test_tag_name_validation(self, tmp_path):
        service = _service(_graph())
        service.save_graph("g", tmp_path)
        for bad in ("", ".hidden", "has space", "slash/y", "-lead"):
            with pytest.raises(ValueError):
                create_tag(tmp_path, bad)
        service.close()

    def test_list_and_delete(self, tmp_path):
        service = _service(_graph())
        service.save_graph("g", tmp_path)
        epoch = read_manifest(tmp_path / "manifest.json")["epoch"]
        create_tag(tmp_path, "a")
        create_tag(tmp_path, "b")
        assert list_tags(tmp_path) == {"a": epoch, "b": epoch}
        assert delete_tag(tmp_path, "a") is True
        assert delete_tag(tmp_path, "a") is False
        assert list_tags(tmp_path) == {"b": epoch}
        with pytest.raises(StoreError, match="no tag"):
            resolve_tag(tmp_path, "a")
        service.close()

    def test_dangling_tag_is_format_error(self, tmp_path):
        service = _service(_graph())
        service.save_graph("g", tmp_path)
        epoch = read_manifest(tmp_path / "manifest.json")["epoch"]
        create_tag(tmp_path, "dangle")
        (tmp_path / f"manifest-epoch-{epoch}.json").unlink()
        with pytest.raises(StoreFormatError, match="dangl"):
            resolve_tag(tmp_path, "dangle")
        service.close()


class TestRetention:
    def _snapshots(self, tmp_path, count: int, seed: int = 3):
        rng = random.Random(seed)
        service = _service(_graph(seed))
        service.save_graph("g", tmp_path)
        for _ in range(count - 1):
            service.apply_updates("g", _batch(rng, 60))
            service.save_graph("g", tmp_path)
        return service

    def test_expires_old_epochs_keeps_pointer(self, tmp_path):
        service = self._snapshots(tmp_path, 5)
        epochs_before = list(list_epoch_manifests(tmp_path))
        assert len(epochs_before) == 5
        report = collect_garbage(tmp_path, RetentionPolicy(keep_epochs=2))
        assert report.retained_epochs == epochs_before[-2:]
        assert len(report.deleted_manifests) == 3
        assert (tmp_path / "manifest.json").exists()
        # the pointer epoch still restores
        replica = TraversalService()
        replica.load_graph(tmp_path)
        replica.close()
        service.close()

    def test_deletes_unreachable_deltas_keeps_shared_base(self, tmp_path):
        service = self._snapshots(tmp_path, 4)
        collect_garbage(tmp_path, RetentionPolicy(keep_epochs=1))
        names = {p.name for p in tmp_path.iterdir()}
        # one shared base across all epochs: must survive every pass
        assert "base.cgr" in names
        assert sum(1 for n in names if n.endswith(".delta")) == 1
        service.close()

    def test_tagged_epoch_is_pinned(self, tmp_path):
        service = self._snapshots(tmp_path, 4)
        oldest = list(list_epoch_manifests(tmp_path))[0]
        create_tag(tmp_path, "keep", epoch=oldest)
        report = collect_garbage(tmp_path, RetentionPolicy(keep_epochs=1))
        assert oldest in report.retained_epochs
        assert (tmp_path / f"manifest-epoch-{oldest}.json").exists()
        replica = TraversalService()
        replica.load_graph(resolve_tag(tmp_path, "keep"))
        replica.close()
        service.close()

    def test_missing_tagged_epoch_aborts_before_deleting(self, tmp_path):
        service = self._snapshots(tmp_path, 4)
        oldest = list(list_epoch_manifests(tmp_path))[0]
        create_tag(tmp_path, "stale", epoch=oldest)
        (tmp_path / f"manifest-epoch-{oldest}.json").unlink()
        before = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
        with pytest.raises(StoreError, match="refusing to GC"):
            collect_garbage(tmp_path, RetentionPolicy(keep_epochs=1))
        after = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
        assert after == before, "an aborted GC must delete nothing"
        service.close()

    def test_idempotent_and_removes_tmp_strays(self, tmp_path):
        service = self._snapshots(tmp_path, 3)
        (tmp_path / "stray.cgr.tmp").write_bytes(b"torn")
        first = collect_garbage(tmp_path, RetentionPolicy(keep_epochs=1))
        assert "stray.cgr.tmp" in first.removed_tmp
        second = collect_garbage(tmp_path, RetentionPolicy(keep_epochs=1))
        assert not second.deleted_manifests
        assert not second.deleted_files
        assert not second.removed_tmp
        service.close()

    def test_never_removes_reachable_files(self, tmp_path):
        service = self._snapshots(tmp_path, 5)
        harness = FaultInjectingDirectory(tmp_path)
        policy = RetentionPolicy(keep_epochs=2)
        pointer = read_manifest(tmp_path / "manifest.json")
        epochs = list_epoch_manifests(tmp_path)
        retained = sorted(epochs)[-2:] + [pointer["epoch"]]
        live = {"manifest.json"}
        for epoch in set(retained):
            manifest = read_manifest(epochs[epoch])
            live.add(epochs[epoch].name)
            live.update(manifest["base_files"])
            live.update(manifest["delta_files"])
        with harness.forbid_removal_of(live):
            collect_garbage(tmp_path, policy)
        service.close()


class TestRebase:
    def test_unsharded_rebase_preserves_answers(self):
        rng = random.Random(5)
        service = _service(_graph(5))
        for _ in range(6):
            service.apply_updates("g", _batch(rng, 60))
        before = np.array(_levels(service, "g"))
        entry = service.registry.resolve("g")
        stats_before = service.stats()
        [report] = service.rebase_graph("g")
        assert report["generation"] == 1
        assert entry.overlay.garbage_bits == 0
        assert entry.overlay.delta_size(0) == 0
        assert np.array_equal(np.array(_levels(service, "g")), before)
        stats_after = service.stats()
        assert stats_after.update_batches == stats_before.update_batches
        assert stats_after.encode_calls == stats_before.encode_calls + 1
        assert stats_after.compactions >= stats_before.compactions
        service.close()

    def test_rebase_epochs_never_collide_in_snapshots(self, tmp_path):
        rng = random.Random(6)
        service = _service(_graph(6))
        service.apply_updates("g", _batch(rng, 60))
        service.save_graph("g", tmp_path)
        first_delta = set(read_manifest(tmp_path / "manifest.json")["delta_files"])
        service.rebase_graph("g")
        service.apply_updates("g", _batch(rng, 60))
        service.save_graph("g", tmp_path)
        manifest = read_manifest(tmp_path / "manifest.json")
        assert not first_delta & set(manifest["delta_files"]), (
            "post-rebase snapshots must not overwrite published deltas"
        )
        assert manifest["base_files"] == [base_file_name(1)]
        # both epochs restore, bit-identically to their writers
        for epoch, path in list_epoch_manifests(tmp_path).items():
            replica = TraversalService()
            replica.load_graph(path)
            replica.close()
        service.close()

    def test_sharded_per_shard_rebase(self, tmp_path):
        rng = random.Random(8)
        service = _service(_graph(8), shards=3)
        for _ in range(4):
            service.apply_updates("g", _batch(rng, 60))
        before = np.array(_levels(service, "g"))
        [report] = service.rebase_graph("g", shard=1)
        assert report["shard"] == 1 and report["generation"] == 1
        executor = service.registry.resolve("g").executor
        assert executor.base_generations == [0, 1, 0]
        assert executor.overlays[1].garbage_bits == 0
        assert np.array_equal(np.array(_levels(service, "g")), before)
        service.save_graph("g", tmp_path)
        manifest = read_manifest(tmp_path / "manifest.json")
        assert manifest["base_files"] == [
            base_file_name(0, 0), base_file_name(1, 1), base_file_name(0, 2),
        ]
        assert manifest["base_generations"] == [0, 1, 0]
        replica = TraversalService()
        replica.load_graph(tmp_path)
        assert np.array_equal(np.array(_levels(replica, "g")), before)
        replica.close()
        service.close()

    def test_rebase_refuses_process_backend(self):
        service = _service(_graph(9), shards=2, executor_backend="process")
        try:
            with pytest.raises(RuntimeError, match="process"):
                service.rebase_graph("g", shard=0)
        finally:
            service.close()


class TestCDC:
    def test_export_and_read_roundtrip(self, tmp_path):
        rng = random.Random(11)
        service = _service(_graph(11))
        writer = service.start_cdc_export("g", tmp_path / "g.cdc")
        batches = [_batch(rng, 60) for _ in range(3)]
        for batch in batches:
            service.apply_updates("g", batch)
        assert writer.records_written == 3
        records = read_cdc_records(tmp_path / "g.cdc")
        assert [record["epoch"] for record in records] == [1, 2, 3]
        for record in records:
            assert record["name"] == "g"
            assert all(len(update) == 3 for update in record["applied"])
        service.close()

    def test_noop_batches_emit_nothing(self, tmp_path):
        service = _service(_graph(12))
        writer = service.start_cdc_export("g", tmp_path / "g.cdc")
        service.apply_updates("g", [])
        service.apply_updates("g", [("delete", 0, 59), ("delete", 0, 59)])
        assert writer.records_written == 0
        assert read_cdc_records(tmp_path / "g.cdc") == []
        service.close()

    def test_torn_tail_is_end_of_stream(self, tmp_path):
        rng = random.Random(13)
        service = _service(_graph(13))
        service.start_cdc_export("g", tmp_path / "g.cdc")
        service.apply_updates("g", _batch(rng, 60))
        service.apply_updates("g", _batch(rng, 60))
        whole = (tmp_path / "g.cdc").read_bytes()
        service.apply_updates("g", _batch(rng, 60))
        full = (tmp_path / "g.cdc").read_bytes()
        torn = full[: len(whole) + (len(full) - len(whole)) // 2]
        (tmp_path / "g.cdc").write_bytes(torn)
        records = read_cdc_records(tmp_path / "g.cdc")
        assert [record["epoch"] for record in records] == [1, 2]
        service.close()

    def test_mid_stream_corruption_raises(self, tmp_path):
        rng = random.Random(14)
        service = _service(_graph(14))
        service.start_cdc_export("g", tmp_path / "g.cdc")
        service.apply_updates("g", _batch(rng, 60))
        data = bytearray((tmp_path / "g.cdc").read_bytes())
        data[12 + 8] ^= 0xFF  # first payload byte of the first frame
        (tmp_path / "g.cdc").write_bytes(bytes(data))
        with pytest.raises(StoreFormatError, match="checksum"):
            read_cdc_records(tmp_path / "g.cdc")
        service.close()

    def test_follower_serves_bit_identical_answers(self, tmp_path):
        rng = random.Random(15)
        service = _service(_graph(15))
        service.apply_updates("g", _batch(rng, 60))
        service.save_graph("g", tmp_path / "snap")
        service.start_cdc_export("g", tmp_path / "g.cdc")
        for _ in range(4):
            service.apply_updates("g", _batch(rng, 60))
        with FollowerReplica(tmp_path / "snap", tmp_path / "g.cdc") as follower:
            assert follower.catch_up() == 4
            assert follower.catch_up() == 0  # duplicated replay: no-op
            for source in (0, 7, 33):
                primary = np.array(_levels(service, "g", source))
                replica = np.array(_levels(follower, "g", source))
                assert np.array_equal(primary, replica)
        service.close()

    def test_follower_skips_records_already_in_snapshot(self, tmp_path):
        rng = random.Random(16)
        service = _service(_graph(16))
        service.start_cdc_export("g", tmp_path / "g.cdc")
        service.apply_updates("g", _batch(rng, 60))
        service.apply_updates("g", _batch(rng, 60))
        service.save_graph("g", tmp_path / "snap")  # logical epoch 2
        service.apply_updates("g", _batch(rng, 60))
        with FollowerReplica(tmp_path / "snap", tmp_path / "g.cdc") as follower:
            assert follower.applied_epoch == 2
            assert follower.catch_up() == 1
            assert follower.records_skipped == 2
            assert np.array_equal(
                np.array(_levels(service, "g")),
                np.array(_levels(follower, "g")),
            )
        service.close()

    @pytest.mark.parametrize("shards", [None, 2])
    def test_follower_catch_up_decodes_touched_base_nodes_in_one_batch(
        self, tmp_path, shards
    ):
        rng = random.Random(18)
        service = _service(_graph(18), shards=shards)
        service.save_graph("g", tmp_path / "snap")
        service.start_cdc_export("g", tmp_path / "g.cdc")
        for _ in range(3):
            service.apply_updates("g", _batch(rng, 60))
        with FollowerReplica(tmp_path / "snap", tmp_path / "g.cdc") as follower:
            scalar_decodes = []
            entry = follower.service.registry.resolve("g")
            for overlay in entry.all_overlays():
                original = overlay.base.neighbors
                overlay.base.neighbors = (
                    lambda node, original=original:
                    scalar_decodes.append(node) or original(node)
                )
            assert follower.catch_up() == 3
            assert scalar_decodes == []
            assert np.array_equal(
                np.array(_levels(service, "g")),
                np.array(_levels(follower, "g")),
            )
        service.close()

    def test_follower_replays_old_frames_carrying_mirror_applied(
        self, tmp_path
    ):
        """Logs written before frames dropped ``mirror_applied`` still
        replay: readers never read that key.  New frames do not carry it,
        and the CDC format version is unchanged."""
        rng = random.Random(19)
        service = _service(_graph(19))
        service.save_graph("g", tmp_path / "snap")
        service.start_cdc_export("g", tmp_path / "g.cdc")
        for _ in range(4):
            service.apply_updates("g", _batch(rng, 60))
        records = read_cdc_records(tmp_path / "g.cdc")
        assert len(records) == 4
        assert all("mirror_applied" not in record for record in records)
        assert (tmp_path / "g.cdc").read_bytes()[8:12] == (1).to_bytes(4, "little")

        with open(tmp_path / "old.cdc", "wb") as handle:
            write_header(handle, MAGIC_CDC)
            for record in records:
                mirror = [
                    [kind, source, target]
                    for kind, source, target in record["applied"]
                ] + [
                    [kind, target, source]
                    for kind, source, target in record["applied"]
                ]
                write_json_block(handle, {**record, "mirror_applied": mirror})

        with FollowerReplica(tmp_path / "snap", tmp_path / "g.cdc") as new, \
                FollowerReplica(tmp_path / "snap", tmp_path / "old.cdc") as old:
            assert new.catch_up() == 4
            assert old.catch_up() == 4
            primary = service.registry.resolve("g")
            for follower in (new, old):
                entry = follower.service.registry.resolve("g")
                assert entry.adjacency() == primary.adjacency()
                assert entry.num_edges == primary.num_edges
                for source in (0, 7, 33):
                    assert np.array_equal(
                        np.array(_levels(service, "g", source)),
                        np.array(_levels(follower, "g", source)),
                    )
        service.close()

    def test_follower_tracks_primary_across_rebase(self, tmp_path):
        rng = random.Random(17)
        service = _service(_graph(17))
        service.save_graph("g", tmp_path / "snap")
        service.start_cdc_export("g", tmp_path / "g.cdc")
        service.apply_updates("g", _batch(rng, 60))
        service.rebase_graph("g")
        service.apply_updates("g", _batch(rng, 60))
        with FollowerReplica(tmp_path / "snap", tmp_path / "g.cdc") as follower:
            follower.catch_up()
            assert np.array_equal(
                np.array(_levels(service, "g")),
                np.array(_levels(follower, "g")),
            )
        service.close()


class TestCompactGraph:
    def test_budget_and_largest_first(self):
        service = _service(_graph(21), policy=CompactionPolicy.never())
        # node 0 gets the biggest delta, node 1 a middling one, node 2 tiny
        service.apply_updates(
            "g",
            [("insert", 0, t) for t in range(40, 52)]
            + [("insert", 1, t) for t in range(40, 46)]
            + [("insert", 2, 41)],
        )
        overlay = service.registry.resolve("g").overlay
        assert set(overlay.dirty_nodes()) >= {0, 1, 2}
        assert service.compact_graph("g", budget=1) == 1
        assert overlay.delta_size(0) == 0, "largest delta compacts first"
        assert overlay.delta_size(1) > 0
        assert service.compact_graph("g") >= 2
        assert overlay.dirty_nodes() == []
        service.close()

    def test_should_yield_stops_early(self):
        service = _service(_graph(22), policy=CompactionPolicy.never())
        service.apply_updates(
            "g", [("insert", n, (n + 7) % 60) for n in range(20)]
        )
        calls = {"n": 0}

        def yield_after_two() -> bool:
            calls["n"] += 1
            return calls["n"] > 2

        compacted = service.compact_graph("g", should_yield=yield_after_two)
        assert compacted == 2
        assert service.registry.resolve("g").overlay.dirty_nodes()
        service.close()

    def test_includes_undirected_sibling(self):
        service = _service(_graph(23), policy=CompactionPolicy.never())
        service.submit([CCQuery(graph="g")])  # materialise the sibling
        service.apply_updates("g", [("insert", 3, 44), ("insert", 44, 9)])
        entry = service.registry.resolve("g")
        assert entry.undirected is not None
        assert entry.undirected.overlay.dirty_nodes()
        service.compact_graph("g")
        assert entry.overlay.dirty_nodes() == []
        assert entry.undirected.overlay.dirty_nodes() == []
        service.close()


class TestMaintenanceScheduler:
    def test_tick_compacts_within_budget(self):
        service = _service(_graph(31), policy=CompactionPolicy.never())
        service.apply_updates(
            "g", [("insert", n, (n + 11) % 60) for n in range(24)]
        )
        scheduler = service.enable_maintenance(
            MaintenanceConfig(compact_budget=10)
        )
        report = scheduler.tick()
        assert report.compacted == 10
        assert not report.rebased and not report.snapshotted
        assert scheduler.total_compactions == 10
        service.close()

    def test_tick_rebases_when_policy_fires(self):
        rng = random.Random(32)
        policy = CompactionPolicy(
            min_delta=1, degree_fraction=0.0,
            rebase_garbage_fraction=1e-9, min_rebase_bits=1,
        )
        service = _service(_graph(32), policy=policy)
        for _ in range(3):
            service.apply_updates("g", _batch(rng, 60))
        entry = service.registry.resolve("g")
        assert entry.overlay.garbage_bits > 0
        scheduler = service.enable_maintenance(MaintenanceConfig(compact_budget=0))
        report = scheduler.tick()
        assert len(report.rebased) == 1
        assert entry.overlay.garbage_bits == 0
        assert entry.base_generation == 1
        # next tick: nothing left to do
        assert not scheduler.tick().rebased
        service.close()

    def test_snapshot_step_publishes_and_gcs(self, tmp_path):
        rng = random.Random(33)
        service = _service(_graph(33))
        scheduler = service.enable_maintenance(
            MaintenanceConfig(
                snapshot_every=1, retention=RetentionPolicy(keep_epochs=1),
            ),
            directory=tmp_path,
        )
        for _ in range(3):
            service.apply_updates("g", _batch(rng, 60))
            report = scheduler.tick()
            assert report.snapshotted == ["g"]
            assert "g" in report.gc
        assert len(list_epoch_manifests(tmp_path / "g")) == 1
        replica = TraversalService()
        replica.load_graph(tmp_path / "g")
        assert np.array_equal(
            np.array(_levels(replica, "g")), np.array(_levels(service, "g"))
        )
        replica.close()
        service.close()

    def test_snapshot_step_skips_process_backed_entries(self, tmp_path):
        """A process-backed sharded entry cannot be snapshotted; the tick
        skips it, still snapshots every other entry and counts its folds."""
        service = _service(
            _graph(36), name="a", policy=CompactionPolicy.never(),
            shards=2, executor_backend="process",
        )
        try:
            service.register_graph("b", _graph(37))
            scheduler = service.enable_maintenance(
                MaintenanceConfig(snapshot_every=1), directory=tmp_path
            )
            folded = 0
            for tick in range(3):
                service.apply_updates(
                    "b", [("insert", n, (n + 7 + tick) % 60) for n in range(4)]
                )
                report = scheduler.tick()
                assert report.snapshotted == ["b"]
                folded += report.compacted
            assert folded > 0
            assert scheduler.total_compactions == folded
            assert scheduler.total_snapshots == 3
            assert not (tmp_path / "a").exists()
            assert (tmp_path / "b" / "manifest.json").exists()
        finally:
            service.close()

    def test_should_yield_aborts_tick(self):
        service = _service(_graph(34), policy=CompactionPolicy.never())
        service.apply_updates("g", [("insert", n, 1) for n in range(10)])
        scheduler = service.enable_maintenance(MaintenanceConfig())
        report = scheduler.tick(should_yield=lambda: True)
        assert report.yielded
        assert report.compacted == 0
        service.close()

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="compact_budget"):
            MaintenanceConfig(compact_budget=-1)
        with pytest.raises(ValueError, match="snapshot_every"):
            MaintenanceConfig(snapshot_every=-2)
        with pytest.raises(ValueError, match="keep_epochs"):
            RetentionPolicy(keep_epochs=0)
        service = _service(_graph(35))
        with pytest.raises(ValueError, match="directory"):
            MaintenanceScheduler(
                service, MaintenanceConfig(snapshot_every=1)
            )
        service.close()

    def test_metrics_registered(self):
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry()
        service = TraversalService(telemetry=telemetry)
        service.register_graph("g", _graph(36))
        service.enable_maintenance(MaintenanceConfig())
        assert telemetry.metrics.get("maintenance_ticks_total") is not None
        assert (
            telemetry.metrics.get("maintenance_overlay_garbage_bits")
            is not None
        )
        # re-enabling must not raise on duplicate registration
        service.enable_maintenance(MaintenanceConfig())
        service.close()


class TestFrontDoorMaintenance:
    def test_idle_dispatcher_runs_ticks(self):
        service = _service(_graph(41), policy=CompactionPolicy.never())
        service.apply_updates(
            "g", [("insert", n, (n + 5) % 60) for n in range(16)]
        )
        scheduler = service.enable_maintenance(
            MaintenanceConfig(compact_budget=4)
        )
        with FrontDoor(service) as door:
            door.register_tenant("t")
            door.attach_maintenance(scheduler)
            deadline = time.monotonic() + 5.0
            while scheduler.ticks == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert scheduler.ticks > 0, "idle dispatcher never ticked"
            # foreground traffic still serves correctly mid-maintenance
            response = door.call("t", BFSQuery(graph="g", source=0))
            assert response.ok
        service.close()

    def test_failing_tick_is_counted_and_contained(self):
        class FailingScheduler:
            def tick(self, should_yield=None):
                raise OSError("snapshot directory unwritable")

        service = _service(_graph(43))  # telemetry disabled
        with FrontDoor(service) as door:
            door.register_tenant("t")
            door.attach_maintenance(FailingScheduler())
            errors = service.telemetry.metrics.get(
                "frontdoor_maintenance_errors_total"
            )
            deadline = time.monotonic() + 5.0
            while errors.value() == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert errors.value() >= 1
            # the dispatcher survived the failing ticks
            response = door.call("t", BFSQuery(graph="g", source=0))
            assert response.ok
        service.close()

    def test_detach_stops_ticking(self):
        service = _service(_graph(42))
        scheduler = service.enable_maintenance(MaintenanceConfig())
        with FrontDoor(service) as door:
            door.attach_maintenance(scheduler)
            door.attach_maintenance(None)
            time.sleep(0.12)
            assert scheduler.ticks == 0
        service.close()


class TestSnapshotAtomicity:
    """Regression: a failed write must never strand epoch-manifest copies."""

    def test_failed_delta_write_rolls_back_new_files(self, tmp_path):
        service = _service(_graph(51))
        harness = FaultInjectingDirectory(tmp_path)
        # first snapshot: crash at the delta write (the base has already
        # been published) -- all-or-nothing rollback must leave nothing.
        points = harness.mutation_points(
            lambda: service.save_graph("g", tmp_path / "probe")
        )
        delta_index = next(
            index for index, (op, path) in enumerate(points)
            if op == "write" and path.name.endswith(".delta.tmp")
        )
        assert harness.run_crashing(
            delta_index, lambda: service.save_graph("g", tmp_path / "fresh")
        )
        leftovers = sorted(
            p.name for p in (tmp_path / "fresh").iterdir()
        )
        assert leftovers == [], f"stranded files after failed write: {leftovers}"
        service.close()

    def test_failed_manifest_write_keeps_prior_epoch_only(self, tmp_path):
        rng = random.Random(52)
        service = _service(_graph(52))
        service.save_graph("g", tmp_path)
        before = sorted(p.name for p in tmp_path.iterdir())
        pointer_before = (tmp_path / "manifest.json").read_bytes()
        service.apply_updates("g", _batch(rng, 60))
        harness = FaultInjectingDirectory(tmp_path)

        def crash_on_epoch_manifest(op, path, payload):
            if op == "write" and path.name.startswith("manifest-epoch-"):
                raise SimulatedCrash(f"fail {path.name}")

        from repro.store.io import set_fault_hook
        previous = set_fault_hook(crash_on_epoch_manifest)
        try:
            with pytest.raises(SimulatedCrash):
                service.save_graph("g", tmp_path)
        finally:
            set_fault_hook(previous)
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert (tmp_path / "manifest.json").read_bytes() == pointer_before
        replica = TraversalService()
        replica.load_graph(tmp_path)
        replica.close()
        service.close()


class TestManifestCompat:
    def test_v1_manifest_still_loads(self, tmp_path):
        service = _service(_graph(61))
        service.save_graph("g", tmp_path)
        pointer = tmp_path / "manifest.json"
        document = json.loads(pointer.read_text())
        assert document["manifest_version"] == MANIFEST_VERSION == 2
        document["manifest_version"] = 1
        del document["logical_epoch"]
        del document["base_generations"]
        pointer.write_text(json.dumps(document, sort_keys=True))

        manifest = read_manifest(pointer)
        assert manifest["logical_epoch"] == 0
        assert manifest["base_generations"] == [0]
        replica = TraversalService()
        replica.load_graph(tmp_path)
        assert np.array_equal(
            np.array(_levels(replica, "g")), np.array(_levels(service, "g"))
        )
        replica.close()
        service.close()

    def test_generation_file_naming(self):
        assert base_file_name(0) == "base.cgr"
        assert base_file_name(2) == "base-gen-2.cgr"
        assert base_file_name(0, shard=1) == "shard-1.cgr"
        assert base_file_name(3, shard=1) == "shard-1-gen-3.cgr"
        assert delta_file_name(4) == "epoch-4.delta"
        assert delta_file_name(4, shard=2) == "shard-2-epoch-4.delta"

    def test_resolve_manifest_path_variants(self, tmp_path):
        service = _service(_graph(62))
        service.save_graph("g", tmp_path)
        assert resolve_manifest_path(tmp_path).name == "manifest.json"
        epoch = read_manifest(tmp_path / "manifest.json")["epoch"]
        tagged = tmp_path / f"manifest-epoch-{epoch}.json"
        assert resolve_manifest_path(tagged) == tagged
        service.close()
