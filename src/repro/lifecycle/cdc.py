"""Change-data-capture: an append-only log of delta records, and followers.

The registry already broadcasts one :class:`~repro.dynamic.DeltaRecord`
per effective update batch (:meth:`~repro.service.GraphRegistry.
subscribe`); :class:`CDCWriter` is the subscriber that makes the stream
durable, serializing each record as one framed block of the store
container (``docs/FORMAT.md``)::

    CGRCDC01 | u32 version | frame | frame | ...

where every frame is a length-prefixed, CRC-checked JSON document carrying
the record's logical epoch and its *effective* update list.  Appends go
through :func:`~repro.store.io.append_bytes` (append + fsync), so a crash
can tear at most the final frame -- which readers detect via the length/CRC
framing (:class:`~repro.store.StoreTruncationError`) and treat as
end-of-stream, the classic torn-tail-is-truncation log discipline.  A CRC
mismatch anywhere *before* the tail is real corruption and raises.

:class:`FollowerReplica` is the consumer the ROADMAP's replica item asks
for: it zero-copy-loads a snapshot (restoring the manifest's logical
epoch), then :meth:`~FollowerReplica.catch_up` tails the log, skipping
records at-or-below its applied epoch -- making duplicated replays
harmless -- and applying the rest through its own service.  Because the
records carry exactly the effective updates the primary applied, the
follower's post-catch-up answers are bit-identical to the primary's.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

from repro.dynamic.updates import DELETE, DeltaRecord
from repro.gpu.device import GPUDevice
from repro.store.format import (
    MAGIC_CDC,
    BlockReader,
    StoreTruncationError,
    write_header,
    write_json_block,
)
from repro.store.io import append_bytes
from repro.store.snapshot import read_manifest, resolve_manifest_path

#: Bytes of the CDC file header (magic + format version).
_HEADER_SIZE = 12


def serialize_record(record: DeltaRecord) -> dict:
    """The JSON-safe document one CDC frame carries for ``record``."""
    return {
        "name": record.name,
        "epoch": record.epoch,
        "graph_epoch": record.graph_epoch,
        "applied": [
            [update.kind, update.source, update.target]
            for update in record.applied
        ],
        "touched_nodes": sorted(record.touched_nodes),
    }


class CDCWriter:
    """Durable delta-stream exporter: subscribe it to a registry.

    A :class:`CDCWriter` is a callable matching the
    :meth:`~repro.service.GraphRegistry.subscribe` protocol; records for
    other graph names pass through untouched (one log per exported name).
    The header is written together with the first frame in a single
    append, so a crash during log creation leaves either nothing or a
    torn tail -- never a headerless frame soup.

    Args:
        path: the log file (created on the first record).
        name: the registered graph name to export.
    """

    def __init__(self, path: str | Path, name: str) -> None:
        self.path = Path(path)
        self.name = name
        #: Records appended over the writer's lifetime.
        self.records_written = 0

    def __call__(self, record: DeltaRecord) -> None:
        """Append one delta record (ignoring other graphs' records)."""
        if record.name != self.name:
            return
        buffer = io.BytesIO()
        if not self.path.exists() or self.path.stat().st_size == 0:
            write_header(buffer, MAGIC_CDC)
        write_json_block(buffer, serialize_record(record))
        append_bytes(self.path, buffer.getvalue())
        self.records_written += 1


def read_cdc_records(path: str | Path) -> list[dict]:
    """Every whole record in a CDC log, in append order.

    A missing log, an empty file, or a torn tail (truncation mid-frame,
    the signature of a crash during the final append) ends the stream
    cleanly at the last whole frame; torn bytes are simply not part of the
    log.  A checksum mismatch or wrong magic raises
    :class:`~repro.store.StoreFormatError`: that is corruption, not a torn
    append.
    """
    path = Path(path)
    if not path.exists():
        return []
    data = path.read_bytes()
    if not data:
        return []
    reader = BlockReader(data, str(path))
    try:
        reader.read_header(MAGIC_CDC)
    except StoreTruncationError:
        # Fewer than 12 bytes: the creating append itself tore.  No whole
        # frame can exist, so the log is empty.
        return []
    records: list[dict] = []
    while not reader.at_end:
        try:
            records.append(reader.read_json_block("cdc record"))
        except StoreTruncationError:
            break  # torn final append -- everything before it is good
    return records


class FollowerReplica:
    """A read replica: snapshot restore plus CDC tailing, bit-identical.

    The follower stands up its own
    :class:`~repro.service.TraversalService`, zero-copy-loads the snapshot
    (no re-encode; the restored entry's bit-level state matches the
    primary's at the snapshot epoch) and remembers the manifest's logical
    epoch.  Each :meth:`catch_up` replays every log record *after* that
    epoch through the service -- records at or below it (already folded
    into the snapshot, or duplicated by an at-least-once producer) are
    skipped, which is what makes replay idempotent.  Answers after
    catch-up equal the primary's answers at the same logical epoch, bit
    for bit; the throughput benchmark gates catch-up >= 5x cheaper than
    re-encoding the final graph.

    Args:
        snapshot: snapshot directory or manifest path to load.
        cdc_path: the primary's CDC log for the same graph name.
        device: optional simulated device for the follower's service.
    """

    def __init__(
        self,
        snapshot: str | Path,
        cdc_path: str | Path,
        device: GPUDevice | None = None,
    ) -> None:
        # Imported here: the service layer imports nothing from lifecycle,
        # but a module-level import would still create a cycle through the
        # service package's own re-exports.
        from repro.service.service import TraversalService

        manifest = read_manifest(resolve_manifest_path(snapshot))
        self.service = TraversalService(device=device)
        self.entry = self.service.load_graph(snapshot)
        self.name = manifest["name"]
        #: Logical epoch of the last applied (or snapshotted) record.
        self.applied_epoch = manifest["logical_epoch"]
        self.cdc_path = Path(cdc_path)
        #: Records applied / skipped over the follower's lifetime.
        self.records_applied = 0
        self.records_skipped = 0

    def catch_up(self) -> int:
        """Apply every new log record; returns how many were applied.

        Safe to call repeatedly (a tailing loop): already-applied epochs
        and other graphs' records are skipped, torn tails end the pass
        cleanly, and each applied record advances the follower's logical
        epoch so a duplicated replay of the same log is a no-op.
        """
        pending = []
        last_epoch = self.applied_epoch
        for record in read_cdc_records(self.cdc_path):
            if record["name"] != self.name or record["epoch"] <= last_epoch:
                self.records_skipped += 1
                continue
            pending.append(record)
            last_epoch = record["epoch"]
        # One vectorized decode of every extent the replay reads -- each
        # update's source, plus a delete's target for the CC sibling's
        # reverse-edge check if one exists -- not one scalar decode each.
        # The follower owns its service; its lock keeps a maintenance pass
        # from compacting a node while the warm-up caches that node's extent.
        with self.service._lock:
            entry = self.service.registry.resolve(self.name)
            reverse = entry.undirected is not None
            read = set()
            for record in pending:
                for kind, source, target in record["applied"]:
                    read.add(source)
                    if reverse and kind == DELETE:
                        read.add(target)
            for overlay in entry.all_overlays():
                overlay.warm_extent_sets(read)
        applied = 0
        for record in pending:
            self.service.apply_updates(
                self.name,
                [tuple(update) for update in record["applied"]],
            )
            self.applied_epoch = record["epoch"]
            applied += 1
        self.records_applied += applied
        return applied

    def submit(self, queries):
        """Serve queries from the replica (see
        :meth:`~repro.service.TraversalService.submit`)."""
        return self.service.submit(queries)

    def close(self) -> None:
        """Release the follower service's resources; idempotent."""
        self.service.close()

    def __enter__(self) -> "FollowerReplica":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "CDCWriter",
    "FollowerReplica",
    "read_cdc_records",
    "serialize_record",
]
