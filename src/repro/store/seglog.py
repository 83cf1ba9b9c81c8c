"""The segmented durable log store: rotation, fsync policy, trim.

:class:`SegmentedLogStore` is the :class:`repro.spider.log.LogSink`
implementation — the recorder's tamper-evident log writes through it
entry by entry, and crash recovery (:mod:`repro.store.recovery`) reads
it back.  Three fsync policies trade durability for throughput:

* ``always`` — fsync after every append.  Nothing acknowledged is ever
  lost; the kill/restart acceptance scenario runs under this policy.
* ``batch`` — group commit: appends accumulate in the OS buffer and
  one fsync covers the batch, at ``batch_bytes`` of pending data or at
  an explicit :meth:`sync` (the recorder calls it at every protocol
  quiescence point, so a batch never spans an acknowledgment).
* ``never`` — leave flushing to the OS entirely (benchmark baseline).

Opening a directory performs *structural* recovery: every sealed
segment must scan clean (CRC violations there are corruption, fail
closed), while the final segment may carry a torn tail from a crash
mid-write, which is truncated back to the last intact record boundary.
Chain verification — the tamper check — happens one level up in
:mod:`repro.store.recovery`.
"""

from __future__ import annotations

import os
from typing import IO, Dict, Iterator, List, Optional

from ..obs.metrics import Counter, Gauge
from ..obs.registry import Registry, get_registry, next_instance_id
# Not called here — the log hands append() the bytes it chained —
# but benchmarks/e2e/layers.py TARGETS substitutes this attribute.
from ..runtime.logdump import encode_log_entry  # noqa: F401
from ..spider.log import LogEntry, storage_kind
from .compact import droppable_segments
from .segment import HEADER_SIZE, RawRecord, ScanResult, SegmentInfo, \
    StoreCorruptionError, StoreError, encode_header, encode_record, \
    frame_record, list_segments, scan_segment, segment_filename

FSYNC_POLICIES = ("never", "batch", "always")

#: Rotation threshold: a fresh segment is started once the current one
#: would exceed this size.  Small enough that compaction reclaims in
#: useful increments, large enough that a day of messages needs few
#: files.
DEFAULT_SEGMENT_BYTES = 1 << 20

#: Group-commit threshold for ``fsync="batch"``.
DEFAULT_BATCH_BYTES = 64 << 10


class SegmentedLogStore:
    """Append-only segmented store satisfying the ``LogSink`` protocol."""

    def __init__(self, directory: str, fsync: str = "batch",
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 batch_bytes: int = DEFAULT_BATCH_BYTES,
                 registry: Optional[Registry] = None, node: str = ""):
        if fsync not in FSYNC_POLICIES:
            raise StoreError(
                f"unknown fsync policy {fsync!r}; "
                f"expected one of {FSYNC_POLICIES}")
        if segment_bytes <= HEADER_SIZE:
            raise StoreError("segment size must exceed the header")
        self.directory = directory
        self.fsync_policy = fsync
        self.segment_bytes = segment_bytes
        self.batch_bytes = batch_bytes
        self.node = node
        self._registry = registry if registry is not None \
            else get_registry()
        self._instance = next_instance_id("store")
        self._append_bytes: Dict[str, Counter] = {}
        self._records: Dict[str, Counter] = {}
        self._fsyncs = self._registry.counter(
            "store_fsyncs_total", **self._labels())
        self._rotations = self._registry.counter(
            "store_segment_rotations_total", **self._labels())
        self._reclaimed = self._registry.counter(
            "store_reclaimed_bytes_total", **self._labels())
        self._torn = self._registry.counter(
            "store_torn_bytes_total", **self._labels())
        self._segments_gauge: Gauge = self._registry.gauge(
            "store_segments", **self._labels())
        os.makedirs(directory, exist_ok=True)
        self._fh: Optional[IO[bytes]] = None
        self._current: Optional[SegmentInfo] = None
        self._sealed: List[SegmentInfo] = []
        self._pending_bytes = 0
        self.last_index: Optional[int] = None
        self.torn_bytes_on_open = 0
        self._open_existing()

    # ------------------------------------------------------------------
    # Metrics plumbing

    def _labels(self, **extra: str) -> Dict[str, str]:
        labels = {"instance": self._instance, "node": self.node}
        labels.update(extra)
        return labels

    def _append_cell(self, kind: str) -> Counter:
        cell = self._append_bytes.get(kind)
        if cell is None:
            cell = self._registry.counter(
                "store_append_bytes_total", **self._labels(kind=kind))
            self._append_bytes[kind] = cell
        return cell

    def _record_cell(self, kind: str) -> Counter:
        cell = self._records.get(kind)
        if cell is None:
            cell = self._registry.counter(
                "store_records_total", **self._labels(kind=kind))
            self._records[kind] = cell
        return cell

    def observe_recovery(self, duration_seconds: float,
                         records: int) -> None:
        """Record one recovery pass under this store's metric labels."""
        self._registry.histogram(
            "store_recovery_seconds",
            **self._labels()).observe(duration_seconds)
        if records:
            self._registry.counter(
                "store_recovered_records_total",
                **self._labels()).inc(records)

    def _update_segments_gauge(self) -> None:
        count = len(self._sealed) + (1 if self._current else 0)
        self._segments_gauge.set(count)

    # ------------------------------------------------------------------
    # Opening and structural recovery

    def _open_existing(self) -> None:
        infos = list_segments(self.directory)
        for info in infos[:-1]:
            result = scan_segment(info.path)
            self._check_sealed(info, result)
            self._note_scanned(result)
            self._sealed.append(info)
        if infos:
            self._adopt_tail(infos[-1])
        self._update_segments_gauge()

    def _check_sealed(self, info: SegmentInfo,
                      result: ScanResult) -> None:
        if result.error is not None:
            raise StoreCorruptionError(
                f"sealed segment {info.path}: {result.error}")
        if not result.records:
            raise StoreCorruptionError(
                f"sealed segment {info.path} holds no records")
        if result.base_index != result.records[0].index:
            raise StoreCorruptionError(
                f"sealed segment {info.path}: base index "
                f"{result.base_index} does not match first record "
                f"{result.records[0].index}")

    def _note_scanned(self, result: ScanResult) -> None:
        if result.records:
            self.last_index = result.records[-1].index

    def _adopt_tail(self, info: SegmentInfo) -> None:
        """Open the final segment for appending, dropping any torn
        tail a crash mid-write left behind."""
        result = scan_segment(info.path)
        if not result.header_ok:
            if result.file_bytes >= HEADER_SIZE:
                # A full-length header that fails to parse was *valid
                # once* (sealing requires it) — that is tampering, not
                # a torn create.
                raise StoreCorruptionError(
                    f"segment {info.path}: {result.error}")
            # Crash between file creation and the header write: the
            # file never held data.  Remove it and start fresh.
            self.torn_bytes_on_open += result.file_bytes
            self._torn.inc(result.file_bytes)
            os.unlink(info.path)
            self._sync_directory()
            return
        if result.records and \
                result.records[0].index != result.base_index:
            raise StoreCorruptionError(
                f"segment {info.path}: base index {result.base_index} "
                f"does not match first record "
                f"{result.records[0].index}")
        if result.torn_bytes:
            with open(info.path, "r+b") as handle:
                handle.truncate(result.valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
            self.torn_bytes_on_open += result.torn_bytes
            self._torn.inc(result.torn_bytes)
        self._note_scanned(result)
        self._current = SegmentInfo(path=info.path,
                                    base_index=info.base_index,
                                    size_bytes=result.valid_bytes)
        self._fh = open(info.path, "ab")

    # ------------------------------------------------------------------
    # The LogSink protocol

    def append(self, entry: LogEntry, entry_bytes: bytes) -> None:
        """Persist one entry as the canonical bytes the log chained
        (the log calls this before exposing the entry).

        Privacy model: this is the ``store-append`` public sink of
        spiderlint's SPDR006 (declared centrally in
        ``repro.analysis.contracts`` — the bare name ``append`` is too
        generic for a docstring marker).  The only raw secret sanctioned
        to land here is the §6.5 per-commitment seed entry, which the
        recorder keeps in its own trusted storage.
        """
        if self.last_index is not None and \
                entry.index != self.last_index + 1:
            raise StoreError(
                f"non-contiguous append: entry {entry.index} after "
                f"{self.last_index}")
        if self.last_index is None and self._current is None and \
                not self._sealed and entry.index != 0:
            # Fresh directory: a log that thinks it has history but
            # brings no store state was restored incorrectly.
            raise StoreError(
                f"first append to an empty store must be entry 0, "
                f"got {entry.index}")
        frame = frame_record(
            encode_record(entry.index, entry.chain, entry_bytes))
        handle = self._writable_segment(entry.index, len(frame))
        handle.write(frame)
        assert self._current is not None
        self._current = SegmentInfo(
            path=self._current.path,
            base_index=self._current.base_index,
            size_bytes=self._current.size_bytes + len(frame))
        self.last_index = entry.index
        self._pending_bytes += len(frame)
        kind = storage_kind(entry.kind)
        self._append_cell(kind).inc(len(frame))
        self._record_cell(kind).inc()
        if self.fsync_policy == "always" or (
                self.fsync_policy == "batch" and
                self._pending_bytes >= self.batch_bytes):
            self._flush(fsync=self.fsync_policy != "never")

    def sync(self) -> None:
        """Group-commit boundary: everything appended becomes durable
        (under ``never``, merely handed to the OS)."""
        if self._pending_bytes:
            self._flush(fsync=self.fsync_policy != "never")

    def trim(self, keep_from_index: int) -> int:
        """Drop whole segments fully covered by a newer checkpoint.

        Mirrors :meth:`repro.spider.log.SpiderLog.trim` retention
        semantics: every record with index below ``keep_from_index`` is
        eligible, but a segment is only removed if *all* its records
        are (whole-file compaction; the active segment never goes).
        Returns the file bytes reclaimed.
        """
        removable = droppable_segments(self._all_segments(),
                                       keep_from_index)
        removed_bytes = 0
        for info in removable:
            os.unlink(info.path)
            removed_bytes += info.size_bytes
        if removable:
            self._sync_directory()
            removed = {info.path for info in removable}
            self._sealed = [s for s in self._sealed
                            if s.path not in removed]
            self._reclaimed.inc(removed_bytes)
            self._update_segments_gauge()
        return removed_bytes

    # ------------------------------------------------------------------
    # Reading back

    def _all_segments(self) -> List[SegmentInfo]:
        return self._sealed + \
            ([self._current] if self._current else [])

    def segments(self) -> List[SegmentInfo]:
        """Current segment files, oldest first."""
        return list(self._all_segments())

    def iter_records(self) -> Iterator[RawRecord]:
        """Every record in index order, CRC- and frame-verified.

        Used by recovery; the store is flushed first so the scan sees
        everything appended.
        """
        self.sync()
        for info in self._all_segments():
            result = scan_segment(info.path)
            if result.error is not None:
                raise StoreCorruptionError(
                    f"segment {info.path}: {result.error}")
            if result.records and \
                    result.records[0].index != result.base_index:
                raise StoreCorruptionError(
                    f"segment {info.path}: base index "
                    f"{result.base_index} does not match first record")
            yield from result.records

    # ------------------------------------------------------------------
    # File plumbing

    def _writable_segment(self, next_index: int,
                          frame_len: int) -> IO[bytes]:
        if self._fh is not None and self._current is not None and \
                self._current.size_bytes + frame_len > \
                self.segment_bytes and \
                self._current.size_bytes > HEADER_SIZE:
            self._rotate()
        if self._fh is None:
            self._start_segment(next_index)
        assert self._fh is not None
        return self._fh

    def _rotate(self) -> None:
        assert self._fh is not None and self._current is not None
        self._flush(fsync=self.fsync_policy != "never")
        self._fh.close()
        self._fh = None
        self._sealed.append(self._current)
        self._current = None
        self._rotations.inc()

    def _start_segment(self, base_index: int) -> None:
        path = os.path.join(self.directory,
                            segment_filename(base_index))
        if os.path.exists(path):
            raise StoreError(f"segment {path} already exists")
        self._fh = open(path, "ab")
        self._fh.write(encode_header(base_index))
        if self.fsync_policy != "never":
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fsyncs.inc()
            self._sync_directory()
        self._current = SegmentInfo(path=path, base_index=base_index,
                                    size_bytes=HEADER_SIZE)
        self._update_segments_gauge()

    def _flush(self, fsync: bool) -> None:
        if self._fh is not None:
            self._fh.flush()
            if fsync:
                os.fsync(self._fh.fileno())
                self._fsyncs.inc()
        self._pending_bytes = 0

    def _sync_directory(self) -> None:
        """Make file creation/removal itself durable."""
        if self.fsync_policy == "never":
            return
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def close(self) -> None:
        if self._fh is not None:
            self._flush(fsync=self.fsync_policy != "never")
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SegmentedLogStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
