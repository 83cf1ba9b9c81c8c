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

A store directory has one reader, :func:`read_directory`: it scans
each segment file once and is the only statement of which directories
are acceptable.  A store built on a directory that already holds
segments accepts no :meth:`~SegmentedLogStore.append` until
:func:`repro.store.recovery.recover` has chain-verified that walk and
handed the store its position (:meth:`~SegmentedLogStore.adopt`).
"""

from __future__ import annotations

import os
from typing import IO, Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs.metrics import Counter, Gauge
from ..obs.registry import Registry, get_registry
# Not called here — the log hands append() the bytes it chained —
# but benchmarks/e2e/layers.py TARGETS substitutes this attribute.
from ..runtime.logdump import encode_log_entry  # noqa: F401
from ..spider.log import LogEntry, storage_kind
from .segment import HEADER_SIZE, ScanResult, SegmentInfo, \
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


def read_directory(directory: str
                   ) -> Iterator[Tuple[SegmentInfo, ScanResult]]:
    """The one reader of a store directory: every segment file, oldest
    first, scanned once, with its scan.

    Raises :class:`StoreCorruptionError`, naming the file, at the first
    segment that is not acceptable.  The rules, stated nowhere else:

    * a file's name, its header and its first record give one base
      index — ``trim`` and lexical order decide by the name, so a name
      the header does not back is a renamed file;
    * every segment but the last scans clean and holds records;
    * only the last may be a torn create (shorter than a header: the
      file never held data) or end in a torn tail (``torn_bytes`` past
      the last intact record) — a crash, which the caller repairs
      (:meth:`SegmentedLogStore.adopt`) or merely reports
      (:mod:`repro.store.inspect`);
    * a full-length header that does not parse was valid once (nothing
      is appended behind a bad one), so it is tampering wherever it
      sits.

    Read-only, and structural only: the Section 6.5 chain over what it
    yields is :func:`repro.store.recovery.rebuild_entries`'s check.
    """
    infos = list_segments(directory)
    for info in infos:
        last = info is infos[-1]
        result = scan_segment(info.path)
        if not result.header_ok:
            if not last or result.file_bytes >= HEADER_SIZE:
                raise StoreCorruptionError(
                    f"segment {info.path}: {result.error}")
        elif result.base_index != info.base_index:
            raise StoreCorruptionError(
                f"segment {info.path}: named for base index "
                f"{info.base_index} but its header says "
                f"{result.base_index}")
        elif result.records and \
                result.records[0].index != result.base_index:
            raise StoreCorruptionError(
                f"segment {info.path}: base index {result.base_index} "
                f"does not match first record "
                f"{result.records[0].index}")
        elif not last and result.error is not None:
            raise StoreCorruptionError(
                f"sealed segment {info.path}: {result.error}")
        elif not last and not result.records:
            raise StoreCorruptionError(
                f"sealed segment {info.path} holds no records")
        yield info, result
        del result  # so the next scan starts with no raw records alive


def droppable_segments(segments: Sequence[SegmentInfo],
                       keep_from_index: int) -> List[SegmentInfo]:
    """The leading segments whose records *all* precede
    ``keep_from_index`` — what :meth:`SegmentedLogStore.trim` removes.

    Retention maps to whole files: partial segments are never rewritten
    (that would re-open the door to the torn-write states recovery
    exists to handle).  A segment's record range ends where the next
    segment begins, so it is fully covered iff its successor's base
    index is at or below the keep boundary; the final (active) segment
    has no successor and is never dropped.
    """
    droppable: List[SegmentInfo] = []
    for info, successor in zip(segments, segments[1:]):
        if successor.base_index > keep_from_index:
            break
        droppable.append(info)
    return droppable


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
        self._sealed: List[SegmentInfo] = []
        #: The segment being written: its path, and its base index and
        #: size so far (meaningful while the path is set).
        self._tail_path: Optional[str] = None
        self._tail_base = 0
        self._tail_bytes = 0
        self._pending_bytes = 0
        self.last_index: Optional[int] = None
        #: No append behind an unverified chain: a directory that
        #: already holds segments must go through ``recover`` first.
        self._recovered = not list_segments(directory)

    # ------------------------------------------------------------------
    # Metrics plumbing

    def _labels(self, **extra: str) -> Dict[str, str]:
        return {"node": self.node, **extra}

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
        self._segments_gauge.set(
            len(self._sealed) + (self._tail_path is not None))

    # ------------------------------------------------------------------
    # Taking the position a recovery verified

    def adopt(self, segments: Sequence[SegmentInfo], torn_bytes: int,
              last_index: Optional[int]) -> None:
        """Open for appending where a verified walk of the directory
        ended (:func:`repro.store.recovery.recover` is the caller).

        ``segments`` is what :func:`read_directory` yielded, each sized
        by its scan's ``valid_bytes``; ``torn_bytes`` is what the last
        file carries beyond that.  What a crash left on the last file is
        repaired here, durably, before anything is appended behind it: a
        torn create is removed, a torn tail truncated back to the last
        intact record boundary.
        """
        self._sealed = list(segments)
        self._tail_path = None
        self.last_index = last_index
        self._torn.inc(torn_bytes)
        if self._sealed:
            tail = self._sealed.pop()
            if tail.size_bytes < HEADER_SIZE:
                # Crash between file creation and the header write.
                os.unlink(tail.path)
                self._sync_directory()
            else:
                if torn_bytes:
                    with open(tail.path, "r+b") as handle:
                        handle.truncate(tail.size_bytes)
                        handle.flush()
                        os.fsync(handle.fileno())
                self._tail_path = tail.path
                self._tail_base = tail.base_index
                self._tail_bytes = tail.size_bytes
                self._fh = open(tail.path, "ab")
        self._recovered = True
        self._update_segments_gauge()

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
        if not self._recovered:
            raise StoreError(
                f"{self.directory} holds segments nothing has verified "
                f"yet: recover() the store before appending to it")
        if self.last_index is not None and \
                entry.index != self.last_index + 1:
            raise StoreError(
                f"non-contiguous append: entry {entry.index} after "
                f"{self.last_index}")
        if self.last_index is None and self._tail_path is None and \
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
        self._tail_bytes += len(frame)
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
        are (:func:`droppable_segments`).  Returns the file bytes
        reclaimed.
        """
        removable = droppable_segments(self.segments(),
                                       keep_from_index)
        removed_bytes = 0
        for info in removable:
            os.unlink(info.path)
            removed_bytes += info.size_bytes
        if removable:
            self._sync_directory()
            # Droppable segments are leading ones, and never the tail.
            del self._sealed[:len(removable)]
            self._reclaimed.inc(removed_bytes)
            self._update_segments_gauge()
        return removed_bytes

    def segments(self) -> List[SegmentInfo]:
        """Current segment files, oldest first."""
        if self._tail_path is None:
            return list(self._sealed)
        return self._sealed + [SegmentInfo(
            path=self._tail_path, base_index=self._tail_base,
            size_bytes=self._tail_bytes)]

    # ------------------------------------------------------------------
    # File plumbing

    def _writable_segment(self, next_index: int,
                          frame_len: int) -> IO[bytes]:
        if self._fh is not None and \
                self._tail_bytes + frame_len > self.segment_bytes and \
                self._tail_bytes > HEADER_SIZE:
            self._rotate()
        if self._fh is None:
            self._start_segment(next_index)
        assert self._fh is not None
        return self._fh

    def _rotate(self) -> None:
        assert self._fh is not None
        self._flush(fsync=self.fsync_policy != "never")
        self._fh.close()
        self._fh = None
        self._sealed = self.segments()
        self._tail_path = None
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
        self._tail_path = path
        self._tail_base = base_index
        self._tail_bytes = HEADER_SIZE
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
        """Flush and release the tail; appending again takes a
        ``recover``."""
        if self._fh is not None:
            self._flush(fsync=self.fsync_policy != "never")
            self._fh.close()
            self._fh = None
        self._recovered = False

    def __enter__(self) -> "SegmentedLogStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
