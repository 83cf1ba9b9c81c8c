"""repro.store — the durable segmented tamper-evident log.

The paper's recorder must hold its hash-chained evidence log (§6.5)
and its 32-byte-per-commitment seeds (§7.7) across restarts; this
package is the on-disk half of that log.  Bottom-up:

* :mod:`~repro.store.segment` — the byte format: CRC32-framed records
  carrying the canonical entry bytes the log chained, as handed over,
  plus segment scanning;
* :mod:`~repro.store.seglog` — :func:`read_directory`, the one reader
  of a store directory and the one statement of which directories are
  acceptable, and :class:`SegmentedLogStore`, the
  :class:`~repro.spider.log.LogSink` implementation with size-based
  rotation, ``never``/``batch``/``always`` fsync policies with group
  commit, and whole-segment retirement once a signed checkpoint covers
  a span (the disk mirror of ``SpiderLog.trim``);
* :mod:`~repro.store.recovery` — replay that one walk into verified
  :class:`~repro.spider.log.LogEntry` objects, checking the Section 6.5
  hash chain over each record's bytes before decoding them, so
  tampering-at-rest fails at startup; only then is the torn tail
  repaired and the store opened for appending;
* :mod:`~repro.store.inspect` — the ``python -m repro.store.inspect``
  CLI for listing and verifying a store directory, read-only, over the
  same walk.

Layering: this package sits *above* :mod:`repro.spider` (it persists
its log entries) and imports the canonical decoder from
:mod:`repro.runtime.logdump`; the spider layer reaches back only
through the structural ``LogSink`` protocol, never by importing this
package.
"""

from .recovery import Recovery, RecoveryStats, rebuild_entries, recover
from .seglog import DEFAULT_BATCH_BYTES, DEFAULT_SEGMENT_BYTES, \
    FSYNC_POLICIES, SegmentedLogStore, droppable_segments, \
    read_directory
from .segment import RawRecord, ScanResult, SegmentInfo, \
    StoreCorruptionError, StoreError, list_segments, scan_segment, \
    segment_filename

__all__ = [
    "Recovery", "RecoveryStats", "rebuild_entries", "recover",
    "DEFAULT_BATCH_BYTES", "DEFAULT_SEGMENT_BYTES", "FSYNC_POLICIES",
    "SegmentedLogStore", "droppable_segments", "read_directory",
    "RawRecord", "ScanResult", "SegmentInfo",
    "StoreCorruptionError", "StoreError", "list_segments",
    "scan_segment", "segment_filename",
]
