"""Crash recovery: rebuild the in-memory log from segments.

Recovery replays every durable record and re-arms the recorder's
protocol state.  One pass over the directory, two layers of
verification:

* **Structural** (:func:`repro.store.seglog.read_directory`, the one
  reader of a store directory): CRC32 per frame, header and file-name
  sanity, a torn tail or torn create on the last file only.  This
  catches accidents and renamed files.
* **Tamper-evident** (done here, Section 6.5): every record's stored
  chain digest must extend its predecessor's over the record's own
  bytes — ``chain = H(prev_chain | entry_bytes)``,
  :func:`repro.spider.log.chain_step` — and indices must be
  contiguous.  The link is checked over the raw bytes *before* they
  are decoded, so an adversary who edits any byte of a record at rest
  and fixes up its CRC breaks the chain at that record, which is
  detected at startup before any recovered state is trusted.

Each segment's records go through :func:`rebuild_entries` as they are
scanned, the link carried across files, so no more than one segment's
raw records are alive at a time.  Only when the whole directory has
verified does the store repair its last file and open it
(:meth:`~repro.store.seglog.SegmentedLogStore.adopt`): nothing is
written to a directory recovery refuses, and nothing is appended behind
an unverified chain.

A compacted log no longer starts at genesis; the first surviving
record's chain value is then the trust anchor (the checkpoint that
authorized compaction covers everything before it), exactly as
:meth:`repro.spider.log.SpiderLog.verify_chain` treats it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..crypto.hashing import DIGEST_SIZE, constant_time_eq
from ..runtime.codec import CodecError
from ..runtime.logdump import decode_log_entry
from ..spider.log import LogEntry, TamperError, chain_step, entry_size
from .segment import RawRecord, SegmentInfo, StoreCorruptionError
from .seglog import SegmentedLogStore, read_directory


@dataclass(frozen=True)
class RecoveryStats:
    """What one recovery pass processed."""

    records: int
    segments: int
    torn_bytes: int
    duration_seconds: float


@dataclass(frozen=True)
class Recovery:
    """A verified reconstruction of the durable log."""

    entries: List[LogEntry]
    head: bytes
    next_index: int
    stats: RecoveryStats


def rebuild_entries(records: Iterable[RawRecord],
                    after: Optional[LogEntry] = None) -> List[LogEntry]:
    """Chain-verify and decode raw records into log entries.

    ``after`` is the entry the first record must extend — the last one
    of the previous segment; ``None`` at the start of a directory.

    Raises :class:`TamperError` when the hash chain breaks
    (tampering-at-rest) and :class:`StoreCorruptionError` for index
    gaps or chain-consistent but undecodable payloads.
    """
    entries: List[LogEntry] = []
    prev_chain = after.chain if after is not None else None
    prev_index = after.index if after is not None else None
    for record in records:
        if prev_index is None:
            if record.index == 0:
                prev_chain = bytes(DIGEST_SIZE)
            # else: compacted log — the first survivor's chain is the
            # trust anchor; nothing earlier exists to verify against.
        elif record.index != prev_index + 1:
            raise StoreCorruptionError(
                f"record index gap: {record.index} follows "
                f"{prev_index}")
        if prev_chain is not None and not constant_time_eq(
                chain_step(prev_chain, record.entry_bytes), record.chain):
            raise TamperError(
                f"record {record.index} breaks the hash chain")
        try:
            kind, timestamp, payload = \
                decode_log_entry(record.entry_bytes)
        except CodecError as exc:
            raise StoreCorruptionError(
                f"record {record.index}: undecodable entry: {exc}"
            ) from exc
        entries.append(LogEntry(index=record.index,
                                timestamp=timestamp, kind=kind,
                                payload=payload,
                                size_bytes=entry_size(kind, payload),
                                chain=record.chain))
        prev_chain = record.chain
        prev_index = record.index
    return entries


def recover(store: SegmentedLogStore) -> Recovery:
    """Replay a store's directory into verified entries and, that done,
    position the store to append behind them.

    Metered under ``store_recovery_seconds`` and
    ``store_recovered_records_total`` on the store's registry labels,
    so restart cost shows up next to append cost in the same snapshot.
    """
    start = time.perf_counter()
    # Flushed so the walk sees everything appended, and closed: a store
    # whose recovery raises holds no handle and takes no append.
    store.close()
    entries: List[LogEntry] = []
    segments: List[SegmentInfo] = []
    torn_bytes = 0
    for info, result in read_directory(store.directory):
        entries.extend(rebuild_entries(
            result.records, entries[-1] if entries else None))
        segments.append(SegmentInfo(path=info.path,
                                    base_index=info.base_index,
                                    size_bytes=result.valid_bytes))
        torn_bytes = result.torn_bytes
        del result  # decoded: free its raw records before the next scan
    store.adopt(segments, torn_bytes,
                entries[-1].index if entries else None)
    duration = time.perf_counter() - start
    store.observe_recovery(duration, len(entries))
    head = entries[-1].chain if entries else bytes(DIGEST_SIZE)
    next_index = entries[-1].index + 1 if entries else 0
    return Recovery(
        entries=entries, head=head, next_index=next_index,
        stats=RecoveryStats(records=len(entries),
                            segments=len(store.segments()),
                            torn_bytes=torn_bytes,
                            duration_seconds=duration))
