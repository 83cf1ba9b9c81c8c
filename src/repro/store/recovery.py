"""Crash recovery: rebuild the in-memory log from segments.

Recovery replays every durable record and re-arms the recorder's
protocol state.  Two independent layers of verification run on the
way in:

* **Structural** (already done by the store on open and re-checked per
  scan): CRC32 per frame, header sanity, torn-tail truncation.  This
  catches accidents.
* **Tamper-evident** (done here, Section 6.5): every record's stored
  chain digest must extend its predecessor's over the record's own
  bytes — ``chain = H(prev_chain | entry_bytes)``,
  :func:`repro.spider.log.chain_step` — and indices must be
  contiguous.  The link is checked over the raw bytes *before* they
  are decoded, so an adversary who edits any byte of a record at rest
  and fixes up its CRC breaks the chain at that record, which is
  detected at startup before any recovered state is trusted.

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
from .segment import RawRecord, StoreCorruptionError
from .seglog import SegmentedLogStore


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


def rebuild_entries(records: Iterable[RawRecord]) -> List[LogEntry]:
    """Chain-verify and decode raw records into log entries.

    Raises :class:`TamperError` when the hash chain breaks
    (tampering-at-rest) and :class:`StoreCorruptionError` for index
    gaps or chain-consistent but undecodable payloads.
    """
    entries: List[LogEntry] = []
    prev_chain: Optional[bytes] = None
    prev_index: Optional[int] = None
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
    """Replay a store into verified entries, with timing metrics.

    Metered under ``store_recovery_seconds`` and
    ``store_recovered_records_total`` on the store's registry labels,
    so restart cost shows up next to append cost in the same snapshot.
    """
    start = time.perf_counter()
    entries = rebuild_entries(store.iter_records())
    duration = time.perf_counter() - start
    store.observe_recovery(duration, len(entries))
    head = entries[-1].chain if entries else bytes(DIGEST_SIZE)
    next_index = entries[-1].index + 1 if entries else 0
    return Recovery(
        entries=entries, head=head, next_index=next_index,
        stats=RecoveryStats(records=len(entries),
                            segments=len(store.segments()),
                            torn_bytes=store.torn_bytes_on_open,
                            duration_seconds=duration))
