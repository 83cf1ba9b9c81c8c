"""The recorder's tamper-evident message log (Section 6.5).

The log keeps every SPIDeR message the AS has sent or received, hash-
chained so that any retroactive edit invalidates all later entries (the
NetReview-style tamper evidence the prototype reuses).  It also stores,
for each commitment, only the 32-byte CSPRNG seed — the MTT itself is
reconstructed from the message trace on demand, which is why the paper's
per-commitment storage cost is 32 bytes (Section 7.7).

An entry *is* its canonical bytes, ``kind | t_ms | body``
(:func:`repro.runtime.logdump.encode_entry`): :meth:`SpiderLog.append`
encodes them once, links ``chain = H(prev_chain | entry_bytes)``
through :func:`chain_step`, hands the same bytes to the durable sink and
drops them.  :meth:`SpiderLog.verify_chain` re-encodes what a reader of
``entry.payload`` would read, and crash recovery checks the link over
the raw record bytes before it decodes them, so an edited payload —
in memory or at rest — breaks the chain from that entry on.
``size_bytes`` is not part of that: it is the paper's §7.6/§7.7
accounting model, derived from the payload by :func:`entry_size`.

Retention: verification reaches back at most ``retention_seconds``;
:meth:`SpiderLog.trim` discards older entries once a newer checkpoint
covers them.  The Section 7.7 storage account is the entries the log
holds (:meth:`SpiderLog.bytes_by_kind`), so it follows every append,
restore and trim without being kept anywhere.

Durability is pluggable: a :class:`LogSink` (the on-disk segmented
store in :mod:`repro.store`, or nothing for the default in-memory
behavior) sees every entry *before* it becomes visible in memory, so
an acknowledged message is always at least as durable as the protocol
state built on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, \
    Protocol

from ..crypto.hashing import DIGEST_SIZE, digest


class EntryKind(enum.Enum):
    SENT_ANNOUNCE = "sent_announce"
    RECV_ANNOUNCE = "recv_announce"
    SENT_WITHDRAW = "sent_withdraw"
    RECV_WITHDRAW = "recv_withdraw"
    SENT_ACK = "sent_ack"
    RECV_ACK = "recv_ack"
    COMMITMENT = "commitment"
    CHECKPOINT = "checkpoint"


def storage_kind(kind: EntryKind) -> str:
    """The Section 7.7 storage category for one entry kind.

    Commitments and checkpoints are reported separately from the
    message log proper; everything else is plain log growth.
    """
    if kind is EntryKind.COMMITMENT:
        return "commitments"
    if kind is EntryKind.CHECKPOINT:
        return "checkpoints"
    return "log"


def entry_size(kind: EntryKind, payload: Any) -> int:
    """The §7.6/§7.7 accounting size of one entry.

    The paper's model, not the length of the canonical bytes: a message
    counts its ``wire_size()`` (signatures amortized over the batch), a
    checkpoint its ``serialized_size()``, a commitment its seed plus 12
    bytes of framing — 32 bytes with a SPIDeR seed.
    """
    if kind is EntryKind.COMMITMENT:
        return len(payload["seed"]) + 12
    if kind is EntryKind.CHECKPOINT:
        return int(payload.serialized_size())
    return int(payload.wire_size())


def chain_step(prev_chain: bytes, entry_bytes: bytes) -> bytes:
    """The §6.5 link, ``H(prev_chain | entry_bytes)`` — the one formula
    append, :meth:`SpiderLog.verify_chain` and crash recovery share.
    ``prev_chain`` has fixed width, so plain concatenation is
    unambiguous."""
    return digest(prev_chain + entry_bytes)


@dataclass(frozen=True)
class LogEntry:
    """One log record.

    ``payload`` is the message object itself (kept in memory for replay);
    ``size_bytes`` is its :func:`entry_size`, which is what the storage
    experiment accounts; ``chain`` is the running hash binding this
    entry's canonical bytes to all earlier ones.
    """

    index: int
    timestamp: float
    kind: EntryKind
    payload: object
    size_bytes: int
    chain: bytes


class TamperError(RuntimeError):
    """Raised when the hash chain fails to verify."""


class LogSink(Protocol):
    """Durable destination for log entries (see :mod:`repro.store`).

    Structural, so :mod:`repro.spider` never imports the store package
    (recovery imports :mod:`repro.runtime.logdump`, which imports this
    module — a nominal base class here would cycle).
    """

    def append(self, entry: "LogEntry", entry_bytes: bytes) -> None:
        """Persist one entry as the canonical bytes its chain covers;
        called *before* it is visible in memory."""
        ...

    def sync(self) -> None:
        """Make every appended entry durable (group-commit boundary)."""
        ...

    def trim(self, keep_from_index: int) -> int:
        """Reclaim storage for entries below ``keep_from_index``;
        returns the bytes released on the durable medium."""
        ...


@dataclass(frozen=True)
class TrimReport:
    """What one :meth:`SpiderLog.trim` call reclaimed.

    ``entries`` counts discarded log entries; ``bytes_reclaimed`` sums
    their logical ``size_bytes`` (what the §7.7 account loses), split by
    storage kind in ``bytes_by_kind``.
    """

    entries: int
    bytes_reclaimed: int
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)


def _bytes_by_kind(entries: Iterable[LogEntry]) -> Dict[str, int]:
    """Logical bytes per :func:`storage_kind` of ``entries``."""
    by_kind: Dict[str, int] = {}
    for entry in entries:
        kind = storage_kind(entry.kind)
        by_kind[kind] = by_kind.get(kind, 0) + entry.size_bytes
    return by_kind


class SpiderLog:
    """Append-only hash-chained log with an optional durable sink."""

    def __init__(self, retention_seconds: float = 365 * 24 * 3600,
                 sink: Optional[LogSink] = None):
        self.retention_seconds = retention_seconds
        self.sink = sink
        self._entries: List[LogEntry] = []
        self._head: bytes = bytes(DIGEST_SIZE)
        #: Next index to assign.  Distinct from ``len(self._entries)``
        #: once :meth:`trim` has dropped a prefix: indices are monotonic
        #: over the log's whole lifetime, never reused.
        self._next_index = 0

    @classmethod
    def restore(cls, entries: Iterable[LogEntry],
                retention_seconds: float = 365 * 24 * 3600,
                sink: Optional[LogSink] = None) -> "SpiderLog":
        """Rebuild a log from already-persisted entries (crash
        recovery).  The entries are adopted as-is — they are *not*
        re-appended to the sink."""
        log = cls(retention_seconds=retention_seconds, sink=sink)
        log._entries = list(entries)
        if log._entries:
            log._head = log._entries[-1].chain
            log._next_index = log._entries[-1].index + 1
        return log

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    @property
    def head(self) -> bytes:
        return self._head

    def append(self, timestamp: float, kind: EntryKind,
               payload: object) -> LogEntry:
        # Function-level: repro.runtime's __init__ reaches back into
        # this module through node_runtime.
        from ..runtime.logdump import encode_entry
        if self._entries and timestamp < self._entries[-1].timestamp:
            # Clocks are loosely synchronized; tolerate equal stamps but
            # never reorder entries backwards.
            timestamp = self._entries[-1].timestamp
        entry_bytes = encode_entry(kind, timestamp, payload)
        chain = chain_step(self._head, entry_bytes)
        entry = LogEntry(index=self._next_index, timestamp=timestamp,
                         kind=kind, payload=payload,
                         size_bytes=entry_size(kind, payload),
                         chain=chain)
        if self.sink is not None:
            # Durable before visible: a sink failure leaves the
            # in-memory log exactly as it was.
            self.sink.append(entry, entry_bytes)
        self._entries.append(entry)
        self._head = chain
        self._next_index = entry.index + 1
        return entry

    def sync(self) -> None:
        """Group-commit boundary: flush the sink, if any."""
        if self.sink is not None:
            self.sink.sync()

    # ------------------------------------------------------------------
    # Queries used by replay and evidence

    def entries_between(self, start: float,
                        end: float) -> List[LogEntry]:
        return [e for e in self._entries if start <= e.timestamp <= end]

    def entries_up_to(self, t: float) -> List[LogEntry]:
        return [e for e in self._entries if e.timestamp <= t]

    def of_kind(self, *kinds: EntryKind) -> List[LogEntry]:
        wanted = set(kinds)
        return [e for e in self._entries if e.kind in wanted]

    def commitment_at(self, t: float) -> Optional[LogEntry]:
        for entry in self._entries:
            if entry.kind is EntryKind.COMMITMENT and \
                    abs(entry.timestamp - t) < 1e-6:
                return entry
        return None

    # ------------------------------------------------------------------
    # Integrity and retention

    def verify_chain(self) -> None:
        """Recompute the chain; raises :class:`TamperError` on mismatch.

        Every entry is re-encoded from the objects a reader of the log
        sees, so a swapped payload is caught like an edited stamp.

        A trimmed/compacted log no longer starts at genesis: the first
        surviving entry's stored chain value is then the trust anchor
        (a checkpoint at or before it covers everything discarded), and
        verification checks the linkage from there onward.
        """
        from ..runtime.logdump import encode_log_entry
        entries = self._entries
        if entries and entries[0].index > 0:
            head = entries[0].chain
            start = 1
        else:
            head = bytes(DIGEST_SIZE)
            start = 0
        for entry in entries[start:]:
            if chain_step(head, encode_log_entry(entry)) != entry.chain:
                raise TamperError(f"log entry {entry.index} breaks the "
                                  "hash chain")
            head = entry.chain
        if head != self._head:
            raise TamperError("log head does not match the chain")

    def trim(self, now: float) -> TrimReport:
        """Drop entries older than the retention window, keeping at
        least one checkpoint that predates the window (replay needs a
        base).  The durable sink reclaims the dropped entries, and their
        logical bytes are reported per kind."""
        horizon = now - self.retention_seconds
        base: Optional[int] = None  # list position, not entry index
        for position, entry in enumerate(self._entries):
            if entry.kind is EntryKind.CHECKPOINT and \
                    entry.timestamp <= horizon:
                base = position
        if base is None or base == 0:
            return TrimReport(entries=0, bytes_reclaimed=0)
        dropped = self._entries[:base]  # keep the checkpoint itself
        self._entries = self._entries[base:]
        by_kind = _bytes_by_kind(dropped)
        if self.sink is not None:
            self.sink.trim(self._entries[0].index)
        return TrimReport(entries=len(dropped),
                          bytes_reclaimed=sum(by_kind.values()),
                          bytes_by_kind=by_kind)

    # ------------------------------------------------------------------
    # Accounting (Section 7.7)

    def bytes_by_kind(self) -> Dict[str, int]:
        """The §7.7 account: logical bytes held per :func:`storage_kind`
        (log, commitments, checkpoints)."""
        return _bytes_by_kind(self._entries)

    def total_bytes(self, *kinds: EntryKind) -> int:
        if kinds:
            wanted = set(kinds)
            return sum(e.size_bytes for e in self._entries
                       if e.kind in wanted)
        return sum(e.size_bytes for e in self._entries)
