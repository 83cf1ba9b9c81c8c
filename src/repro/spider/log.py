"""The recorder's tamper-evident message log (Section 6.5).

The log keeps every SPIDeR message the AS has sent or received, hash-
chained so that any retroactive edit invalidates all later entries (the
NetReview-style tamper evidence the prototype reuses).  It also stores,
for each commitment, only the CSPRNG seed and the root — the MTT itself
is reconstructed from the message trace on demand.

An entry *is* its canonical bytes, ``kind | t_ms | body``
(:func:`encode_entry`, defined here with its strict inverse
:func:`decode_log_entry`): :meth:`SpiderLog.append` encodes them once,
links ``chain = H(prev_chain | entry_bytes)`` through
:func:`chain_step`, hands the same bytes to the durable sink and keeps
their length as ``size_bytes``.  :meth:`SpiderLog.verify_chain`
re-encodes what a reader of ``entry.payload`` would read, and crash
recovery checks the link over the raw record bytes before it decodes
them, so an edited payload — in memory or at rest — breaks the chain
from that entry on.  Message bodies are the wire codec's bytes
(:mod:`repro.spider.codec`); a checkpoint body is a sorted canonical
dump of the routing state.  Two logs that encode identically
(:func:`encode_log`) recorded the same protocol history.

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
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, \
    Protocol, Tuple, Union, overload

from ..bgp.prefix import Prefix
from ..bgp.route import Route
from ..crypto.hashing import DIGEST_SIZE, digest
from .codec import CodecError, _Reader, _read_message, _read_prefix, \
    _read_route, _seconds, _slot_setters, _write_prefix, _write_route, \
    _Writer, encode_message
from .state import RoutingState
from .wire import SpiderAck, SpiderAnnounce, SpiderWithdraw, time_bytes


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


def chain_step(prev_chain: bytes, entry_bytes: bytes) -> bytes:
    """The §6.5 link, ``H(prev_chain | entry_bytes)`` — the one formula
    append, :meth:`SpiderLog.verify_chain` and crash recovery share.
    ``prev_chain`` has fixed width, so plain concatenation is
    unambiguous."""
    return digest(prev_chain + entry_bytes)


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One log record.

    ``payload`` is the message object itself (kept in memory for replay);
    ``size_bytes`` is the length of the entry's canonical bytes, which
    is what the storage experiment accounts; ``chain`` is the running
    hash binding those bytes to all earlier ones.  A log holds one per
    message, so it has slots; an append and a recovery both build it
    with :func:`new_entry`.
    """

    index: int
    timestamp: float
    kind: EntryKind
    payload: object
    size_bytes: int
    chain: bytes


(_le_index, _le_timestamp, _le_kind, _le_payload, _le_size, _le_chain) = \
    _slot_setters(LogEntry, "index", "timestamp", "kind", "payload",
                  "size_bytes", "chain")


def new_entry(index: int, timestamp: float, kind: EntryKind,
              payload: object, size_bytes: int, chain: bytes) -> LogEntry:
    """One :class:`LogEntry`, built as the codec builds a message: its
    slots written directly, since the frozen ``__init__`` pays an
    ``object.__setattr__`` per field, and a cold open builds one entry
    per record."""
    entry = LogEntry.__new__(LogEntry)
    _le_index(entry, index)
    _le_timestamp(entry, timestamp)
    _le_kind(entry, kind)
    _le_payload(entry, payload)
    _le_size(entry, size_bytes)
    _le_chain(entry, chain)
    return entry


class TamperError(RuntimeError):
    """Raised when the hash chain fails to verify."""


class LogSink(Protocol):
    """Durable destination for log entries (see :mod:`repro.store`).

    Structural, so :mod:`repro.spider` never imports the store package,
    which sits above it and decodes entries through this module.
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
    their ``size_bytes`` (what the §7.7 account loses), split by storage
    kind in ``bytes_by_kind``.
    """

    entries: int
    bytes_reclaimed: int
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)


def _bytes_by_kind(entries: Iterable[LogEntry]) -> Dict[str, int]:
    """Entry bytes per :func:`storage_kind` of ``entries``."""
    by_kind: Dict[str, int] = {}
    for entry in entries:
        kind = storage_kind(entry.kind)
        by_kind[kind] = by_kind.get(kind, 0) + entry.size_bytes
    return by_kind


# ----------------------------------------------------------------------
# The entry layout

_KIND_TAGS: Dict[EntryKind, int] = {
    EntryKind.SENT_ANNOUNCE: 0x10,
    EntryKind.RECV_ANNOUNCE: 0x11,
    EntryKind.SENT_WITHDRAW: 0x12,
    EntryKind.RECV_WITHDRAW: 0x13,
    EntryKind.SENT_ACK: 0x14,
    EntryKind.RECV_ACK: 0x15,
    EntryKind.COMMITMENT: 0x16,
    EntryKind.CHECKPOINT: 0x17,
}


def _encode_state(state: RoutingState) -> bytes:
    w = _Writer()
    for label, tables in ((b"I", state.imports), (b"E", state.exports)):
        w.raw(label)
        w.u32(len(tables))
        for neighbor in sorted(tables):
            table = tables[neighbor]
            w.u32(neighbor)
            w.u32(len(table))
            for prefix in sorted(table):
                _write_prefix(w, prefix)
                _write_route(w, table[prefix])
    w.raw(b"O")
    w.u32(len(state.origins))
    for prefix in sorted(state.origins):
        _write_prefix(w, prefix)
    return w.getvalue()


def _read_state(r: _Reader) -> RoutingState:
    """Strict inverse of :func:`_encode_state`, over the rest of ``r``.
    Neighbors and prefixes must come in the ascending order the encoder
    writes them in: any other order is a second encoding of one
    state."""
    state = RoutingState()
    for label, tables in ((b"I", state.imports), (b"E", state.exports)):
        if r.raw(1) != label:
            raise CodecError(f"routing state misses section {label!r}")
        last_neighbor = -1
        for _ in range(r.u32()):
            neighbor = r.u32()
            if neighbor <= last_neighbor:
                raise CodecError(
                    f"neighbor {neighbor} out of order in routing state")
            last_neighbor = neighbor
            table: Dict[Prefix, Route] = {}
            tables[neighbor] = table
            last: Optional[Prefix] = None
            for _ in range(r.u32()):
                prefix = _read_prefix(r)
                if last is not None and not last < prefix:
                    raise CodecError(
                        "prefix out of order in neighbor "
                        f"{neighbor} table")
                last = prefix
                table[prefix] = _read_route(r, neighbor)
    if r.raw(1) != b"O":
        raise CodecError("routing state misses section b'O'")
    last = None
    for _ in range(r.u32()):
        prefix = _read_prefix(r)
        if last is not None and not last < prefix:
            raise CodecError("origin prefix out of order in routing state")
        last = prefix
        state.origins.add(prefix)
    r.expect_end()
    return state


def encode_entry(kind: EntryKind, timestamp: float,
                 payload: Any) -> bytes:
    """The canonical bytes of one entry, ``kind | t_ms | body`` — what
    the §6.5 chain hashes and the durable store writes."""
    w = _Writer()
    w.u8(_KIND_TAGS[kind])
    w.time_ms(timestamp)
    if kind is EntryKind.COMMITMENT:
        w.blob16(payload["seed"])
        w.blob16(payload["root"])
    else:
        # Checkpoints take the messages' u32 length: a full-table
        # routing snapshot passes 64 KB at about 1.3 k routes.
        if kind is EntryKind.CHECKPOINT:
            encoded = _encode_state(payload)
        else:
            encoded = encode_message(payload)
        w.u32(len(encoded))
        w.raw(encoded)
    return w.getvalue()


def encode_log_entry(entry: LogEntry) -> bytes:
    return encode_entry(entry.kind, entry.timestamp, entry.payload)


_KINDS_BY_TAG: Dict[int, EntryKind] = {
    tag: kind for kind, tag in _KIND_TAGS.items()}

#: The one message type each message-bearing kind may carry; a decoded
#: payload of any other type is a forged or corrupted record.
_KIND_MESSAGE_TYPES: Dict[EntryKind, type] = {
    EntryKind.SENT_ANNOUNCE: SpiderAnnounce,
    EntryKind.RECV_ANNOUNCE: SpiderAnnounce,
    EntryKind.SENT_WITHDRAW: SpiderWithdraw,
    EntryKind.RECV_WITHDRAW: SpiderWithdraw,
    EntryKind.SENT_ACK: SpiderAck,
    EntryKind.RECV_ACK: SpiderAck,
}


#: An entry's fixed head: kind tag | t_ms.
_S_ENTRY_HEAD = struct.Struct(">BQ")


def decode_log_entry(data: Union[bytes, bytearray, memoryview]
                     ) -> Tuple[EntryKind, float, object]:
    """Strict inverse of :func:`encode_log_entry`.

    Returns ``(kind, timestamp, payload)``; the index and chain value
    that complete a :class:`~repro.spider.log.LogEntry` travel outside
    the canonical bytes (the durable store frames them alongside).  One
    reader walks the whole entry: the head in one struct read, then the
    body in place, whose declared length must be exactly the bytes
    left.  Fails closed: unknown kind tags, payload/kind type
    mismatches, truncation and trailing bytes all raise
    :class:`CodecError`.
    """
    r = _Reader(data)
    tag, ms = r.unpack(_S_ENTRY_HEAD)
    kind = _KINDS_BY_TAG.get(tag)
    if kind is None:
        raise CodecError(f"unknown log entry kind tag {tag:#x}")
    timestamp = _seconds(ms)
    payload: object
    if kind is EntryKind.COMMITMENT:
        seed = r.blob16()
        root = r.blob16()
        r.expect_end()
        return kind, timestamp, {"seed": seed, "root": root}
    # The body fills the rest, and its reader ends by checking that it
    # did.
    r.expect_rest(r.u32())
    if kind is EntryKind.CHECKPOINT:
        return kind, timestamp, _read_state(r)
    payload = _read_message(r)
    expected_type = _KIND_MESSAGE_TYPES[kind]
    if not isinstance(payload, expected_type):
        raise CodecError(
            f"{kind.value} entry carries a {type(payload).__name__}, "
            f"expected {expected_type.__name__}")
    return kind, timestamp, payload


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
        #: ``time_bytes`` of each COMMITMENT entry held → its index; the
        #: first of two in one millisecond keeps the key.
        self._commitments: Dict[bytes, int] = {}

    @classmethod
    def restore(cls, entries: Iterable[LogEntry],
                retention_seconds: float = 365 * 24 * 3600,
                sink: Optional[LogSink] = None) -> "SpiderLog":
        """Rebuild a log from already-persisted entries (crash
        recovery).  The entries are adopted as-is — they are *not*
        re-appended to the sink."""
        log = cls(retention_seconds=retention_seconds, sink=sink)
        log._entries = list(entries)
        log._index_commitments()
        if log._entries:
            log._head = log._entries[-1].chain
            log._next_index = log._entries[-1].index + 1
        return log

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    @overload
    def __getitem__(self, position: int) -> LogEntry: ...

    @overload
    def __getitem__(self, position: slice) -> List[LogEntry]: ...

    def __getitem__(self, position: Union[int, slice]
                    ) -> Union[LogEntry, List[LogEntry]]:
        """The entry, or a list of them, at list positions (not entry
        indices)."""
        return self._entries[position]

    @property
    def head(self) -> bytes:
        return self._head

    def stamp(self, t: float) -> float:
        """``t``, or the last stamp if ``t`` is behind it (a restarted
        clock can be): stamps may repeat but never decrease."""
        if self._entries and t < self._entries[-1].timestamp:
            return self._entries[-1].timestamp
        return t

    def append(self, timestamp: float, kind: EntryKind,
               payload: object) -> LogEntry:
        timestamp = self.stamp(timestamp)
        entry_bytes = encode_entry(kind, timestamp, payload)
        chain = chain_step(self._head, entry_bytes)
        entry = new_entry(self._next_index, timestamp, kind, payload,
                          len(entry_bytes), chain)
        if self.sink is not None:
            # Durable before visible: a sink failure leaves the
            # in-memory log exactly as it was.
            self.sink.append(entry, entry_bytes)
        self._entries.append(entry)
        self._head = chain
        self._next_index = entry.index + 1
        if kind is EntryKind.COMMITMENT:
            self._commitments.setdefault(time_bytes(timestamp),
                                         entry.index)
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

    def index_after(self, t: float) -> int:
        """The index of the first entry stamped after ``t`` (or the next
        one to assign): a view at ``t``'s replay cut, by bisection."""
        position = bisect_right(self._entries, t, key=attrgetter("timestamp"))
        return self._next_index - len(self._entries) + position

    def of_kind(self, *kinds: EntryKind) -> List[LogEntry]:
        wanted = set(kinds)
        return [e for e in self._entries if e.kind in wanted]

    def commitment_at(self, t: float) -> Optional[LogEntry]:
        """The commitment logged at ``t`` on the millisecond grid, the
        resolution its broadcast carries its commit time at; the first
        one, should two share a millisecond.  Found through the index
        :meth:`append`, :meth:`restore` and :meth:`trim` keep, and read
        from the entry list, so it is the entry the log holds now."""
        index = self._commitments.get(time_bytes(t))
        if index is None:
            return None
        return self._entries[index - self._entries[0].index]

    def _index_commitments(self) -> None:
        """Index every COMMITMENT entry held, the first per millisecond
        first."""
        self._commitments = {}
        for entry in self._entries:
            if entry.kind is EntryKind.COMMITMENT:
                self._commitments.setdefault(time_bytes(entry.timestamp),
                                             entry.index)

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
        bytes are reported per kind."""
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
        # A commitment that shared its millisecond with a dropped one
        # now owns the key.
        self._index_commitments()
        by_kind = _bytes_by_kind(dropped)
        if self.sink is not None:
            self.sink.trim(self._entries[0].index)
        return TrimReport(entries=len(dropped),
                          bytes_reclaimed=sum(by_kind.values()),
                          bytes_by_kind=by_kind)

    # ------------------------------------------------------------------
    # Accounting (Section 7.7)

    def bytes_by_kind(self) -> Dict[str, int]:
        """The §7.7 account: entry bytes held per :func:`storage_kind`
        (log, commitments, checkpoints)."""
        return _bytes_by_kind(self._entries)

    def total_bytes(self, *kinds: EntryKind) -> int:
        if kinds:
            wanted = set(kinds)
            return sum(e.size_bytes for e in self._entries
                       if e.kind in wanted)
        return sum(e.size_bytes for e in self._entries)


def encode_log(log: SpiderLog) -> bytes:
    """The whole log in canonical form (entry count + entries)."""
    w = _Writer()
    w.u32(len(log))
    for entry in log:
        w.raw(encode_log_entry(entry))
    return w.getvalue()


def log_digest(log: SpiderLog) -> str:
    """Short hex fingerprint of the canonical log bytes."""
    return digest(encode_log(log)).hex()
