"""Canonical byte serialization of a recorder's evidence log.

The acceptance bar for the runtime layer is *byte-identical* evidence
logs for the same scripted exchange over different transports.  This
module defines the canonical form: every entry as
``kind | timestamp_ms | payload`` with the payload encoded through the
wire codec (messages), the seed+root pair (commitments), or a sorted
canonical dump of the routing state (checkpoints).  Two logs that
serialize identically recorded the same protocol history.

These bytes *are* the entry everywhere else: :meth:`repro.spider.log.
SpiderLog.append` encodes once through :func:`encode_entry`, chains
``H(prev | entry_bytes)`` over the result and hands the same bytes to
the durable store (:mod:`repro.store`), which frames them unchanged.
:func:`decode_log_entry` is the strict inverse, used by crash recovery
to rebuild the in-memory objects after the chain has been checked.  Every
entry kind round-trips: ``decode_log_entry(encode_log_entry(e))``
reproduces ``(kind, timestamp, payload)`` exactly, and malformed bytes
fail closed as :class:`~repro.runtime.codec.CodecError`.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple, Union

from ..bgp.prefix import Prefix
from ..bgp.route import Route
from ..crypto.hashing import digest
from ..spider.checkpoint import RoutingState
from ..spider.log import EntryKind, LogEntry, SpiderLog
from ..spider.wire import SpiderAck, SpiderAnnounce, SpiderWithdraw
from .codec import CodecError, _Reader, _Writer, _read_prefix, \
    _read_route, _write_prefix, _write_route, decode_message, \
    encode_message

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


def _decode_state(data: Union[bytes, memoryview]) -> RoutingState:
    """Strict inverse of :func:`_encode_state`."""
    r = _Reader(data)
    state = RoutingState()
    for label, tables in ((b"I", state.imports), (b"E", state.exports)):
        if r.raw(1) != label:
            raise CodecError(f"routing state misses section {label!r}")
        for _ in range(r.u32()):
            neighbor = r.u32()
            if neighbor in tables:
                raise CodecError(
                    f"duplicate neighbor {neighbor} in routing state")
            table: Dict[Prefix, Route] = {}
            tables[neighbor] = table
            for _ in range(r.u32()):
                prefix = _read_prefix(r)
                if prefix in table:
                    raise CodecError(
                        f"duplicate prefix in neighbor {neighbor} table")
                table[prefix] = _read_route(r)
    if r.raw(1) != b"O":
        raise CodecError("routing state misses section b'O'")
    for _ in range(r.u32()):
        prefix = _read_prefix(r)
        if prefix in state.origins:
            raise CodecError("duplicate origin prefix in routing state")
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


def decode_log_entry(data: Union[bytes, bytearray, memoryview]
                     ) -> Tuple[EntryKind, float, object]:
    """Strict inverse of :func:`encode_log_entry`.

    Returns ``(kind, timestamp, payload)``; the index and chain value
    that complete a :class:`~repro.spider.log.LogEntry` travel outside
    the canonical bytes (the durable store frames them alongside).  Fails
    closed: unknown kind tags, payload/kind type mismatches, truncation
    and trailing bytes all raise :class:`CodecError`.
    """
    r = _Reader(data)
    tag = r.u8()
    kind = _KINDS_BY_TAG.get(tag)
    if kind is None:
        raise CodecError(f"unknown log entry kind tag {tag:#x}")
    timestamp = r.time_ms()
    payload: object
    if kind is EntryKind.COMMITMENT:
        seed = r.blob16()
        root = r.blob16()
        payload = {"seed": seed, "root": root}
    elif kind is EntryKind.CHECKPOINT:
        payload = _decode_state(r.window(r.u32()))
    else:
        n = r.u32()
        payload = decode_message(r.window(n))
        expected_type = _KIND_MESSAGE_TYPES[kind]
        if not isinstance(payload, expected_type):
            raise CodecError(
                f"{kind.value} entry carries a "
                f"{type(payload).__name__}, expected "
                f"{expected_type.__name__}")
    r.expect_end()
    return kind, timestamp, payload


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
