"""Deterministic binary codec for SPIDeR wire messages.

The in-memory message objects of :mod:`repro.spider.wire` become real
bytes here: every message type has a tagged, versioned encoding with
``decode(encode(m)) == m`` exactly.  Two properties matter:

* **Determinism** — the same message always encodes to the same bytes,
  on any host, so evidence logs captured on different transports can be
  compared byte for byte (the two-process acceptance test does exactly
  that).
* **Strictness** — a decoder that guesses invites parsing differentials
  between honest nodes, which an adversary can convert into
  he-said/she-said disputes.  Every structural violation (bad version,
  unknown tag, short buffer, trailing bytes, out-of-range field) raises
  :class:`CodecError`; nothing is silently clamped or skipped.

Timestamps are encoded through :func:`repro.spider.wire.time_bytes`,
the millisecond grid the signature payloads use, so a decoded message
still validates even though sub-millisecond detail is gone.  A decoded
millisecond count at or past :data:`~repro.spider.wire.TIME_MS_LIMIT`
is refused like any other out-of-range field.

The decode path is the runtime's hot loop (framing hands it one buffer
per message at wire rate), so it is built for throughput: the
:class:`_Reader` walks a single ``memoryview`` with pre-compiled
:class:`struct.Struct` instances — no intermediate slicing, explicit
bounds checks (``struct.error`` never escapes), and only terminal
fields (digests, signature blobs, payloads) materialize ``bytes``.
Message objects are built via ``__new__`` plus direct slot-descriptor
writes; the layout assertions next to the setters make a field rename
or reorder fail at import time rather than decode time.

A batch-signed :class:`~repro.crypto.signatures.Signed` carries its
whole batch's digest list, so every member of a burst repeats the same
``20·n`` bytes.  They are read as one slice and written as one join,
and decoding maps equal slices to one shared
:class:`~repro.crypto.signatures.BatchDigests`, so a burst's members
cost O(1) each to decode and hold, and RSA checks its root once.  The
list also holds the batch signature, which members with equal bytes
share (:func:`_read_signed`), and a message's signers and its route's
neighbor share its sender's int object when equal.

A received update is logged, and an ACK is logged and then sent, so
the same object reaches :func:`encode_message` right after it was
decoded or encoded.  A small memo keyed by object identity hands back
the frame it came from (see :data:`_FRAME_MEMO_BYTES`).  That is the
same bytes a fresh encode would give, because decoding is one-to-one
on what it accepts and the messages are immutable.  For the same
reason a decoded bit proof carries the slice of the frame it was read
from (``MttBitProof.encoded``), so checking its signature encodes
nothing.  A message does not carry its frame the same way, because the
log keeps every message it logs and the frame would stay with it
(+11 % peak RSS on e2e's ``flood_batch``); the memo stays bounded.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, NoReturn, Tuple, Union

from ..bgp.prefix import Prefix, PrefixError
from ..bgp.route import Route
from ..crypto.hashing import DIGEST_SIZE, constant_time_eq
from ..crypto.signatures import BatchDigests, Signed
from ..mtt.proofs import MttBitProof, PathStep
from .wire import TIME_MS_LIMIT, SpiderAck, SpiderAnnounce, \
    SpiderBitProof, SpiderCommitment, SpiderWithdraw, time_bytes

#: Bumped whenever an encoding changes shape; decoders reject other
#: versions outright rather than guessing.
WIRE_VERSION = 1

TAG_ANNOUNCE = 0x01
TAG_WITHDRAW = 0x02
TAG_ACK = 0x03
TAG_COMMITMENT = 0x04
TAG_BITPROOF = 0x05

_FLAG_REANNOUNCE = 0x01
_FLAG_UNDERLYING = 0x02

#: Pre-compiled field groups.  Each struct covers a maximal run of
#: fixed-width fields so one ``unpack_from`` replaces several
#: ``int.from_bytes`` calls and their intermediate slices.
_S_HEAD = struct.Struct(">BB")       # version | tag
_S_H = struct.Struct(">H")           # u16
_S_I = struct.Struct(">I")           # u32
_S_Q = struct.Struct(">Q")           # u64 (milliseconds)
_S_IH = struct.Struct(">IH")         # u32 + u16 length prefix
_S_HI = struct.Struct(">HI")         # batch count | batch index
_S_IQ = struct.Struct(">IQ")         # elector | commit_time
_S_IIQ = struct.Struct(">IIQ")       # two ids | timestamp
_S_BIIQ = struct.Struct(">BIIQ")     # flags | sender | receiver | ts
_S_IB = struct.Struct(">IB")         # class_index | bit
_S_HH = struct.Struct(">HH")         # n_children | child_index


#: Decoded batch digest lists, keyed by their bytes: the members of one
#: burst share one list, and so the verdict RSA gave its root.  The table
#: is cleared wholesale once it holds this many digests, so a peer that
#: never repeats a list costs bounded memory (the idiom of
#: ``Prefix.from_bytes``'s intern table, counted in digests because one
#: list may fill a frame).  Every TCP transport decodes on its own
#: thread, so an insert holds the lock.
_DIGEST_LIST_LIMIT = 1 << 14
_DIGEST_LISTS: Dict[bytes, BatchDigests] = {}
_digests_interned = 0
_DIGEST_LISTS_LOCK = threading.Lock()


#: The frames of the announces, withdrawals and ACKs most recently
#: decoded or encoded, keyed by ``id`` of the message.  Each entry
#: holds its message, so that ``id`` is not reused while it is listed.
#: At most this many frame bytes are kept, oldest out first; every TCP
#: transport decodes on its own thread, so a change holds the lock.
#: Recovery (:func:`repro.spider.log.decode_log_entry`) does not fill it.
_FRAME_MEMO_BYTES = 256 * 1024
_FRAMES: OrderedDict[int, Tuple[object, bytes]] = OrderedDict()
_frame_bytes_held = 0
_FRAMES_LOCK = threading.Lock()


class CodecError(ValueError):
    """Raised for any malformed, truncated, or non-canonical encoding."""


def _seconds(ms: int) -> float:
    """A decoded millisecond count as the timestamp it encodes."""
    if ms >= TIME_MS_LIMIT:
        raise CodecError(f"timestamp of {ms} ms is past the millisecond "
                         "grid")
    return ms / 1000.0


class _Writer:
    __slots__ = ("_parts",)

    def __init__(self):
        self._parts = bytearray()

    def u8(self, value: int) -> None:
        if not 0 <= value < (1 << 8):
            raise CodecError(f"u8 out of range: {value}")
        self._parts.append(value)

    def u16(self, value: int) -> None:
        if not 0 <= value < (1 << 16):
            raise CodecError(f"u16 out of range: {value}")
        self._parts += value.to_bytes(2, "big")

    def u32(self, value: int) -> None:
        if not 0 <= value < (1 << 32):
            raise CodecError(f"u32 out of range: {value}")
        self._parts += value.to_bytes(4, "big")

    def time_ms(self, timestamp: float) -> None:
        try:
            self._parts += time_bytes(timestamp)
        except ValueError as exc:
            raise CodecError(str(exc)) from exc

    def blob16(self, data: bytes) -> None:
        self.u16(len(data))
        self._parts += data

    def raw(self, data: bytes) -> None:
        self._parts += data

    def getvalue(self) -> bytes:
        return bytes(self._parts)


class _Reader:
    """Zero-copy cursor over one message buffer.

    ``bytes`` input is kept as-is — slicing a ``bytes`` object is the
    cheapest way to materialize the terminal fields that must outlive
    the buffer.  Anything else (``memoryview``, ``bytearray``) is
    wrapped in a single ``memoryview`` once, integer fields are
    unpacked in place, and only :meth:`raw`/:meth:`blob16` ever copy.
    Every read is bounds-checked up front so a truncated buffer fails
    as :class:`CodecError`, never as ``struct.error`` or ``IndexError``.
    """

    __slots__ = ("_buf", "_pos", "_len")

    def __init__(self, data: Union[bytes, bytearray, memoryview]):
        if isinstance(data, bytes):
            self._buf: Union[bytes, memoryview] = data
        else:
            self._buf = memoryview(data)
        self._pos = 0
        self._len = len(data)

    def _short(self, wanted: int) -> NoReturn:
        raise CodecError(
            f"truncated: wanted {wanted} bytes at offset {self._pos}, "
            f"only {self._len - self._pos} remain")

    def unpack(self, fmt: struct.Struct) -> Tuple[int, ...]:
        """Read one pre-compiled fixed-width field group."""
        pos = self._pos
        end = pos + fmt.size
        if end > self._len:
            self._short(fmt.size)
        self._pos = end
        return fmt.unpack_from(self._buf, pos)

    def u8(self) -> int:
        pos = self._pos
        if pos >= self._len:
            self._short(1)
        self._pos = pos + 1
        value: int = self._buf[pos]
        return value

    def u16(self) -> int:
        pos = self._pos
        end = pos + 2
        if end > self._len:
            self._short(2)
        self._pos = end
        value: int = _S_H.unpack_from(self._buf, pos)[0]
        return value

    def u32(self) -> int:
        pos = self._pos
        end = pos + 4
        if end > self._len:
            self._short(4)
        self._pos = end
        value: int = _S_I.unpack_from(self._buf, pos)[0]
        return value

    def time_ms(self) -> float:
        pos = self._pos
        end = pos + 8
        if end > self._len:
            self._short(8)
        self._pos = end
        return _seconds(_S_Q.unpack_from(self._buf, pos)[0])

    def blob16(self) -> bytes:
        """Length-prefixed terminal field, one fused bounds-checked read."""
        pos = self._pos
        end = pos + 2
        if end > self._len:
            self._short(2)
        n: int = _S_H.unpack_from(self._buf, pos)[0]
        pos = end
        end = pos + n
        if end > self._len:
            self._pos = pos
            self._short(n)
        self._pos = end
        buf = self._buf
        if isinstance(buf, bytes):
            return buf[pos:end]
        return bytes(buf[pos:end])

    def raw(self, n: int) -> bytes:
        """A terminal field: the one place bytes are materialized."""
        pos = self._pos
        end = pos + n
        if end > self._len:
            self._short(n)
        self._pos = end
        buf = self._buf
        if isinstance(buf, bytes):
            return buf[pos:end]
        return bytes(buf[pos:end])

    def path_steps(self, n: int) -> Tuple[PathStep, ...]:
        """``n`` bit-proof path steps, read in one loop over the buffer.
        A step's header must be there and its child index in range, and
        its 20·n label bytes must be there before a struct is looked up
        for n."""
        buf, pos, end = self._buf, self._pos, self._len
        steps: List[PathStep] = []
        for _ in range(n):
            if pos + 4 > end:
                self._pos = pos
                self._short(4)
            n_children, child_index = _S_HH.unpack_from(buf, pos)
            pos += 4
            if child_index >= n_children:
                raise CodecError("child index beyond child labels")
            size = DIGEST_SIZE * n_children
            if pos + size > end:
                self._pos = pos
                self._short(size)
            step = PathStep.__new__(PathStep)
            _ps_labels(step,
                       _labels_struct(n_children).unpack_from(buf, pos))
            _ps_index(step, child_index)
            steps.append(step)
            pos += size
        self._pos = pos
        return tuple(steps)

    def since(self, start: int) -> bytes:
        """The bytes read from offset ``start`` up to here."""
        buf = self._buf
        if isinstance(buf, bytes):
            return buf[start:self._pos]
        return bytes(buf[start:self._pos])

    def window(self, n: int) -> Union[bytes, memoryview]:
        """A sub-buffer for a nested decoder — zero-copy on views."""
        pos = self._pos
        end = pos + n
        if end > self._len:
            self._short(n)
        self._pos = end
        return self._buf[pos:end]

    def expect_rest(self, n: int) -> None:
        """A declared length ``n`` of a last field must be exactly the
        bytes left, so its decoder can read it in place."""
        left = self._len - self._pos
        if n != left:
            raise CodecError(f"declared {n} bytes, {left} remain")

    def expect_end(self) -> None:
        if self._pos != self._len:
            raise CodecError(
                f"{self._len - self._pos} trailing bytes")


# ----------------------------------------------------------------------
# Raw constructors for the decode path
#
# Decode builds each message with ``cls.__new__`` plus the bound slot
# descriptors below — the generated frozen-dataclass ``__init__`` costs
# one ``object.__setattr__`` dispatch per field, which at 100k+ msgs/s
# is most of the decode budget.  None of these classes has a
# ``__post_init__`` (asserted here), so no invariant is skipped; the
# layout check makes any field rename/reorder an import-time failure.

def _slot_setters(cls: Any, *names: str) -> Tuple[Any, ...]:
    actual = tuple(f.name for f in dataclasses.fields(cls))
    if actual != names:
        raise AssertionError(
            f"{cls.__name__} field layout changed: {actual} — update "
            "the codec's raw constructors to match")
    if hasattr(cls, "__post_init__"):
        raise AssertionError(
            f"{cls.__name__} grew a __post_init__ that the codec's raw "
            "constructors would skip")
    return tuple(cls.__dict__[name].__set__ for name in names)


(_sg_signer, _sg_payload, _sg_signature, _sg_digests, _sg_index) = \
    _slot_setters(Signed, "signer", "payload", "signature",
                  "batch_digests", "batch_index")
(_an_sender, _an_receiver, _an_timestamp, _an_route, _an_underlying,
 _an_route_sig, _an_envelope, _an_reannounce) = _slot_setters(
    SpiderAnnounce, "sender", "receiver", "timestamp", "route",
    "underlying", "route_sig", "envelope", "reannounce")
(_wd_sender, _wd_receiver, _wd_timestamp, _wd_prefix, _wd_envelope) = \
    _slot_setters(SpiderWithdraw, "sender", "receiver", "timestamp",
                  "prefix", "envelope")
(_ak_acker, _ak_sender, _ak_timestamp, _ak_hash, _ak_envelope) = \
    _slot_setters(SpiderAck, "acker", "sender", "timestamp",
                  "message_hash", "envelope")
(_cm_elector, _cm_time, _cm_root, _cm_envelope) = \
    _slot_setters(SpiderCommitment, "elector", "commit_time", "root",
                  "envelope")
(_bp_elector, _bp_recipient, _bp_time, _bp_proof, _bp_envelope) = \
    _slot_setters(SpiderBitProof, "elector", "recipient", "commit_time",
                  "proof", "envelope")
(_mp_prefix, _mp_class, _mp_bit, _mp_blinding, _mp_steps,
 _mp_encoded) = _slot_setters(MttBitProof, "prefix", "class_index", "bit",
                              "blinding", "steps", "encoded")
(_ps_labels, _ps_index) = _slot_setters(PathStep, "child_labels",
                                        "child_index")


# ----------------------------------------------------------------------
# Shared sub-encodings

def _write_signed(w: _Writer, signed: Signed) -> None:
    w.u32(signed.signer)
    w.blob16(signed.payload)
    w.blob16(signed.signature)
    digests = signed.batch_digests
    w.u16(len(digests))
    if any(len(d) != DIGEST_SIZE for d in digests):
        raise CodecError("batch digest has wrong length")
    w.raw(b"".join(digests))
    w.u32(signed.batch_index)


def _digest_list(blob: bytes) -> BatchDigests:
    """The shared list of the ``20·n`` bytes of one digest list."""
    global _digests_interned
    digests = _DIGEST_LISTS.get(blob)
    if digests is None:
        digests = BatchDigests(blob[i:i + DIGEST_SIZE]
                               for i in range(0, len(blob), DIGEST_SIZE))
        with _DIGEST_LISTS_LOCK:
            if _digests_interned + len(digests) > _DIGEST_LIST_LIMIT:
                _DIGEST_LISTS.clear()
                _digests_interned = 0
            if blob not in _DIGEST_LISTS:
                _DIGEST_LISTS[blob] = digests
                _digests_interned += len(digests)
    return digests


def _read_signed(r: _Reader, owner: int) -> Signed:
    """One signed envelope.  ``owner`` is the message's own sender (or
    acker, or elector): a signer equal to it holds that int object.

    A batched member holds the signature its shared digest list holds
    when the bytes are equal; otherwise it keeps its own bytes, and they
    become the list's.  Only equal bytes are shared, so a member holds
    what it read, and a forged member never holds a genuine signature
    (DESIGN.md §3c, "Per-batch cost model")."""
    signer, n_payload = r.unpack(_S_IH)
    if signer == owner:
        signer = owner
    payload = r.raw(n_payload)
    signature = r.blob16()
    # Speculatively read batch count and batch index together: with no
    # batch digests (the common case) the index directly follows the
    # count, so one unpack covers both; otherwise the second field was
    # really the first digest's opening bytes — rewind it.
    n_batch, batch_index = r.unpack(_S_HI)
    digests: Tuple[bytes, ...]
    if n_batch:
        r._pos -= 4
        shared = _digest_list(r.raw(DIGEST_SIZE * n_batch))
        batch_index = r.u32()
        if batch_index >= n_batch:
            raise CodecError("batch index beyond digest list")
        held = shared.signature
        if held is not None and constant_time_eq(held, signature):
            signature = held
        else:
            shared.signature = signature
        digests = shared
    else:
        digests = ()
        if batch_index:
            raise CodecError("batch index without batch digests")
    signed = Signed.__new__(Signed)
    _sg_signer(signed, signer)
    _sg_payload(signed, payload)
    _sg_signature(signed, signature)
    _sg_digests(signed, digests)
    _sg_index(signed, batch_index)
    return signed


def _write_route(w: _Writer, route: Route) -> None:
    # neighbor is receiver-local and deliberately outside the canonical
    # signing bytes; the codec carries it alongside so decode(encode(m))
    # reproduces the exact in-memory object.
    w.u32(route.neighbor)
    try:
        w.blob16(route.to_bytes())
    except ValueError as exc:
        raise CodecError(f"unencodable route: {exc}") from exc


def _read_route(r: _Reader, sender: int) -> Route:
    neighbor, n = r.unpack(_S_IH)
    if neighbor == sender:
        neighbor = sender
    try:
        return Route.from_bytes(r.window(n), neighbor)
    except (ValueError, PrefixError) as exc:  # includes Origin errors
        raise CodecError(f"malformed route: {exc}") from exc


def _write_prefix(w: _Writer, prefix: Prefix) -> None:
    w.raw(prefix.to_bytes())


def _read_prefix(r: _Reader) -> Prefix:
    try:
        return Prefix.from_bytes(r.raw(5))
    except PrefixError as exc:
        raise CodecError(f"malformed prefix: {exc}") from exc


def _write_bit_proof(w: _Writer, proof: MttBitProof) -> None:
    # The body is the proof's own byte form, the one its signature
    # covers; _read_bit_proof below is its inverse.
    try:
        w.raw(proof.encode())
    except ValueError as exc:
        raise CodecError(f"unencodable proof: {exc}") from exc


@functools.lru_cache(maxsize=8)
def _labels_struct(n: int) -> struct.Struct:
    """One path step's ``n`` child labels as one struct."""
    return struct.Struct(f"{DIGEST_SIZE}s" * n)


def _read_bit_proof(r: _Reader) -> MttBitProof:
    start = r._pos
    prefix = _read_prefix(r)
    class_index, bit = r.unpack(_S_IB)
    if bit not in (0, 1):
        raise CodecError(f"proof bit must be 0 or 1, got {bit}")
    blinding = r.raw(DIGEST_SIZE)
    steps = r.path_steps(r.u16())
    proof = MttBitProof.__new__(MttBitProof)
    _mp_prefix(proof, prefix)
    _mp_class(proof, class_index)
    _mp_bit(proof, bit)
    _mp_blinding(proof, blinding)
    _mp_steps(proof, steps)
    # The proof carries the bytes it was read from: they are what
    # encode() would build, since every accepted frame re-encodes to
    # itself (tests/runtime/test_codec_roundtrip.py).
    _mp_encoded(proof, r.since(start))
    return proof


# ----------------------------------------------------------------------
# Per-message bodies

def _encode_announce(w: _Writer, msg: SpiderAnnounce) -> None:
    flags = 0
    if msg.reannounce:
        flags |= _FLAG_REANNOUNCE
    if msg.underlying is not None:
        flags |= _FLAG_UNDERLYING
    w.u8(flags)
    w.u32(msg.sender)
    w.u32(msg.receiver)
    w.time_ms(msg.timestamp)
    _write_route(w, msg.route)
    if msg.underlying is not None:
        _write_signed(w, msg.underlying)
    _write_signed(w, msg.route_sig)
    _write_signed(w, msg.envelope)


def _decode_announce(r: _Reader) -> SpiderAnnounce:
    flags, sender, receiver, ms = r.unpack(_S_BIIQ)
    if flags & ~(_FLAG_REANNOUNCE | _FLAG_UNDERLYING):
        raise CodecError(f"unknown announce flags {flags:#x}")
    route = _read_route(r, sender)
    underlying = _read_signed(r, sender) \
        if flags & _FLAG_UNDERLYING else None
    route_sig = _read_signed(r, sender)
    envelope = _read_signed(r, sender)
    msg = SpiderAnnounce.__new__(SpiderAnnounce)
    _an_sender(msg, sender)
    _an_receiver(msg, receiver)
    _an_timestamp(msg, _seconds(ms))
    _an_route(msg, route)
    _an_underlying(msg, underlying)
    _an_route_sig(msg, route_sig)
    _an_envelope(msg, envelope)
    _an_reannounce(msg, bool(flags & _FLAG_REANNOUNCE))
    return msg


def _encode_withdraw(w: _Writer, msg: SpiderWithdraw) -> None:
    w.u32(msg.sender)
    w.u32(msg.receiver)
    w.time_ms(msg.timestamp)
    _write_prefix(w, msg.prefix)
    _write_signed(w, msg.envelope)


def _decode_withdraw(r: _Reader) -> SpiderWithdraw:
    sender, receiver, ms = r.unpack(_S_IIQ)
    prefix = _read_prefix(r)
    envelope = _read_signed(r, sender)
    msg = SpiderWithdraw.__new__(SpiderWithdraw)
    _wd_sender(msg, sender)
    _wd_receiver(msg, receiver)
    _wd_timestamp(msg, _seconds(ms))
    _wd_prefix(msg, prefix)
    _wd_envelope(msg, envelope)
    return msg


def _encode_ack(w: _Writer, msg: SpiderAck) -> None:
    w.u32(msg.acker)
    w.u32(msg.sender)
    w.time_ms(msg.timestamp)
    w.blob16(msg.message_hash)
    _write_signed(w, msg.envelope)


def _decode_ack(r: _Reader) -> SpiderAck:
    acker, sender, ms = r.unpack(_S_IIQ)
    message_hash = r.blob16()
    envelope = _read_signed(r, acker)
    msg = SpiderAck.__new__(SpiderAck)
    _ak_acker(msg, acker)
    _ak_sender(msg, sender)
    _ak_timestamp(msg, _seconds(ms))
    _ak_hash(msg, message_hash)
    _ak_envelope(msg, envelope)
    return msg


def _encode_commitment(w: _Writer, msg: SpiderCommitment) -> None:
    w.u32(msg.elector)
    w.time_ms(msg.commit_time)
    w.blob16(msg.root)
    _write_signed(w, msg.envelope)


def _decode_commitment(r: _Reader) -> SpiderCommitment:
    elector, ms = r.unpack(_S_IQ)
    root = r.blob16()
    envelope = _read_signed(r, elector)
    msg = SpiderCommitment.__new__(SpiderCommitment)
    _cm_elector(msg, elector)
    _cm_time(msg, _seconds(ms))
    _cm_root(msg, root)
    _cm_envelope(msg, envelope)
    return msg


def _encode_bit_proof_msg(w: _Writer, msg: SpiderBitProof) -> None:
    w.u32(msg.elector)
    w.u32(msg.recipient)
    w.time_ms(msg.commit_time)
    _write_bit_proof(w, msg.proof)
    _write_signed(w, msg.envelope)


def _decode_bit_proof_msg(r: _Reader) -> SpiderBitProof:
    elector, recipient, ms = r.unpack(_S_IIQ)
    proof = _read_bit_proof(r)
    envelope = _read_signed(r, elector)
    msg = SpiderBitProof.__new__(SpiderBitProof)
    _bp_elector(msg, elector)
    _bp_recipient(msg, recipient)
    _bp_time(msg, _seconds(ms))
    _bp_proof(msg, proof)
    _bp_envelope(msg, envelope)
    return msg


_ENCODERS: Tuple[Tuple[type, int,
                       Callable[["_Writer", Any], None]], ...] = (
    (SpiderAnnounce, TAG_ANNOUNCE, _encode_announce),
    (SpiderWithdraw, TAG_WITHDRAW, _encode_withdraw),
    (SpiderAck, TAG_ACK, _encode_ack),
    (SpiderCommitment, TAG_COMMITMENT, _encode_commitment),
    (SpiderBitProof, TAG_BITPROOF, _encode_bit_proof_msg),
)

_DECODERS: Dict[int, Callable[[_Reader], object]] = {
    TAG_ANNOUNCE: _decode_announce,
    TAG_WITHDRAW: _decode_withdraw,
    TAG_ACK: _decode_ack,
    TAG_COMMITMENT: _decode_commitment,
    TAG_BITPROOF: _decode_bit_proof_msg,
}


_MEMOIZED = (SpiderAnnounce, SpiderWithdraw, SpiderAck)


def _remember(message: object, frame: bytes) -> None:
    global _frame_bytes_held
    size = len(frame)
    if size > _FRAME_MEMO_BYTES:
        return
    with _FRAMES_LOCK:
        held = _FRAMES.pop(id(message), None)
        if held is not None:
            _frame_bytes_held -= len(held[1])
        while _frame_bytes_held + size > _FRAME_MEMO_BYTES:
            _frame_bytes_held -= len(_FRAMES.popitem(last=False)[1][1])
        _FRAMES[id(message)] = (message, frame)
        _frame_bytes_held += size


def encode_message(message: object) -> bytes:
    """Serialize one SPIDeR wire message (version byte included).

    Everything encoded here leaves the node, so SPDR006 requires any
    private input (policy, seeds, blinding, keys) to have passed a
    commitment/proof/signature declassifier first.
    """
    held = _FRAMES.get(id(message))
    if held is not None and held[0] is message:
        return held[1]
    for klass, tag, encoder in _ENCODERS:
        if isinstance(message, klass):
            w = _Writer()
            w.u8(WIRE_VERSION)
            w.u8(tag)
            encoder(w, message)
            frame = w.getvalue()
            if isinstance(message, _MEMOIZED):
                _remember(message, frame)
            return frame
    raise CodecError(
        f"not a SPIDeR wire message: {type(message).__name__}")


def decode_message(
        data: Union[bytes, bytearray, memoryview]) -> object:
    """Strict inverse of :func:`encode_message`.

    Accepts ``bytes`` or any byte buffer (``memoryview``,
    ``bytearray``): the framing layer hands this function zero-copy
    views into its receive buffer, and nothing on the decode path
    forces a copy of the whole message.  An announce, withdrawal or
    ACK keeps a copy of its frame in the memo, for the log to reuse.
    """
    message = _read_message(_Reader(data))
    if isinstance(message, _MEMOIZED):
        _remember(message, bytes(data))
    return message


def _read_message(r: _Reader) -> object:
    """The message that fills the rest of ``r``, without the memo: a
    log entry's reader decodes its message in place
    (:func:`repro.spider.log.decode_log_entry`)."""
    if r._len - r._pos < _S_HEAD.size:
        raise CodecError("message shorter than version + tag header")
    version, tag = r.unpack(_S_HEAD)
    if version != WIRE_VERSION:
        raise CodecError(f"unsupported wire version {version}")
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise CodecError(f"unknown message tag {tag:#x}")
    message = decoder(r)
    r.expect_end()
    return message
