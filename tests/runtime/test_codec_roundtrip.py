"""Property-based round-trip tests for the binary wire codec.

For every message type: ``decode(encode(m)) == m`` exactly.  And the
strictness properties the codec promises: truncated frames always raise
:class:`CodecError`, and a corrupted frame either raises
:class:`CodecError` or decodes to something *different* — it never
mis-parses back into the original, and never escapes with a foreign
exception type.
"""

import dataclasses
import sys
import threading
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import DIGEST_SIZE
from repro.crypto.signatures import Signed
from repro.spider import codec
from repro.spider.codec import CodecError, WIRE_VERSION, \
    decode_message, encode_message
from repro.spider.log import EntryKind, decode_log_entry, encode_entry
from repro.spider.wire import TIME_MS_LIMIT, SpiderAck, SpiderAnnounce, \
    SpiderBitProof, SpiderCommitment, SpiderWithdraw, time_bytes

# Message strategies live in the shared suite-wide module so the
# corruption-fuzz and campaign suites draw the exact same shapes.
from tests import strategies

messages = strategies.messages()


def _fresh_encode(message):
    """:func:`encode_message` run past the frame memo and past a bit
    proof's carried bytes, so the encoders themselves produce the bytes
    even for an object the memo holds or a proof the codec decoded."""
    if isinstance(message, SpiderBitProof):
        message = dataclasses.replace(
            message, proof=dataclasses.replace(message.proof))
    with mock.patch.object(codec, "_FRAMES", OrderedDict()), \
            mock.patch.object(codec, "_frame_bytes_held", 0):
        return encode_message(message)


# ----------------------------------------------------------------------
# Round trips

@settings(max_examples=150, deadline=None)
@given(messages)
def test_roundtrip_exact(message):
    assert decode_message(encode_message(message)) == message


@settings(max_examples=50, deadline=None)
@given(messages)
def test_encoding_is_deterministic(message):
    assert _fresh_encode(message) == _fresh_encode(message)
    # What the memo lends is what the encoders give.
    assert encode_message(message) == _fresh_encode(message)


# ----------------------------------------------------------------------
# Strictness

@settings(max_examples=100, deadline=None)
@given(messages, st.data())
def test_truncation_always_raises(message, data):
    encoded = encode_message(message)
    cut = data.draw(st.integers(min_value=0,
                                max_value=len(encoded) - 1))
    with pytest.raises(CodecError):
        decode_message(encoded[:cut])


@settings(max_examples=150, deadline=None)
@given(messages, st.data())
def test_corruption_never_misparses(message, data):
    """A flipped byte either raises CodecError or yields a different
    message — and nothing else (no IndexError, struct garbage, ...)."""
    encoded = bytearray(encode_message(message))
    pos = data.draw(st.integers(0, len(encoded) - 1))
    flip = data.draw(st.integers(1, 255))
    encoded[pos] ^= flip
    try:
        decoded = decode_message(bytes(encoded))
    except CodecError:
        return
    assert decoded != message


@settings(max_examples=50, deadline=None)
@given(messages)
def test_trailing_bytes_rejected(message):
    with pytest.raises(CodecError):
        decode_message(encode_message(message) + b"\x00")


def _sample_ack():
    return SpiderAck(acker=1, sender=2, timestamp=3.0,
                     message_hash=b"h" * DIGEST_SIZE,
                     envelope=Signed(signer=1, payload=b"p",
                                     signature=b"s"))


def test_unknown_version_rejected():
    encoded = bytearray(encode_message(_sample_ack()))
    encoded[0] = WIRE_VERSION + 1
    with pytest.raises(CodecError):
        decode_message(bytes(encoded))


def test_unknown_tag_rejected():
    encoded = bytearray(encode_message(_sample_ack()))
    encoded[1] = 0x7F
    with pytest.raises(CodecError):
        decode_message(bytes(encoded))


def test_non_wire_object_rejected():
    with pytest.raises(CodecError):
        encode_message("not a message")


def test_negative_timestamp_rejected_on_encode():
    import dataclasses
    bad = dataclasses.replace(_sample_ack(), timestamp=-1.0)
    with pytest.raises(CodecError):
        encode_message(bad)


# ----------------------------------------------------------------------
# The millisecond grid and canonical frames

#: Where each message type's u64 millisecond stamp sits in its frame:
#: after version and tag, the announce's flags and one or two ids.
_STAMP_AT = {SpiderAnnounce: 11, SpiderWithdraw: 10, SpiderAck: 10,
             SpiderCommitment: 6, SpiderBitProof: 10}

#: Millisecond counts on both sides of the grid's end.
_STAMPS = st.one_of(st.integers(0, TIME_MS_LIMIT - 1),
                    st.integers(TIME_MS_LIMIT, 2**64 - 1),
                    st.sampled_from([TIME_MS_LIMIT - 1, TIME_MS_LIMIT,
                                     2**64 - 1]))


def _stamped(message, ms):
    encoded = bytearray(encode_message(message))
    at = _STAMP_AT[type(message)]
    encoded[at:at + 8] = ms.to_bytes(8, "big")
    return bytes(encoded)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, TIME_MS_LIMIT - 1))
def test_every_grid_point_round_trips_through_seconds(ms):
    assert time_bytes(ms / 1000.0) == ms.to_bytes(8, "big")


def test_the_grid_ends_at_its_limit():
    last = (TIME_MS_LIMIT - 1) / 1000.0
    assert time_bytes(last) == (TIME_MS_LIMIT - 1).to_bytes(8, "big")
    with pytest.raises(ValueError):
        time_bytes(TIME_MS_LIMIT / 1000.0)
    with pytest.raises(CodecError):
        encode_message(dataclasses.replace(
            _sample_ack(), timestamp=TIME_MS_LIMIT / 1000.0))
    entry = encode_entry(EntryKind.COMMITMENT, 1.0,
                         {"seed": b"s", "root": b"r"})
    for ms in (TIME_MS_LIMIT, 2**64 - 1):
        with pytest.raises(CodecError):
            decode_message(_stamped(_sample_ack(), ms))
        # A log entry is kind | t_ms | body.
        with pytest.raises(CodecError):
            decode_log_entry(entry[:1] + ms.to_bytes(8, "big") + entry[9:])


@settings(max_examples=300, deadline=None)
@given(messages, st.data())
def test_every_accepted_frame_re_encodes_to_its_bytes(message, data):
    """Decoding is one-to-one on what it accepts: a frame it takes in,
    bit-flipped or re-stamped anywhere on the u64 range, is the one
    encoding of the message it returns.  The frame memo rests on this,
    so the re-encode bypasses it."""
    if data.draw(st.booleans()):
        frame = _stamped(message, data.draw(_STAMPS))
    else:
        encoded = bytearray(encode_message(message))
        pos = data.draw(st.integers(0, len(encoded) - 1))
        encoded[pos] ^= data.draw(st.integers(1, 255))
        frame = bytes(encoded)
    try:
        decoded = decode_message(frame)
    except CodecError:
        return
    assert _fresh_encode(decoded) == frame


# ----------------------------------------------------------------------
# Batch digest lists

def _batch_ack(digests):
    return SpiderAck(acker=1, sender=2, timestamp=3.0,
                     message_hash=b"h" * DIGEST_SIZE,
                     envelope=Signed(signer=1, payload=b"p",
                                     signature=b"s",
                                     batch_digests=digests,
                                     batch_index=0))


def test_a_digest_of_the_wrong_length_is_refused_on_encode():
    with pytest.raises(CodecError):
        encode_message(_batch_ack((b"d" * DIGEST_SIZE, b"short")))


def test_equal_digest_lists_decode_to_one_tuple():
    digests = (b"a" * DIGEST_SIZE, b"b" * DIGEST_SIZE)
    first, second = (decode_message(encode_message(_batch_ack(digests)))
                     for _ in range(2))
    assert first.envelope.batch_digests == digests
    assert first.envelope.batch_digests is second.envelope.batch_digests


def test_the_digest_list_table_stays_bounded(monkeypatch):
    monkeypatch.setattr(codec, "_DIGEST_LISTS", {})
    monkeypatch.setattr(codec, "_digests_interned", 0)
    for i in range(10_000):
        digests = tuple(i.to_bytes(4, "big") + bytes([j]) * 16
                        for j in range(3))
        decoded = decode_message(encode_message(_batch_ack(digests)))
        assert decoded.envelope.batch_digests == digests
        # Three digests per list.
        assert 3 * len(codec._DIGEST_LISTS) <= codec._DIGEST_LIST_LIMIT
    assert codec._digests_interned == \
        sum(len(d) for d in codec._DIGEST_LISTS.values())
    assert 0 < len(codec._DIGEST_LISTS) < 10_000


def test_the_digest_list_table_counts_right_under_threads(monkeypatch):
    """Every TCP transport decodes on its own thread: concurrent inserts
    (and the clears between them) must not lose a count."""
    monkeypatch.setattr(codec, "_DIGEST_LISTS", {})
    monkeypatch.setattr(codec, "_digests_interned", 0)
    frames = [[encode_message(_batch_ack(tuple(
        bytes([worker]) + i.to_bytes(3, "big") + bytes([j]) * 16
        for j in range(2)))) for i in range(3000)] for worker in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda batch=batch: [
            decode_message(frame) for frame in batch]) for batch in frames]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert codec._digests_interned == \
        sum(len(d) for d in codec._DIGEST_LISTS.values())
    assert codec._digests_interned <= codec._DIGEST_LIST_LIMIT


# ----------------------------------------------------------------------
# Buffer-type polymorphism (the zero-copy decode path)

@settings(max_examples=60, deadline=None)
@given(messages)
def test_roundtrip_across_buffer_types(message):
    """``decode(encode(m)) == m`` whether the frame arrives as bytes,
    bytearray, or a memoryview — including a non-zero-offset view, the
    shape a batched frame decoder actually hands over."""
    encoded = encode_message(message)
    assert decode_message(encoded) == message
    assert decode_message(bytearray(encoded)) == message
    assert decode_message(memoryview(encoded)) == message
    padded = b"\xff" * 3 + encoded
    assert decode_message(memoryview(padded)[3:]) == message


@settings(max_examples=120, deadline=None)
@given(messages, st.data())
def test_memoryview_corruption_raises_only_codec_error(message, data):
    """Truncate, bit-flip, or extend the frame and decode it through
    the memoryview path: the outcome is CodecError or a *different*
    message — never a mis-parse back to the original, never a foreign
    exception (IndexError, struct.error, ...) escaping the reader."""
    encoded = bytearray(encode_message(message))
    op = data.draw(st.sampled_from(["truncate", "flip", "extend"]))
    if op == "truncate":
        cut = data.draw(st.integers(0, len(encoded) - 1))
        with pytest.raises(CodecError):
            decode_message(memoryview(bytes(encoded[:cut])))
        return
    if op == "extend":
        encoded += data.draw(st.binary(min_size=1, max_size=8))
        with pytest.raises(CodecError):
            decode_message(memoryview(bytes(encoded)))
        return
    pos = data.draw(st.integers(0, len(encoded) - 1))
    encoded[pos] ^= data.draw(st.integers(1, 255))
    try:
        decoded = decode_message(memoryview(bytes(encoded)))
    except CodecError:
        return
    assert decoded != message
