"""Property-based round-trip tests for the binary wire codec.

For every message type: ``decode(encode(m)) == m`` exactly.  And the
strictness properties the codec promises: truncated frames always raise
:class:`CodecError`, and a corrupted frame either raises
:class:`CodecError` or decodes to something *different* — it never
mis-parses back into the original, and never escapes with a foreign
exception type.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import DIGEST_SIZE
from repro.crypto.signatures import Signed
from repro.spider.codec import CodecError, WIRE_VERSION, \
    decode_message, encode_message
from repro.spider.wire import SpiderAck

# Message strategies live in the shared suite-wide module so the
# corruption-fuzz and campaign suites draw the exact same shapes.
from tests import strategies

messages = strategies.messages()


# ----------------------------------------------------------------------
# Round trips

@settings(max_examples=150, deadline=None)
@given(messages)
def test_roundtrip_exact(message):
    assert decode_message(encode_message(message)) == message


@settings(max_examples=50, deadline=None)
@given(messages)
def test_encoding_is_deterministic(message):
    assert encode_message(message) == encode_message(message)


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
