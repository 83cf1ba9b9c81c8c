"""Corruption fuzz over every ``to_bytes``/``from_bytes`` pair.

Coverage is *enumerated, not listed*: the test walks every module under
:mod:`repro` and discovers each class that defines both ``to_bytes``
and ``from_bytes`` (inherited ``int`` methods, as on ``IntEnum``, do
not count).  Each discovered pair must have a hypothesis strategy in
:data:`BYTE_PAIR_STRATEGIES`; adding a new wire type without a strategy
fails the registry test, so new types are fuzzed by construction.  The
same construction pins the frame codec: every class registered in
``repro.spider.codec`` must have a message strategy here.

The property under fuzz is the decoder contract enforced statically by
lint rule SPDR003: corrupted input (truncated, bit-flipped, extended)
may only ever raise :class:`ValueError` (including its subclasses
``PrefixError``/``CodecError``) — never ``IndexError``,
``struct.error``, or any other foreign exception — and a successful
decode of corrupted bytes never silently yields the original message.
"""

import dataclasses
import importlib
import pkgutil
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.crypto.signatures import Signed
from repro.spider import codec, log
from repro.spider.log import decode_log_entry, encode_entry
from repro.spider.state import RoutingState
from repro.spider.log import EntryKind
from repro.spider.wire import SpiderAck, SpiderWithdraw
from tests.runtime.test_codec_roundtrip import _fresh_encode
from tests.strategies import ENTRY_PAYLOADS, acks, announces, \
    bit_proofs, commitments, prefixes, routes, routing_states, withdraws

# ----------------------------------------------------------------------
# Discovery


def _defines_pair(klass):
    """True when ``klass`` defines to_bytes AND from_bytes in repro code.

    Methods inherited from builtins (``int.to_bytes`` on enums) do not
    make a wire type; only definitions in a repro-owned base count.
    """
    def repro_defined(attr):
        for base in klass.__mro__:
            if attr in vars(base):
                return base.__module__.startswith("repro.")
        return False
    return repro_defined("to_bytes") and repro_defined("from_bytes")


def discover_byte_pairs():
    """Map qualified name -> class for every to_bytes/from_bytes pair."""
    pairs = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == info.name \
                    and _defines_pair(obj):
                pairs[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return pairs


#: One instance strategy per discovered pair.  ``Route.from_bytes``
#: restores ``neighbor`` as receiver-local state (default 0), so the
#: strategy pins it to keep the round trip exact.
BYTE_PAIR_STRATEGIES = {
    "repro.bgp.prefix.Prefix": prefixes(),
    "repro.bgp.route.Route": routes().map(
        lambda route: dataclasses.replace(route, neighbor=0)),
}

#: One strategy per frame-codec message class (for encode_message /
#: decode_message corruption, complementing tests in
#: test_codec_roundtrip which use a hand-merged strategy).
CODEC_STRATEGIES = {
    "SpiderAnnounce": announces(),
    "SpiderWithdraw": withdraws(),
    "SpiderAck": acks(),
    "SpiderCommitment": commitments(),
    "SpiderBitProof": bit_proofs(),
}


def test_every_byte_pair_has_a_strategy():
    discovered = discover_byte_pairs()
    assert set(discovered) == set(BYTE_PAIR_STRATEGIES), (
        "to_bytes/from_bytes pairs changed; update BYTE_PAIR_STRATEGIES "
        "in this file so the new type is corruption-fuzzed: "
        f"{sorted(set(discovered) ^ set(BYTE_PAIR_STRATEGIES))}")


def test_every_codec_message_has_a_strategy():
    registered = {klass.__name__ for klass, _tag, _enc in codec._ENCODERS}
    assert registered == set(CODEC_STRATEGIES), (
        "codec._ENCODERS changed; update CODEC_STRATEGIES in this file "
        "so the new message type is corruption-fuzzed: "
        f"{sorted(registered ^ set(CODEC_STRATEGIES))}")


# ----------------------------------------------------------------------
# Corruption properties (class-level byte pairs)

_PAIR_PARAMS = sorted(BYTE_PAIR_STRATEGIES)


def _decode(qualified, data):
    module_name, _, class_name = qualified.rpartition(".")
    klass = getattr(importlib.import_module(module_name), class_name)
    return klass.from_bytes(data)


@pytest.mark.parametrize("qualified", _PAIR_PARAMS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_roundtrip_exact(qualified, data):
    obj = data.draw(BYTE_PAIR_STRATEGIES[qualified])
    assert _decode(qualified, obj.to_bytes()) == obj


@pytest.mark.parametrize("qualified", _PAIR_PARAMS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_truncation_raises_valueerror_only(qualified, data):
    encoded = data.draw(BYTE_PAIR_STRATEGIES[qualified]).to_bytes()
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    with pytest.raises(ValueError):
        _decode(qualified, encoded[:cut])


@pytest.mark.parametrize("qualified", _PAIR_PARAMS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bitflip_never_misparses(qualified, data):
    obj = data.draw(BYTE_PAIR_STRATEGIES[qualified])
    encoded = bytearray(obj.to_bytes())
    pos = data.draw(st.integers(0, len(encoded) - 1))
    encoded[pos] ^= data.draw(st.integers(1, 255))
    try:
        decoded = _decode(qualified, bytes(encoded))
    except ValueError:
        return  # rejection is the expected outcome
    assert decoded != obj, "corrupted bytes decoded back to the original"


@pytest.mark.parametrize("qualified", _PAIR_PARAMS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_extension_raises_valueerror_only(qualified, data):
    encoded = data.draw(BYTE_PAIR_STRATEGIES[qualified]).to_bytes()
    junk = data.draw(st.binary(min_size=1, max_size=16))
    with pytest.raises(ValueError):
        _decode(qualified, encoded + junk)


# ----------------------------------------------------------------------
# Corruption properties (frame codec, per message type)

_CODEC_PARAMS = sorted(CODEC_STRATEGIES)


@pytest.mark.parametrize("name", _CODEC_PARAMS)
@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_codec_corruption_per_type(name, data):
    message = data.draw(CODEC_STRATEGIES[name])
    encoded = bytearray(codec.encode_message(message))
    pos = data.draw(st.integers(0, len(encoded) - 1))
    encoded[pos] ^= data.draw(st.integers(1, 255))
    try:
        decoded = codec.decode_message(bytes(encoded))
    except codec.CodecError:
        return
    assert decoded != message


@pytest.mark.parametrize("name", _CODEC_PARAMS)
@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_codec_truncation_per_type(name, data):
    message = data.draw(CODEC_STRATEGIES[name])
    encoded = codec.encode_message(message)
    cut = data.draw(st.integers(0, len(encoded) - 1))
    with pytest.raises(codec.CodecError):
        codec.decode_message(encoded[:cut])


# ----------------------------------------------------------------------
# Corruption properties (canonical log-entry encoding, per EntryKind)
#
# Same enumerated-coverage construction as above: every EntryKind must
# have a payload strategy (in tests.strategies), so adding a kind
# without extending the durable-store encoding fails the registry test
# here.

#: One neighbor's full table, past 64 KB encoded: the CHECKPOINT entry
#: carries a u32 length, and the properties below must hold on both
#: sides of the u16 limit it used to have.
_FULL_TABLE_NEIGHBOR = 70000  # outside what routing_states() draws
_FULL_TABLE = {
    route.prefix: route for route in (
        Route(prefix=Prefix.parse(f"10.{i // 256}.{i % 256}.0/24"),
              as_path=(64512, 4000), neighbor=_FULL_TABLE_NEIGHBOR)
        for i in range(1800))}


@st.composite
def checkpoint_states(draw):
    state = draw(routing_states())
    if draw(st.booleans()):
        state.exports[_FULL_TABLE_NEIGHBOR] = dict(_FULL_TABLE)
    return state


ENTRY_STRATEGIES = {**ENTRY_PAYLOADS,
                    EntryKind.CHECKPOINT: checkpoint_states()}

_ENTRY_PARAMS = sorted(ENTRY_STRATEGIES, key=lambda kind: kind.value)

#: Millisecond-grid timestamps (the wire resolution).
_TIMESTAMPS = st.integers(0, 10**10).map(lambda ms: ms / 1000.0)


def test_every_entry_kind_has_a_strategy():
    assert set(ENTRY_STRATEGIES) == set(EntryKind), (
        "EntryKind changed; give the new kind a payload strategy here "
        "so its canonical encoding is corruption-fuzzed")


def test_full_table_checkpoint_is_past_the_u16_limit():
    state = RoutingState(exports={_FULL_TABLE_NEIGHBOR: _FULL_TABLE})
    encoded = encode_entry(EntryKind.CHECKPOINT, 1.0, state)
    # kind tag (1) + timestamp (8), then the u32 length of the rest.
    assert int.from_bytes(encoded[9:13], "big") == len(encoded) - 13
    assert len(encoded) - 13 > 0xFFFF
    assert decode_log_entry(encoded) == (EntryKind.CHECKPOINT, 1.0, state)


@pytest.mark.parametrize("kind", _ENTRY_PARAMS,
                         ids=[k.value for k in _ENTRY_PARAMS])
@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_log_entry_roundtrip_exact(kind, data):
    payload = data.draw(ENTRY_STRATEGIES[kind])
    timestamp = data.draw(_TIMESTAMPS)
    encoded = encode_entry(kind, timestamp, payload)
    assert decode_log_entry(encoded) == (kind, timestamp, payload)


@pytest.mark.parametrize("kind", _ENTRY_PARAMS,
                         ids=[k.value for k in _ENTRY_PARAMS])
@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_log_entry_truncation_raises(kind, data):
    payload = data.draw(ENTRY_STRATEGIES[kind])
    encoded = encode_entry(kind, data.draw(_TIMESTAMPS), payload)
    cut = data.draw(st.integers(0, len(encoded) - 1))
    with pytest.raises(codec.CodecError):
        decode_log_entry(encoded[:cut])


@pytest.mark.parametrize("kind", _ENTRY_PARAMS,
                         ids=[k.value for k in _ENTRY_PARAMS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_log_entry_extension_raises(kind, data):
    payload = data.draw(ENTRY_STRATEGIES[kind])
    encoded = encode_entry(kind, data.draw(_TIMESTAMPS), payload)
    junk = data.draw(st.binary(min_size=1, max_size=16))
    with pytest.raises(codec.CodecError):
        decode_log_entry(encoded + junk)


@pytest.mark.parametrize("kind", _ENTRY_PARAMS,
                         ids=[k.value for k in _ENTRY_PARAMS])
@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_log_entry_bitflip_never_misparses(kind, data):
    payload = data.draw(ENTRY_STRATEGIES[kind])
    timestamp = data.draw(_TIMESTAMPS)
    encoded = bytearray(
        encode_entry(kind, timestamp, payload))
    pos = data.draw(st.integers(0, len(encoded) - 1))
    encoded[pos] ^= data.draw(st.integers(1, 255))
    try:
        decoded = decode_log_entry(bytes(encoded))
    except codec.CodecError:
        return
    assert decoded != (kind, timestamp, payload), (
        "corrupted bytes decoded back to the original entry")


def _fresh_entry(kind, timestamp, payload):
    """:func:`encode_entry` with every message encoded past the frame
    memo, so the property below cannot pass on bytes the memo lent."""
    with mock.patch.object(log, "encode_message", _fresh_encode):
        return encode_entry(kind, timestamp, payload)


@pytest.mark.parametrize("kind", _ENTRY_PARAMS,
                         ids=[k.value for k in _ENTRY_PARAMS])
@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_log_entry_accepted_bytes_are_canonical(kind, data):
    """Every entry the decoder accepts, byte flips included, re-encodes
    to exactly its bytes: a stored entry has one encoding, so recovery
    re-derives what the chain covered."""
    encoded = bytearray(encode_entry(kind, data.draw(_TIMESTAMPS),
                                     data.draw(ENTRY_STRATEGIES[kind])))
    if data.draw(st.booleans()):
        pos = data.draw(st.integers(0, len(encoded) - 1))
        encoded[pos] ^= data.draw(st.integers(1, 255))
    try:
        decoded = decode_log_entry(bytes(encoded))
    except codec.CodecError:
        return
    assert _fresh_entry(*decoded) == encoded


_LOW, _HIGH = Prefix.parse("10.0.0.0/8"), Prefix.parse("11.0.0.0/8")


@pytest.mark.parametrize("state, first, second", [
    (RoutingState(exports={1: {}, 2: {}}),
     (1).to_bytes(4, "big") + bytes(4), (2).to_bytes(4, "big") + bytes(4)),
    (RoutingState(origins={_LOW, _HIGH}), _LOW.to_bytes(), _HIGH.to_bytes()),
], ids=["neighbors", "origins"])
def test_checkpoint_out_of_order_is_refused(state, first, second):
    """A checkpoint lists neighbors and prefixes ascending; the same
    state in another order is a second encoding, and is refused."""
    encoded = encode_entry(EntryKind.CHECKPOINT, 1.0, state)
    assert encoded.count(first + second) == 1
    swapped = encoded.replace(first + second, second + first)
    with pytest.raises(codec.CodecError, match="out of order"):
        decode_log_entry(swapped)


_SIGNED = Signed(signer=1, payload=b"p", signature=b"s")
_ACK_ENTRY = encode_entry(EntryKind.SENT_ACK, 3.0, SpiderAck(
    acker=1, sender=2, timestamp=3.0, message_hash=bytes(20),
    envelope=_SIGNED))
_WITHDRAW_ENTRY = encode_entry(EntryKind.SENT_WITHDRAW, 3.0, SpiderWithdraw(
    sender=1, receiver=2, timestamp=3.0, prefix=_LOW, envelope=_SIGNED))


def _declared(delta):
    """The ACK entry with its body's u32 length (after kind and t_ms)
    moved by ``delta``."""
    n = int.from_bytes(_ACK_ENTRY[9:13], "big") + delta
    return _ACK_ENTRY[:9] + n.to_bytes(4, "big") + _ACK_ENTRY[13:]


@pytest.mark.parametrize("data, pattern", [
    (_declared(-1), "declared"),
    (_declared(+1), "declared"),
    (_ACK_ENTRY + b"\x00", "declared"),
    (_ACK_ENTRY[:13] + b"\x09" + _ACK_ENTRY[14:], "wire version"),
    (_ACK_ENTRY[:14] + b"\x7f" + _ACK_ENTRY[15:], "message tag"),
    (_ACK_ENTRY[:1] + _WITHDRAW_ENTRY[1:], "carries a SpiderWithdraw"),
], ids=["length-short", "length-long", "trailing", "version", "tag",
        "type"])
def test_log_entry_refusals(data, pattern):
    """One reader per entry still refuses what the entry reader and the
    message reader refused between them."""
    assert decode_log_entry(_ACK_ENTRY)[0] is EntryKind.SENT_ACK
    with pytest.raises(codec.CodecError, match=pattern):
        decode_log_entry(data)
