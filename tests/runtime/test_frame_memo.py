"""The codec's frame memo: a received update is logged, and an ACK is
logged and then sent, with the bytes the message already had.

The memo is keyed by object identity and holds each message it lists.
It hands back a frame only to the very object that frame decoded to or
was encoded from, so what it returns is what a fresh encode returns.
"""

import dataclasses
import sys
import tempfile
import threading
from collections import OrderedDict, deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.crypto.hashing import DIGEST_SIZE
from repro.crypto.keys import make_identity
from repro.crypto.signatures import Signed, Signer
from repro.faults.injector import tamper_log_entry
from repro.obs.registry import Registry
from repro.runtime.scenario import ASN_A, ASN_B, EXCHANGE_CONFIG, \
    exchange_runtime
from repro.runtime.tcp import TcpTransport
from repro.runtime.transport import LoopbackHub
from repro.spider import codec
from repro.spider.codec import CodecError, decode_message, encode_message
from repro.spider.log import EntryKind, SpiderLog, TamperError
from repro.spider.wire import SpiderAck, SpiderAnnounce, SpiderWithdraw
from repro.store.recovery import recover
from repro.store.seglog import SegmentedLogStore, read_directory

from tests import strategies
from tests.runtime.test_codec_roundtrip import _STAMP_AT, _STAMPS, \
    _fresh_encode, _stamped


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    """Each test starts from an empty memo and leaves the module's own
    memo as it found it."""
    monkeypatch.setattr(codec, "_FRAMES", OrderedDict())
    monkeypatch.setattr(codec, "_frame_bytes_held", 0)


def memo_bytes():
    held = sum(len(frame) for _message, frame in codec._FRAMES.values())
    assert held == codec._frame_bytes_held
    return held


_RECV_KIND = {SpiderAnnounce: EntryKind.RECV_ANNOUNCE,
              SpiderWithdraw: EntryKind.RECV_WITHDRAW,
              SpiderAck: EntryKind.RECV_ACK}

_UPDATES = st.one_of(strategies.announces(), strategies.withdraws(),
                     strategies.acks())


def _ack(stamp=3.0, digest_byte=b"h", digests=()):
    return SpiderAck(acker=1, sender=2, timestamp=stamp,
                     message_hash=digest_byte * DIGEST_SIZE,
                     envelope=Signed(signer=1, payload=b"p",
                                     signature=b"s",
                                     batch_digests=digests,
                                     batch_index=0))


# ----------------------------------------------------------------------
# Soundness

@settings(max_examples=60, deadline=None)
@given(_UPDATES, st.data())
def test_a_logged_frame_is_the_frame_received(message, data):
    """Whatever frame decodes, its log record carries it byte for byte,
    and the reopened log verifies: the memo lends only bytes that a
    fresh encode of the same object gives."""
    frame = encode_message(message)
    if data.draw(st.booleans()):
        frame = _stamped(message, data.draw(_STAMPS))
    else:
        flipped = bytearray(frame)
        pos = data.draw(st.integers(0, len(flipped) - 1))
        flipped[pos] ^= data.draw(st.integers(1, 255))
        frame = bytes(flipped)
    try:
        received = decode_message(memoryview(frame))
    except CodecError:
        return
    kind = _RECV_KIND.get(type(received))
    if kind is None:
        return  # a flipped tag made it a commitment or bit proof
    with tempfile.TemporaryDirectory() as directory:
        store = SegmentedLogStore(directory, fsync="never",
                                  registry=Registry())
        log = SpiderLog(sink=store)
        log.append(5.0, kind, received)
        log.sync()
        store.close()
        (record,) = [r for _info, result in read_directory(directory)
                     for r in result.records]
        # kind (1) | t_ms (8) | u32 length (4) | the frame
        assert record.entry_bytes[13:] == frame
        reopened = SegmentedLogStore(directory, registry=Registry())
        recovery = recover(reopened)
        reopened.close()
        SpiderLog.restore(recovery.entries).verify_chain()


# ----------------------------------------------------------------------
# Identity, bound, tamper

def test_an_evicted_message_never_lends_its_frame(monkeypatch):
    """Once the memo has let a message go and it is collected, a new
    message is encoded afresh, even at the old address (CPython tends
    to hand the freed block to the next object of its size; the test
    does not depend on it)."""
    envelope = Signed(signer=1, payload=b"p", signature=b"s")
    digest_h, digest_g = b"h" * DIGEST_SIZE, b"g" * DIGEST_SIZE
    filler = _ack(digest_byte=b"f")
    monkeypatch.setattr(codec, "_FRAME_MEMO_BYTES",
                        len(encode_message(filler)))
    for _ in range(20):
        old = SpiderAck(acker=1, sender=2, timestamp=3.0,
                        message_hash=digest_h, envelope=envelope)
        old_frame = encode_message(old)
        old_id = id(old)
        assert codec._FRAMES[old_id][0] is old
        encode_message(_ack(stamp=9.0, digest_byte=b"f"))  # evicts old
        assert old_id not in codec._FRAMES
        del old
        new = SpiderAck(acker=1, sender=2, timestamp=4.0,
                        message_hash=digest_g, envelope=envelope)
        assert encode_message(new) != old_frame
        assert decode_message(encode_message(new)) == new


def test_the_memo_stays_within_its_byte_bound():
    """The memo's oldest-out eviction is modelled by a deque of
    ``(id, frame length)``, so every decode is checked against it in
    O(1): the byte count, and the oldest and newest frame held.  The
    full recount of the frames held, and the order of every key, run
    every 500 decodes and at the end."""
    template = _fresh_encode(_ack())
    at = _STAMP_AT[SpiderAck]
    bound = codec._FRAME_MEMO_BYTES
    model, held = deque(), 0
    for ms in range(10_000):
        frame = template[:at] + ms.to_bytes(8, "big") + template[at + 8:]
        message = decode_message(frame)
        while held + len(frame) > bound:
            held -= model.popleft()[1]
        model.append((id(message), len(frame)))
        held += len(frame)
        assert codec._frame_bytes_held == held <= bound
        assert len(codec._FRAMES) == len(model)
        assert next(iter(codec._FRAMES)) == model[0][0]
        assert next(reversed(codec._FRAMES)) == id(message)
        if ms % 500 == 499:
            assert memo_bytes() == held
            assert list(codec._FRAMES) == [key for key, _size in model]
    assert memo_bytes() == held
    assert len(codec._FRAMES) < 10_000
    assert memo_bytes() > codec._FRAME_MEMO_BYTES - len(template)
    oldest = next(iter(codec._FRAMES.values()))[0]
    # One frame larger than the whole bound is not kept, and does not
    # flush the frames that are.
    n = codec._FRAME_MEMO_BYTES // DIGEST_SIZE + 1
    big = _ack(digests=tuple(i.to_bytes(DIGEST_SIZE, "big")
                             for i in range(n)))
    frame = encode_message(big)
    assert len(frame) > codec._FRAME_MEMO_BYTES
    assert decode_message(frame) == big
    assert id(big) not in codec._FRAMES
    assert next(iter(codec._FRAMES.values()))[0] is oldest
    assert memo_bytes() <= codec._FRAME_MEMO_BYTES


def test_threads_sharing_the_memo_lose_no_update(monkeypatch):
    """Every TCP transport decodes on a thread of its own: rounds of
    eight threads decoding and re-encoding at once, against a bound of
    four frames, leave the byte count equal to the frames held, within
    the bound, and every frame with its message."""
    frame_size = len(encode_message(_ack()))
    monkeypatch.setattr(codec, "_FRAME_MEMO_BYTES", 4 * frame_size)
    errors = []

    def work(worker):
        try:
            for ms in range(worker * 1000, worker * 1000 + 1000):
                frame = _stamped(_ack(), ms)
                message = decode_message(memoryview(frame))
                if encode_message(message) != frame:
                    errors.append((worker, ms))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(5):
            threads = [threading.Thread(target=work, args=(w,))
                       for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert memo_bytes() <= codec._FRAME_MEMO_BYTES
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert memo_bytes() <= codec._FRAME_MEMO_BYTES
    for key, (message, frame) in list(codec._FRAMES.items()):
        assert key == id(message)
        assert decode_message(frame) == message


@pytest.fixture(scope="module")
def neighbor():
    return Signer(make_identity(7, bits=512, seed=601))


def _logged(signer):
    prefix = Prefix.parse("203.0.113.0/24")
    route = Route(prefix=prefix, as_path=(7, 9), neighbor=7)
    log = SpiderLog()
    log.append(1.0, EntryKind.RECV_ANNOUNCE, SpiderAnnounce.make(
        signer, receiver=5, timestamp=1.0, route=route, underlying=None))
    log.append(2.0, EntryKind.RECV_WITHDRAW, SpiderWithdraw.make(
        signer, receiver=5, timestamp=2.0, prefix=prefix))
    log.append(3.0, EntryKind.SENT_ACK, SpiderAck.make(
        signer, 5, 3.0, b"h" * DIGEST_SIZE))
    log.verify_chain()
    return log


@pytest.mark.parametrize("index", [0, 1, 2])
def test_a_swapped_payload_breaks_the_chain_while_memoized(neighbor,
                                                           index):
    log = _logged(neighbor)
    entry = log._entries[index]
    doctored = tamper_log_entry(log, index)
    assert codec._FRAMES[id(entry.payload)][0] is entry.payload
    assert doctored.payload != entry.payload
    with pytest.raises(TamperError, match=f"log entry {index} breaks"):
        log.verify_chain()


# ----------------------------------------------------------------------
# What a hub encodes

BURST = 8
T_BURST = 1.0
#: Long enough for both outboxes to flush as one batch each.
BURST_CONFIG = dataclasses.replace(EXCHANGE_CONFIG, nagle_delay=0.05)


@pytest.fixture()
def encodes(monkeypatch):
    """Counts calls of each message encoder by tag, once switched on."""
    counts = {}
    counting = [False]

    def counted(tag, encoder):
        def wrapper(w, message):
            if counting[0]:
                counts[tag] = counts.get(tag, 0) + 1
            encoder(w, message)
        return wrapper

    monkeypatch.setattr(codec, "_ENCODERS", tuple(
        (klass, tag, counted(tag, encoder))
        for klass, tag, encoder in codec._ENCODERS))
    return counts, counting


def _send_burst(rt_a):
    rt_a.advance_to(T_BURST)
    for i in range(BURST):
        rt_a.announce(ASN_B, Route(prefix=Prefix.parse(f"10.{i}.0.0/16"),
                                   as_path=(ASN_A, 4000), neighbor=4000))
    rt_a.advance_to(T_BURST + BURST_CONFIG.nagle_delay)


def _ack_burst(rt_b):
    rt_b.advance_to(T_BURST + BURST_CONFIG.nagle_delay)
    assert rt_b.deliver_pending() == BURST
    rt_b.advance_to(T_BURST + 2 * BURST_CONFIG.nagle_delay)


def _assert_one_encode_per_ack(counts, rt_a, rt_b):
    assert counts.get(codec.TAG_ANNOUNCE, 0) == 0
    assert counts.get(codec.TAG_ACK, 0) == BURST
    assert len(rt_b.recorder.log.of_kind(EntryKind.SENT_ACK)) == BURST
    assert rt_b.recorder.alarms == []
    rt_b.recorder.log.verify_chain()
    assert rt_a.recorder.alarms == []
    assert rt_a.recorder.awaiting_ack == {}


def test_a_hub_encodes_only_its_acks_once_over_loopback(encodes):
    counts, counting = encodes
    hub = LoopbackHub()
    rt_a = exchange_runtime(ASN_A, hub.attach(ASN_A), config=BURST_CONFIG)
    rt_b = exchange_runtime(ASN_B, hub.attach(ASN_B), config=BURST_CONFIG)
    _send_burst(rt_a)
    hub.deliver_all()
    counting[0] = True
    _ack_burst(rt_b)
    counting[0] = False
    hub.deliver_all()
    rt_a.advance_to(T_BURST + 2 * BURST_CONFIG.nagle_delay)
    rt_a.deliver_pending()
    _assert_one_encode_per_ack(counts, rt_a, rt_b)


def test_a_hub_encodes_only_its_acks_once_over_tcp(encodes):
    counts, counting = encodes
    t_a, t_b = TcpTransport(ASN_A), TcpTransport(ASN_B)
    t_a.start()
    t_b.start()
    t_a.add_peer(ASN_B, "127.0.0.1", t_b.port)
    t_b.add_peer(ASN_A, "127.0.0.1", t_a.port)
    rt_a = exchange_runtime(ASN_A, t_a, config=BURST_CONFIG)
    rt_b = exchange_runtime(ASN_B, t_b, config=BURST_CONFIG)
    try:
        _send_burst(rt_a)
        rt_b.wait_for_inbox(BURST)
        counting[0] = True
        _ack_burst(rt_b)
        counting[0] = False
        rt_a.wait_for_inbox(BURST)
        rt_a.advance_to(T_BURST + 2 * BURST_CONFIG.nagle_delay)
        rt_a.deliver_pending()
        _assert_one_encode_per_ack(counts, rt_a, rt_b)
    finally:
        rt_a.close()
        rt_b.close()
        t_a.stop()
        t_b.stop()
