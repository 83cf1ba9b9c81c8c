"""Property tests: arbitrary truncation/corruption vs recovery.

The invariants under fuzz (ISSUE 7 satellite):

* truncating the *final* segment at any offset recovers exactly the
  durable prefix — every fully-written record before the cut survives,
  the torn tail is dropped, nothing reorders;
* under ``fsync=always``, a crash that never closes the store loses
  nothing that ``append`` returned for;
* any byte flip in a *sealed* segment fails closed at recovery;
* tampering that fixes up the CRC is still caught by the §6.5 hash
  chain at recovery — in the stored chain digest or in any bit of any
  record's entry bytes.
"""

import os
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.registry import Registry
from repro.runtime.logdump import encode_log_entry
from repro.spider.log import EntryKind, SpiderLog, TamperError
from repro.store import SegmentedLogStore, StoreCorruptionError, \
    list_segments, recover
from repro.store.segment import FRAME_OVERHEAD, HEADER_SIZE, \
    RECORD_OVERHEAD
from tests.strategies import log_payloads

SEGMENT_BYTES = 192  # tiny: a handful of commitment records per file


def build_store(directory, n, fsync="batch", payloads=None):
    """``n`` chained entries over small segments; returns the
    in-memory entries (ground truth) with the store left open.

    ``payloads`` optionally supplies ``(kind, payload)`` for each entry
    (drawn from :func:`tests.strategies.log_payloads` in the property
    tests); by default commitments of a fixed deterministic shape are
    used.
    """
    store = SegmentedLogStore(str(directory), fsync=fsync,
                              segment_bytes=SEGMENT_BYTES,
                              registry=Registry())
    log = SpiderLog(retention_seconds=1e9, sink=store)
    for i in range(n):
        kind, payload = payloads[i] if payloads is not None else \
            (EntryKind.COMMITMENT,
             {"seed": bytes(20), "root": b"root-%04d" % i})
        log.append(float(i), kind, payload)
    return store, list(log)


def frame_offsets(path):
    """(start, end) file offsets of every frame in one segment."""
    size = os.path.getsize(path)
    with open(path, "rb") as handle:
        data = handle.read()
    spans = []
    offset = HEADER_SIZE
    while offset < size:
        length, _crc = struct.unpack_from(">II", data, offset)
        end = offset + FRAME_OVERHEAD + length
        spans.append((offset, end))
        offset = end
    return spans


def flip_byte(path, offset, mask=0x01):
    """XOR one byte of a file in place (no CRC fix-up)."""
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ mask]))


def rewrite_record(directory, index, edit):
    """Edit record ``index`` of a closed store in place, the way an
    adversary with the disk would: ``edit(payload)`` mutates the frame
    payload (a bytearray: record prefix, then the entry bytes from
    ``RECORD_OVERHEAD`` on) keeping its length, and the frame CRC is
    recomputed so the structural scan finds nothing wrong."""
    segment = [info for info in list_segments(str(directory))
               if info.base_index <= index][-1]
    start, end = frame_offsets(segment.path)[index - segment.base_index]
    with open(segment.path, "r+b") as handle:
        handle.seek(start + FRAME_OVERHEAD)
        payload = bytearray(handle.read(end - start - FRAME_OVERHEAD))
        edit(payload)
        assert len(payload) == end - start - FRAME_OVERHEAD
        handle.seek(start)
        handle.write(struct.pack(">II", len(payload),
                                 zlib.crc32(payload) & 0xFFFFFFFF))
        handle.write(payload)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_truncation_recovers_exact_durable_prefix(tmp_path_factory,
                                                  data):
    directory = tmp_path_factory.mktemp("trunc")
    n = data.draw(st.integers(min_value=1, max_value=16))
    store, entries = build_store(directory, n)
    store.close()
    final = store.segments()[-1]
    sealed_count = sum(
        1 for e in entries
        if e.index < final.base_index)
    cut = data.draw(st.integers(min_value=0,
                                max_value=final.size_bytes))
    survivors = sealed_count + sum(
        1 for _start, end in frame_offsets(final.path) if end <= cut)
    if cut < HEADER_SIZE:
        # Header never fully written: the file is a torn create and is
        # discarded whole (only sealed records survive).
        survivors = sealed_count
    with open(final.path, "r+b") as handle:
        handle.truncate(cut)

    recovery = recover(SegmentedLogStore(str(directory),
                                         segment_bytes=SEGMENT_BYTES,
                                         registry=Registry()))
    assert recovery.entries == entries[:survivors]
    assert recovery.next_index == survivors


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fsync_always_loses_no_acked_entry(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("always")
    n = data.draw(st.integers(min_value=1, max_value=12))
    store, entries = build_store(directory, n, fsync="always")
    # No close, no sync: the process "dies" here.  Every append already
    # fsynced, so a second store must see all of them.
    recovery = recover(SegmentedLogStore(str(directory),
                                         segment_bytes=SEGMENT_BYTES,
                                         registry=Registry()))
    assert recovery.entries == entries
    store.close()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bitflip_in_sealed_segment_fails_closed(tmp_path_factory,
                                                data):
    directory = tmp_path_factory.mktemp("sealed")
    store, _entries = build_store(directory, 12)
    store.close()
    segments = store.segments()
    assert len(segments) >= 2, "need a sealed segment for this test"
    target = segments[data.draw(
        st.integers(min_value=0, max_value=len(segments) - 2))]
    pos = data.draw(st.integers(min_value=0,
                                max_value=target.size_bytes - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    flip_byte(target.path, pos, flip)

    with pytest.raises(StoreCorruptionError):
        recover(SegmentedLogStore(str(directory),
                                  segment_bytes=SEGMENT_BYTES,
                                  registry=Registry()))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bitflip_in_final_segment_yields_prefix_or_fails(
        tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("tail")
    n = data.draw(st.integers(min_value=1, max_value=16))
    store, entries = build_store(directory, n)
    store.close()
    final = store.segments()[-1]
    pos = data.draw(st.integers(min_value=0,
                                max_value=final.size_bytes - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    flip_byte(final.path, pos, flip)

    try:
        recovery = recover(SegmentedLogStore(
            str(directory), segment_bytes=SEGMENT_BYTES,
            registry=Registry()))
    except StoreCorruptionError:
        # A flipped full-length header is tampering, not a torn tail.
        assert pos < HEADER_SIZE
        return
    # Body flip: indistinguishable from a torn tail, so the store keeps
    # the intact prefix — never reordered, never fabricated.
    assert recovery.entries == entries[:len(recovery.entries)]
    assert len(recovery.entries) < n


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_arbitrary_payloads_roundtrip_through_recovery(tmp_path_factory,
                                                       data):
    """Recovery is payload-agnostic: drawn payloads of every entry
    kind (shared strategies with the encoding fuzz) survive a
    close/reopen exactly, accounting size included."""
    directory = tmp_path_factory.mktemp("payloads")
    n = data.draw(st.integers(min_value=1, max_value=10))
    payloads = [data.draw(log_payloads()) for _ in range(n)]
    store, entries = build_store(directory, n, payloads=payloads)
    store.close()
    recovery = recover(SegmentedLogStore(str(directory),
                                         segment_bytes=SEGMENT_BYTES,
                                         registry=Registry()))
    assert recovery.entries == entries
    assert [(e.kind, e.payload) for e in recovery.entries] == payloads


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_no_entry_bit_flip_survives_a_cold_open(tmp_path_factory, data):
    """The chain covers the record's contents: flip any one bit of any
    record's entry bytes, fix up the CRC, and the open must fail — it
    never hands back a log."""
    directory = tmp_path_factory.mktemp("bitflip")
    n = data.draw(st.integers(min_value=1, max_value=6))
    payloads = [data.draw(log_payloads()) for _ in range(n)]
    store, entries = build_store(directory, n, payloads=payloads)
    store.close()
    index = data.draw(st.integers(min_value=0, max_value=n - 1))
    size = len(encode_log_entry(entries[index]))
    bit = data.draw(st.integers(min_value=0, max_value=8 * size - 1))

    def flip(payload):
        assert len(payload) == RECORD_OVERHEAD + size
        payload[RECORD_OVERHEAD + bit // 8] ^= 1 << (bit % 8)

    rewrite_record(directory, index, flip)
    with pytest.raises((TamperError, StoreCorruptionError)):
        recover(SegmentedLogStore(str(directory),
                                  segment_bytes=SEGMENT_BYTES,
                                  registry=Registry()))


def test_crc_fixup_tampering_breaks_the_chain(tmp_path):
    """An adversary who edits a record *and* recomputes its CRC passes
    the structural scan but is caught by the hash-chain check."""
    store, _entries = build_store(tmp_path, 12)
    store.close()
    # Tamper inside the second segment: its records are past the chain
    # anchor, so their linkage is verified against segment one's.
    segments = store.segments()
    assert len(segments) >= 3

    def flip_chain_bit(payload):
        payload[RECORD_OVERHEAD - 1] ^= 0x01  # stored chain digest

    rewrite_record(tmp_path, segments[1].base_index, flip_chain_bit)
    opened = SegmentedLogStore(str(tmp_path),
                               segment_bytes=SEGMENT_BYTES,
                               registry=Registry())
    with pytest.raises(TamperError, match=f"record "
                       f"{segments[1].base_index} breaks the hash chain"):
        recover(opened)
