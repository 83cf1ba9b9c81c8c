"""What a cold open keeps, and what it refuses.

A recovered runtime holds its entries in its log and nowhere else, so
trimming the log frees them.  Recovery's last check is the strict
decode: an adversary who edits a record and re-chains everything after
it passes the chain, and the decoder must still refuse the record.
Whatever is recovered holds ``bytes``, never a view of a segment's
buffer.
"""

import dataclasses
import gc
import struct
import types
import zlib

import pytest

from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.crypto.hashing import DIGEST_SIZE
from repro.crypto.signatures import Signed
from repro.obs.registry import Registry, use_registry
from repro.runtime.scenario import ASN_A, ASN_B, EXCHANGE_CONFIG, \
    exchange_runtime
from repro.runtime.transport import LoopbackHub
from repro.spider.log import EntryKind, LogEntry, chain_step
from repro.store import SegmentedLogStore, StoreCorruptionError, recover
from repro.store.segment import FRAME_OVERHEAD, RECORD_OVERHEAD, \
    list_segments

from tests.store.test_recovery_fuzz import frame_offsets
from tests.store.test_runtime_restart import run_phase1

#: Where an entry's u32 body length sits: after kind (1) and t_ms (8).
_BODY_LENGTH_AT = 9


def _reachable_entries(root):
    """Every :class:`LogEntry` reachable from ``root``, by identity;
    modules and classes are not followed."""
    seen, found, stack = set(), {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, LogEntry):
            found[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return found


class TestARecoveredRuntimeHoldsItsLogOnce:
    def test_trimmed_entries_are_not_reachable(self, tmp_path):
        store_dir = str(tmp_path / "store")
        run_phase1(store_dir)
        with use_registry(Registry()):
            rt = exchange_runtime(ASN_A, LoopbackHub().attach(ASN_A),
                                  store_dir=store_dir)
            try:
                log = rt.recorder.log
                kept_from = [e.kind for e in log].index(
                    EntryKind.CHECKPOINT)
                dropped = list(log)[:kept_from]
                assert dropped
                horizon = max(e.timestamp for e in log)
                report = log.trim(horizon + log.retention_seconds)
                assert report.entries == len(dropped)
                reachable = _reachable_entries(rt)
                assert not [e.index for e in dropped
                            if id(e) in reachable]
                # What the harness and the restart report read stays.
                assert rt.recovery.stats.records == len(dropped) + 1
                assert rt.recovery.next_index == len(dropped) + 1
                assert rt.recovery.head == log.head
                assert [e.index for e in rt.recovery.entries] == \
                    [kept_from]
            finally:
                rt.close()


#: The exchange with Nagle batching on, so each burst is one batch.
_BATCHED = dataclasses.replace(EXCHANGE_CONFIG, nagle_delay=0.05)

_RECEIVED = (EntryKind.RECV_ANNOUNCE, EntryKind.RECV_WITHDRAW,
             EntryKind.RECV_ACK)


def _log_state(rt):
    """What a cold open must reproduce: length, head and every
    commitment with its signature."""
    log = rt.recorder.log
    return (len(log), log.head,
            [(c.commit_time, c.root, c.message.envelope.signature)
             for c in rt.recorder.commitments])


def _held_once(entries):
    """The batched signatures in the entries' messages, and the objects
    that hold them: as many objects as distinct signatures, and at least
    one burst."""
    signed = [s for entry in entries
              for s in (getattr(entry.payload, name, None)
                        for name in ("underlying", "route_sig", "envelope"))
              if s is not None and s.batch_digests]
    values = {s.signature for s in signed}
    assert len(signed) > len(values) > 0
    assert len({id(s.signature) for s in signed}) == len(values)


class TestABurstHoldsItsSignatureOnce:
    """The members of a decoded burst share one signature object, off
    the wire and at a cold open, and the recovered log is the live one."""

    def test_live_and_recovered_logs(self, tmp_path):
        dirs = {asn: str(tmp_path / f"store{asn}") for asn in (ASN_A,
                                                               ASN_B)}
        with use_registry(Registry()):
            hub = LoopbackHub()
            rts = {asn: exchange_runtime(asn, hub.attach(asn),
                                         config=_BATCHED,
                                         store_dir=dirs[asn])
                   for asn in (ASN_A, ASN_B)}
            try:
                t = 1.0
                for i in range(8):
                    rts[ASN_A].announce(ASN_B, Route(
                        prefix=Prefix.parse(f"10.{i}.0.0/16"),
                        as_path=(ASN_A, 4000), neighbor=4000))
                # The announces, the ACKs, then a commitment each.
                for commit in (False, False, True):
                    t += 1.0
                    for rt in rts.values():
                        rt.advance_to(t)
                        if commit:
                            rt.commit()
                    hub.deliver_all()
                    for rt in rts.values():
                        rt.deliver_pending()
                live = {}
                for asn, rt in rts.items():
                    log = rt.recorder.log
                    _held_once(e for e in log if e.kind in _RECEIVED)
                    assert rt.recorder.commitments
                    live[asn] = _log_state(rt)
            finally:
                for rt in rts.values():
                    rt.close()
            for asn in (ASN_A, ASN_B):
                rt = exchange_runtime(asn, LoopbackHub().attach(asn),
                                      config=_BATCHED,
                                      store_dir=dirs[asn])
                try:
                    _held_once(rt.recorder.log)
                    assert _log_state(rt) == live[asn]
                finally:
                    rt.close()


def _rechain_from(store_dir, index, edit):
    """Edit record ``index``'s entry bytes in place (``edit`` mutates a
    bytearray, keeping its length), then re-chain and re-CRC it and
    every record after it: what an adversary who knows the formula
    writes, so only the decoder can object."""
    prev = bytes(DIGEST_SIZE)
    for info in list_segments(store_dir):
        with open(info.path, "r+b") as handle:
            for start, end in frame_offsets(info.path):
                handle.seek(start + FRAME_OVERHEAD)
                payload = bytearray(handle.read(end - start - FRAME_OVERHEAD))
                record_index = struct.unpack_from(">Q", payload, 1)[0]
                if record_index == index:
                    entry = payload[RECORD_OVERHEAD:]
                    edit(entry)
                    payload[RECORD_OVERHEAD:] = entry
                if record_index >= index:
                    payload[9:RECORD_OVERHEAD] = chain_step(
                        prev, bytes(payload[RECORD_OVERHEAD:]))
                    handle.seek(start)
                    handle.write(struct.pack(">II", len(payload),
                                             zlib.crc32(payload)))
                    handle.write(payload)
                prev = bytes(payload[9:RECORD_OVERHEAD])


class TestTheStrictDecodeIsTheLastCheck:
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_edited_message_length_is_refused(self, tmp_path, delta):
        store_dir = str(tmp_path / "store")
        run_phase1(store_dir)

        def edit(entry):
            declared = struct.unpack_from(">I", entry, _BODY_LENGTH_AT)[0]
            struct.pack_into(">I", entry, _BODY_LENGTH_AT,
                             declared + delta)

        _rechain_from(store_dir, 0, edit)
        # The chain alone is satisfied: only the decode refuses.
        with use_registry(Registry()), pytest.raises(
                StoreCorruptionError,
                match=r"^record 0: undecodable entry: "):
            exchange_runtime(ASN_A, LoopbackHub().attach(ASN_A),
                             store_dir=store_dir)

    def test_recovered_bytes_are_bytes(self, tmp_path):
        """No recovered field is a view that would pin a segment's
        buffer, nor a bytearray another holder could change."""
        store_dir = str(tmp_path / "store")
        _batched_exchange(store_dir)
        with use_registry(Registry()):
            store = SegmentedLogStore(store_dir)
            entries = recover(store).entries
            store.close()
        assert {e.kind for e in entries} >= {
            EntryKind.SENT_ANNOUNCE, EntryKind.RECV_ACK,
            EntryKind.RECV_ANNOUNCE, EntryKind.SENT_ACK,
            EntryKind.COMMITMENT, EntryKind.CHECKPOINT}
        seen = {"chain": 0, "signed": 0, "digests": 0, "route": 0}
        for entry in entries:
            assert type(entry.chain) is bytes
            seen["chain"] += 1
            for value in _walk(entry.payload):
                if isinstance(value, (bytes, bytearray, memoryview)):
                    assert type(value) is bytes
                if isinstance(value, Signed):
                    assert type(value.payload) is bytes
                    assert type(value.signature) is bytes
                    assert all(type(d) is bytes
                               for d in value.batch_digests)
                    seen["signed"] += 1
                    seen["digests"] += len(value.batch_digests)
            route = getattr(entry.payload, "route", None)
            if route is not None:
                assert type(route.to_bytes()) is bytes
                seen["route"] += 1
        assert all(seen.values()), seen


def _batched_exchange(store_dir):
    """A and B each send a burst of three announces, so every message
    either side logs is batch-signed; A's log is on disk, and A
    commits once."""
    config = dataclasses.replace(EXCHANGE_CONFIG, nagle_delay=0.5)
    with use_registry(Registry()):
        hub = LoopbackHub()
        rt_a = exchange_runtime(ASN_A, hub.attach(ASN_A), config=config,
                                store_dir=store_dir)
        rt_b = exchange_runtime(ASN_B, hub.attach(ASN_B), config=config)
        for rt, peer, first in ((rt_a, ASN_B, 10), (rt_b, ASN_A, 20)):
            for octet in range(first, first + 3):
                rt.announce(peer, Route(
                    prefix=Prefix.parse(f"198.51.{octet}.0/24"),
                    as_path=(rt.asn, 4000), neighbor=4000))
        for t in (1.0, 2.0, 3.0):
            for rt in (rt_a, rt_b):
                rt.advance_to(t)
            hub.deliver_all()
            for rt in (rt_a, rt_b):
                rt.deliver_pending()
        rt_a.advance_to(60.0)
        rt_a.commit()
        rt_a.close()
        rt_b.close()


def _walk(value):
    """``value`` and everything its fields, items and members hold."""
    yield value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from _walk(getattr(value, f.name))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _walk(key)
            yield from _walk(item)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            yield from _walk(item)
