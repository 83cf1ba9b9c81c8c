"""Tests for the tamper-evident log, checkpoints, and replay."""

import dataclasses

import pytest

from repro.bgp.messages import Announce
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.core.promise import total_order_promise
from repro.crypto.keys import KeyRegistry, make_identity
from repro.crypto.signatures import Signer
from repro.netsim.events import Simulator
from repro.spider import codec, log as log_module
from repro.spider.checkpoint import elector_view, replay, take_checkpoint
from repro.spider.codec import encode_message
from repro.spider.config import SpiderConfig
from repro.spider.log import EntryKind, SpiderLog, TamperError, \
    encode_entry
from repro.spider.node import evaluation_scheme
from repro.spider.proofgen import ProofGenerator
from repro.spider.recorder import Recorder
from repro.spider.state import RoutingState
from repro.spider.wire import SpiderAck, SpiderAnnounce, SpiderWithdraw
from tests.spider.test_batching import RecordingSink

P = Prefix.parse("203.0.113.0/24")
Q = Prefix.parse("198.51.100.0/24")


@pytest.fixture(scope="module")
def registry():
    return KeyRegistry()


@pytest.fixture(scope="module")
def neighbor(registry):
    return make_identity(7, registry=registry, bits=512, seed=601)


def announce(identity, t, prefix=P, path=(7, 9), receiver=5):
    route = Route(prefix=prefix, as_path=tuple(path), neighbor=path[0])
    return SpiderAnnounce.make(Signer(identity), receiver=receiver,
                               timestamp=t, route=route, underlying=None)


def withdraw(identity, t, prefix=P, receiver=5):
    return SpiderWithdraw.make(Signer(identity), receiver=receiver,
                               timestamp=t, prefix=prefix)


def commitment(root=bytes(20)):
    """A SPIDeR-shaped commitment payload: 20-byte seed and root, a
    53 B entry."""
    return {"seed": bytes(20), "root": root}


class TestSpiderLog:
    def test_append_and_iterate(self):
        log = SpiderLog()
        log.append(1.0, EntryKind.COMMITMENT, commitment(b"s" * 20))
        log.append(2.0, EntryKind.COMMITMENT, commitment(b"t" * 20))
        assert len(log) == 2
        assert [e.index for e in log] == [0, 1]

    def test_chain_verifies(self):
        log = SpiderLog()
        for i in range(10):
            log.append(float(i), EntryKind.COMMITMENT, commitment())
        log.verify_chain()

    def test_tampering_detected(self):
        log = SpiderLog()
        for i in range(5):
            log.append(float(i), EntryKind.COMMITMENT, commitment())
        entries = log._entries
        entries[2] = dataclasses.replace(entries[2], timestamp=2.001)
        with pytest.raises(TamperError, match="log entry 2 breaks"):
            log.verify_chain()

    @pytest.mark.parametrize("index", range(6))
    def test_payload_swap_detected(self, neighbor, index):
        """The chain covers what a reader of ``entry.payload`` reads: a
        different valid payload of the same kind and size, at any
        index, breaks it exactly there."""
        state = RoutingState(origins={P})
        payloads = [
            (EntryKind.RECV_ANNOUNCE, announce(neighbor, 1.0),
             announce(neighbor, 1.0, path=(7, 8))),
            (EntryKind.RECV_WITHDRAW, withdraw(neighbor, 2.0),
             withdraw(neighbor, 2.0, prefix=Q)),
            (EntryKind.SENT_ACK,
             SpiderAck.make(Signer(neighbor), 5, 2.0, b"h" * 20),
             SpiderAck.make(Signer(neighbor), 5, 2.0, b"g" * 20)),
            (EntryKind.COMMITMENT, commitment(), commitment(b"r" * 20)),
            (EntryKind.CHECKPOINT, state, RoutingState(origins={Q})),
            (EntryKind.RECV_ANNOUNCE, announce(neighbor, 3.0, prefix=Q),
             announce(neighbor, 3.0, prefix=Q, path=(7, 8))),
        ]
        log = SpiderLog()
        for t, (kind, payload, _other) in enumerate(payloads):
            log.append(float(t), kind, payload)
        log.verify_chain()
        entry = log._entries[index]
        other = payloads[index][2]
        assert len(encode_entry(entry.kind, entry.timestamp, other)) == \
            entry.size_bytes
        log._entries[index] = dataclasses.replace(entry, payload=other)
        if isinstance(entry.payload, codec._MEMOIZED):
            # The swapped-out message still lends its frame, to itself.
            assert codec._FRAMES[id(entry.payload)][0] is entry.payload
        with pytest.raises(TamperError,
                           match=f"log entry {index} breaks"):
            log.verify_chain()

    @pytest.mark.parametrize("with_sink", [False, True])
    def test_one_encode_per_append(self, monkeypatch, neighbor,
                                   with_sink):
        """An entry is encoded once, by the log; the sink is handed
        those bytes and frames them, it never encodes again."""
        calls = []

        def counting(fn):
            def spy(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return spy

        monkeypatch.setattr(log_module, "encode_entry",
                            counting(log_module.encode_entry))
        monkeypatch.setattr(log_module, "encode_message",
                            counting(log_module.encode_message))
        sink = RecordingSink() if with_sink else None
        log = SpiderLog(sink=sink)
        message = announce(neighbor, 1.0)
        log.append(1.0, EntryKind.RECV_ANNOUNCE, message)
        assert calls == ["encode_entry", "encode_message"]
        log.append(2.0, EntryKind.COMMITMENT, commitment())
        assert calls == ["encode_entry", "encode_message",
                         "encode_entry"]
        if sink is not None:
            assert sink.appended == [
                (entry, log_module.encode_log_entry(entry))
                for entry in log]

    def test_timestamps_never_go_backwards(self):
        log = SpiderLog()
        log.append(5.0, EntryKind.COMMITMENT, commitment())
        entry = log.append(3.0, EntryKind.COMMITMENT, commitment())
        assert entry.timestamp == 5.0

    def test_byte_accounting(self, neighbor):
        """``size_bytes`` is the length of the entry's canonical bytes:
        ``kind | t_ms`` (9 B), then a u32-framed message or a commitment's
        u16-framed seed and root."""
        log = SpiderLog()
        message = announce(neighbor, 1.0)
        log.append(1.0, EntryKind.SENT_ANNOUNCE, message)
        log.append(2.0, EntryKind.COMMITMENT, commitment())
        sent = 13 + len(encode_message(message))
        assert [e.size_bytes for e in log] == [sent, 53]
        assert log.total_bytes() == sent + 53
        assert log.total_bytes(EntryKind.COMMITMENT) == 53

    def test_queries(self, neighbor):
        log = SpiderLog()
        log.append(1.0, EntryKind.SENT_ANNOUNCE, announce(neighbor, 1.0))
        log.append(2.0, EntryKind.CHECKPOINT, RoutingState())
        log.append(3.0, EntryKind.COMMITMENT, commitment())
        assert len(log.entries_between(1.5, 3.0)) == 2
        assert log.index_after(2.0) == 2
        assert log.index_after(0.5) == 0
        assert log.index_after(3.0) == 3
        assert log.commitment_at(3.0) is not None
        assert log.commitment_at(4.0) is None

    def test_commitment_found_on_the_millisecond_grid(self):
        """A commitment's broadcast carries its time on the millisecond
        grid; the log finds it by that time, not only by its own."""
        log = SpiderLog()
        entry = log.append(10.0004, EntryKind.COMMITMENT, commitment())
        assert log.commitment_at(10.0) is entry
        assert log.commitment_at(10.0004) is entry
        assert log.commitment_at(10.001) is None

    def test_trim_respects_retention(self, neighbor):
        log = SpiderLog(retention_seconds=100.0)
        # 13 B of entry framing, 15 B of I/E/O section framing, two
        # 5 B prefixes.
        state = RoutingState(origins={P, Q})
        snapshot = 13 + 15 + 10
        log.append(0.0, EntryKind.CHECKPOINT, state)
        message = announce(neighbor, 1.0)
        for i in range(5):
            log.append(float(i + 1), EntryKind.SENT_ANNOUNCE, message)
        log.append(50.0, EntryKind.CHECKPOINT, state)
        # At t=120, the horizon is 20: the t=0 checkpoint is stale but
        # the t=50 one is too recent to serve as a base... the t=0 one
        # is the last checkpoint ≤ horizon, so entries before it (none)
        # are dropped.
        assert log.trim(now=120.0).entries == 0
        # At t=200 the horizon is 100: the t=50 checkpoint qualifies and
        # everything before it can go.
        dropped = log.trim(now=200.0)
        sent = 5 * (13 + len(encode_message(message)))
        assert dropped.entries == 6
        assert dropped.bytes_reclaimed == snapshot + sent
        assert dropped.bytes_by_kind == {"checkpoints": snapshot,
                                         "log": sent}
        assert log._entries[0].kind is EntryKind.CHECKPOINT
        # A trimmed log anchors at its first surviving chain value.
        log.verify_chain()


class TestRoutingState:
    def test_copy_is_deep_enough(self):
        state = RoutingState()
        state.imports.setdefault(7, {})[P] = Route(prefix=P,
                                                   as_path=(7, 9),
                                                   neighbor=7)
        clone = state.copy()
        clone.imports[7].pop(P)
        assert P in state.imports[7]

    def test_known_prefixes(self):
        state = RoutingState()
        state.imports.setdefault(7, {})[P] = Route(prefix=P,
                                                   as_path=(7, 9),
                                                   neighbor=7)
        state.exports.setdefault(8, {})[Q] = Route(prefix=Q,
                                                   as_path=(5, 7, 9),
                                                   neighbor=7)
        state.origins.add(Prefix.parse("192.0.2.0/24"))
        assert len(state.known_prefixes()) == 3


class TestElectorView:
    def test_strips_prepend(self):
        exported = Route(prefix=P, as_path=(5, 7, 9), neighbor=5)
        assert elector_view(exported, 5).as_path == (7, 9)

    def test_keeps_origin_route(self):
        origin = Route(prefix=P, as_path=(5,), neighbor=0)
        assert elector_view(origin, 5).as_path == (5,)

    def test_leaves_foreign_routes_alone(self):
        route = Route(prefix=P, as_path=(7, 9), neighbor=7)
        assert elector_view(route, 5) == route


class TestReplay:
    def test_replay_reconstructs_state(self, registry, neighbor):
        log = SpiderLog()
        a1 = announce(neighbor, 1.0)
        log.append(1.0, EntryKind.RECV_ANNOUNCE, a1)
        w1 = withdraw(neighbor, 2.0)
        log.append(2.0, EntryKind.RECV_WITHDRAW, w1)
        a2 = announce(neighbor, 3.0, prefix=Q)
        log.append(3.0, EntryKind.RECV_ANNOUNCE, a2)

        at_1 = replay(log, 5, before_index=log.index_after(1.5))
        assert P in at_1.imports[7] and Q not in at_1.imports.get(7, {})
        at_3 = replay(log, 5, before_index=log.index_after(3.0))
        assert P not in at_3.imports.get(7, {})
        assert Q in at_3.imports[7]

    def test_replay_stamps_neighbor(self, registry, neighbor):
        log = SpiderLog()
        a1 = announce(neighbor, 1.0)
        log.append(1.0, EntryKind.RECV_ANNOUNCE, a1)
        state = replay(log, 5, before_index=log.index_after(2.0))
        assert state.imports[7][P].neighbor == 7

    def test_replay_from_checkpoint(self, registry, neighbor):
        log = SpiderLog()
        a1 = announce(neighbor, 1.0)
        log.append(1.0, EntryKind.RECV_ANNOUNCE, a1)
        base = replay(log, 5, before_index=log.index_after(1.5))
        take_checkpoint(log, 1.5, base)
        a2 = announce(neighbor, 2.0, prefix=Q)
        log.append(2.0, EntryKind.RECV_ANNOUNCE, a2)

        state = replay(log, 5, before_index=log.index_after(2.5))
        assert P in state.imports[7] and Q in state.imports[7]

    def test_replay_cut_by_index_ignores_same_timestamp_tail(
            self, registry, neighbor):
        """Entries may share a commitment's millisecond on either side
        of it; only a log position separates them."""
        log = SpiderLog()
        a1 = announce(neighbor, 1.0)
        log.append(1.0, EntryKind.RECV_ANNOUNCE, a1)
        marker = log.append(1.0, EntryKind.COMMITMENT, commitment())
        take_checkpoint(log, 1.0,
                        replay(log, 5, before_index=log.index_after(1.0)))
        a2 = announce(neighbor, 1.0, prefix=Q)
        log.append(1.0, EntryKind.RECV_ANNOUNCE, a2)

        by_time = replay(log, 5, before_index=log.index_after(1.0))
        assert Q in by_time.imports[7]
        by_index = replay(log, 5, before_index=marker.index)
        assert set(by_index.imports[7]) == {P}
        # The checkpoint logged right after the commitment is a valid
        # base for later cuts and carries the committed state.
        after = replay(log, 5, before_index=marker.index + 2)
        assert set(after.imports[7]) == {P}

    def test_reconstruct_with_same_millisecond_traffic(self, registry):
        """Regression: an announce logged at ``commit_time`` after
        ``make_commitment`` is not part of the commitment, and
        ``reconstruct`` must still arrive at the committed root."""
        identity = make_identity(5, registry=registry, bits=512,
                                 seed=605)
        scheme = evaluation_scheme(5)
        sim = Simulator()
        recorder = Recorder(
            identity=identity, registry=registry, scheme=scheme,
            promises={7: total_order_promise(scheme)},
            config=SpiderConfig(nagle_delay=0.0), clock=sim.clock,
            transport=lambda receiver, messages: None)

        def export(prefix):
            recorder.mirror_sent_update(Announce(
                sender=5, receiver=7,
                route=Route(prefix=prefix, as_path=(5, 9), neighbor=9)))

        export(P)
        record = recorder.make_commitment()
        export(Q)  # same clock reading: logged at commit_time
        assert [e.timestamp for e in recorder.log][-1] == \
            record.commit_time
        reconstruction = ProofGenerator(recorder).reconstruct(
            record.commit_time)
        assert reconstruction.root == record.root
        assert set(reconstruction.state.exports[7]) == {P}

    def test_checkpoint_isolation(self, registry, neighbor):
        """Mutating the live state after a checkpoint must not alter the
        stored snapshot."""
        log = SpiderLog()
        state = RoutingState()
        entry = take_checkpoint(log, 1.0, state)
        state.origins.add(P)
        assert P not in entry.payload.origins
