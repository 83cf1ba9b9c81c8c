"""Tests for Nagle-style signature batching in the recorder (§6.2)."""

import hashlib

import pytest

from repro.bgp.messages import Announce, Withdraw
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.core.promise import total_order_promise
from repro.crypto import rsa
from repro.crypto.keys import KeyRegistry, make_identity
from repro.netsim.events import Simulator
from repro.obs.registry import use_registry
from repro.spider import codec
from repro.spider.codec import decode_message, encode_message
from repro.spider.config import SpiderConfig
from repro.spider.log import EntryKind
from repro.spider.node import evaluation_scheme
from repro.spider.recorder import Recorder

ELECTOR, CONSUMER = 5, 7


def make_recorder(sim, nagle_delay=0.05, max_batch=16):
    registry = KeyRegistry()
    identity = make_identity(ELECTOR, registry=registry, bits=512,
                             seed=900)
    make_identity(CONSUMER, registry=registry, bits=512, seed=901)
    scheme = evaluation_scheme(5)
    sent = []
    recorder = Recorder(
        identity=identity, registry=registry, scheme=scheme,
        promises={CONSUMER: total_order_promise(scheme)},
        config=SpiderConfig(nagle_delay=nagle_delay,
                            max_batch=max_batch),
        clock=sim.clock,
        transport=lambda receiver, messages: sent.extend(messages),
        schedule=sim.after)
    return recorder, sent


def announce(i):
    prefix = Prefix.parse(f"10.{i}.0.0/16")
    return Announce(sender=ELECTOR, receiver=CONSUMER,
                    route=Route(prefix=prefix, as_path=(ELECTOR, 9),
                                neighbor=9))


def signatures(obs, counter="signatures_made_total"):
    """What the elector signed, from the registry it reports to."""
    return obs.total(counter, node=f"as{ELECTOR}")


class TestBatching:
    @pytest.fixture()
    def obs(self):
        with use_registry() as obs:
            yield obs

    def test_burst_shares_signatures(self, obs):
        sim = Simulator()
        recorder, sent = make_recorder(sim)
        for i in range(10):
            recorder.mirror_sent_update(announce(i))
        assert sent == []  # nothing leaves before the nagle timer
        sim.run()
        assert len(sent) == 10
        # Two RSA operations cover the whole burst: the inner route
        # signatures and the message envelopes.
        assert signatures(obs) == 2
        assert signatures(obs, "payloads_signed_total") == 20

    def test_messages_remain_individually_valid(self):
        sim = Simulator()
        recorder, sent = make_recorder(sim)
        for i in range(5):
            recorder.mirror_sent_update(announce(i))
        sim.run()
        assert all(m.valid(recorder.registry) for m in sent)

    def test_max_batch_chunks(self, obs):
        sim = Simulator()
        recorder, sent = make_recorder(sim, max_batch=4)
        for i in range(10):
            recorder.mirror_sent_update(announce(i))
        sim.run()
        # 10 messages in chunks of 4 → 3 chunks × 2 signatures.
        assert signatures(obs) == 6

    def test_commitment_flushes_pending(self):
        sim = Simulator()
        recorder, sent = make_recorder(sim, nagle_delay=5.0)
        recorder.mirror_sent_update(announce(1))
        assert sent == []
        record = recorder.make_commitment()
        # The queued announce was forced out before committing, so the
        # commitment covers it.
        announces = [m for m in sent if hasattr(m, "route")]
        assert announces
        prefix = announces[0].prefix
        reconstruction_bits = recorder.mtt_entries(recorder.state)
        assert prefix in reconstruction_bits

    def test_mixed_kinds_in_one_batch(self, obs):
        sim = Simulator()
        recorder, sent = make_recorder(sim)
        recorder.mirror_sent_update(announce(1))
        recorder.mirror_sent_update(
            Withdraw(sender=ELECTOR, receiver=CONSUMER,
                     prefix=Prefix.parse("10.1.0.0/16")))
        sim.run()
        kinds = {type(m).__name__ for m in sent}
        assert kinds == {"SpiderAnnounce", "SpiderWithdraw"}
        # Announce adds a route signature; the withdraw shares the
        # envelope batch → 2 signatures total.
        assert signatures(obs) == 2

    def test_log_order_preserved(self):
        sim = Simulator()
        recorder, sent = make_recorder(sim)
        for i in range(5):
            recorder.mirror_sent_update(announce(i))
        sim.run()
        logged = [e for e in recorder.log
                  if e.kind is EntryKind.SENT_ANNOUNCE]
        sent_prefixes = [m.prefix for m in sent]
        assert [e.payload.prefix for e in logged] == sent_prefixes

    def test_immediate_mode_without_scheduler(self):
        sim = Simulator()
        registry = KeyRegistry()
        identity = make_identity(ELECTOR, registry=registry, bits=512,
                                 seed=902)
        scheme = evaluation_scheme(5)
        sent = []
        recorder = Recorder(
            identity=identity, registry=registry, scheme=scheme,
            promises={}, config=SpiderConfig(),
            clock=sim.clock,
            transport=lambda receiver, messages: sent.extend(messages),
            schedule=None)
        recorder.mirror_sent_update(announce(1))
        assert len(sent) == 1  # no scheduler → synchronous send


def burst_of_eight():
    """A seeded burst: eight announces the elector signs as one chunk,
    and the recorder they are sent to."""
    sim = Simulator()
    elector, sent = make_recorder(sim)
    for i in range(8):
        elector.mirror_sent_update(announce(i))
    sim.run()
    assert len(sent) == 8
    scheme = evaluation_scheme(5)
    consumer = Recorder(
        identity=make_identity(CONSUMER, registry=elector.registry,
                               bits=512, seed=901),
        registry=elector.registry, scheme=scheme,
        promises={ELECTOR: total_order_promise(scheme)},
        config=SpiderConfig(), clock=sim.clock,
        transport=lambda receiver, messages: None, schedule=sim.after)
    return sent, consumer


class TestReceiverPaysOncePerBatch:
    """§6.2 batches signatures so RSA is paid per burst; the receiver
    pays per burst too, while still checking every member."""

    #: SHA-512 of ``encode_message`` of the burst's fourth member: the
    #: digest-list layout of a batch-signed frame, which the unbatched
    #: two-node goldens do not cover.
    GOLDEN_MEMBER = "97e49961960e0034989c17421c557e1e65b9e225"

    @pytest.fixture()
    def rsa_verifies(self, monkeypatch):
        """Counts RSA operations; starts from an empty digest-list
        intern, so a burst some other test decoded and verified earlier
        is not handed back already carrying its verdict."""
        monkeypatch.setattr(codec, "_DIGEST_LISTS", {})
        monkeypatch.setattr(codec, "_digests_interned", 0)
        calls = []
        real = rsa.verify

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(rsa, "verify", counted)
        return calls

    def test_a_burst_of_eight_costs_two_rsa_verifies(self, rsa_verifies):
        sent, consumer = burst_of_eight()
        decoded = [decode_message(encode_message(m)) for m in sent]
        with use_registry() as obs:
            for message in decoded:
                consumer.receive(message)
            checked = obs.label_values("signatures_checked_total",
                                       "outcome")
        # One route-signature root and one envelope root, not 16.
        assert len(rsa_verifies) == 2
        # Still one check per signature received: §7.5 counts them.
        assert checked == {"valid": 16}
        assert consumer.alarms == []
        assert len(consumer.log.of_kind(EntryKind.RECV_ANNOUNCE)) == 8

    def test_decoded_members_share_one_digest_list(self):
        sent, _consumer = burst_of_eight()
        decoded = [decode_message(encode_message(m)) for m in sent]
        for field in ("route_sig", "envelope"):
            lists = [getattr(m, field).batch_digests for m in decoded]
            assert len(lists[0]) == 8
            assert all(digests is lists[0] for digests in lists)

    def test_batch_signed_frame_bytes_are_pinned(self):
        sent, _consumer = burst_of_eight()
        encoded = encode_message(sent[3])
        assert hashlib.sha512(encoded).hexdigest()[:40] == \
            self.GOLDEN_MEMBER


class RecordingSink:
    """A LogSink that keeps what it is handed and counts what is
    appended but not yet synced."""

    def __init__(self):
        self.unsynced = 0
        self.appended = []

    def append(self, entry, entry_bytes):
        self.unsynced += 1
        self.appended.append((entry, entry_bytes))

    def sync(self):
        self.unsynced = 0

    def trim(self, keep_from_index):
        return 0


class TestDurableBeforeVisible:
    """Nothing this node signed may be on the wire before its log entry
    — and the entry of whatever it acknowledges — is durable: after a
    crash the peer would hold a receipt this node cannot answer for."""

    def make_pair(self, nagle_delay):
        sim = Simulator()
        registry = KeyRegistry()
        scheme = evaluation_scheme(5)
        sink = RecordingSink()
        calls = []

        def checked_transport(receiver, messages):
            assert sink.appended and sink.unsynced == 0, \
                "message handed to the transport before its log " \
                "entry was synced"
            calls.append((receiver, list(messages)))

        def recorder(asn, seed, peer, **kwargs):
            return Recorder(
                identity=make_identity(asn, registry=registry,
                                       bits=512, seed=seed),
                registry=registry, scheme=scheme,
                promises={peer: total_order_promise(scheme)},
                config=SpiderConfig(nagle_delay=nagle_delay),
                clock=sim.clock, schedule=sim.after, **kwargs)

        elector = recorder(ELECTOR, 920, CONSUMER, log_store=sink,
                           transport=checked_transport)
        from_peer = []
        peer = recorder(
            CONSUMER, 921, ELECTOR,
            transport=lambda receiver, messages:
            from_peer.extend(messages))
        return sim, elector, peer, from_peer, calls

    def test_timed_flush_syncs_before_sending(self):
        sim, elector, _peer, _from_peer, calls = self.make_pair(0.05)
        for i in range(3):
            elector.mirror_sent_update(announce(i))
        sim.run()
        assert [len(messages) for _r, messages in calls] == [3]

    def test_inline_ack_syncs_the_receipt_it_acknowledges(self):
        sim, elector, peer, from_peer, calls = self.make_pair(0.0)
        peer.mirror_sent_update(Announce(
            sender=CONSUMER, receiver=ELECTOR,
            route=Route(prefix=Prefix.parse("10.9.0.0/16"),
                        as_path=(CONSUMER, 9), neighbor=9)))
        (inbound,) = from_peer
        elector.receive(inbound)  # logs RECV_ANNOUNCE, ACKs inline
        ((receiver, (ack,)),) = calls
        assert receiver == CONSUMER
        assert ack.message_hash == inbound.message_hash()
        assert elector.alarms == []
