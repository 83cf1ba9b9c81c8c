"""The egress traffic a deployed node really generates, pinned.

A :class:`NodeRuntime` acknowledges a burst through the recorder's
Nagle outbox, so what reaches the transport is one ``send`` per signed
chunk per receiver (§6.2) — never one per message.  Checked on the
loopback hub and across real sockets, where each ``send`` is also
exactly one hop into the transport's loop thread.
"""

import asyncio

import pytest

from repro.bgp.messages import Announce
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.core.promise import total_order_promise
from repro.crypto.keys import KeyRegistry, make_identity
from repro.runtime.node_runtime import NodeRuntime, StepClock
from repro.runtime.tcp import TcpTransport
from repro.runtime.transport import LoopbackHub
from repro.spider.config import SpiderConfig
from repro.spider.log import EntryKind
from repro.spider.node import evaluation_scheme
from repro.spider.recorder import Recorder
from repro.spider.wire import SpiderAck, SpiderAnnounce

NODE, PEER_LOW, PEER_HIGH = 20, 21, 22
CONFIG = SpiderConfig()  # the deployment defaults: nagle on, chunks of 32


class _World:
    """One node runtime and two scripted peers on one transport kind."""

    def __init__(self, kind):
        self.registry = KeyRegistry()
        self.scheme = evaluation_scheme(10)
        self.identities = {
            asn: make_identity(asn, registry=self.registry, bits=512,
                               seed=7300 + asn)
            for asn in (NODE, PEER_LOW, PEER_HIGH)}
        self.hub = LoopbackHub() if kind == "loopback" else None
        self.transports = {asn: self._transport(asn)
                           for asn in (NODE, PEER_LOW, PEER_HIGH)}
        if self.hub is None:
            for transport in self.transports.values():
                transport.start()
            for asn, transport in self.transports.items():
                for other, peer in self.transports.items():
                    if other != asn:
                        transport.add_peer(other, "127.0.0.1", peer.port)
        self.runtime = NodeRuntime(
            self.identities[NODE], self.registry, self.scheme,
            self.transports[NODE], neighbors=(PEER_LOW, PEER_HIGH),
            config=CONFIG)
        self.sends = []
        transport = self.transports[NODE]
        original = transport.send
        transport.send = lambda receiver, messages: (
            self.sends.append((receiver, list(messages))),
            original(receiver, messages))[-1]

    def _transport(self, asn):
        if self.hub is not None:
            return self.hub.attach(asn)
        return TcpTransport(asn)

    def announces_from(self, peer, count, at):
        """``count`` signed announces ``peer`` → node, stamped ``at``."""
        out = []
        recorder = Recorder(
            identity=self.identities[peer], registry=self.registry,
            scheme=self.scheme,
            promises={NODE: total_order_promise(self.scheme)},
            config=CONFIG, clock=StepClock(at),
            transport=lambda receiver, messages: out.extend(messages),
            schedule=lambda delay, thunk: None)  # flushed by hand
        for i in range(count):
            recorder.mirror_sent_update(Announce(
                sender=peer, receiver=NODE, route=_route(peer, i)))
        recorder.flush_outbox()
        return out

    def deliver_to_node(self, peer, messages):
        self.transports[peer].send(NODE, messages)
        if self.hub is not None:
            self.hub.deliver_all()
        self.runtime.wait_for_inbox(len(messages))

    def close(self):
        self.runtime.close()
        for transport in self.transports.values():
            transport.stop()


def _route(origin, i):
    return Route(prefix=Prefix.parse(f"10.{i}.0.0/16"),
                 as_path=(origin, 4000), neighbor=4000)


@pytest.fixture(params=["loopback", "tcp"])
def world(request):
    world = _World(request.param)
    yield world
    world.close()


def test_burst_of_acks_leaves_as_one_send_per_chunk(world, monkeypatch):
    rt = world.runtime
    announces = world.announces_from(PEER_LOW, 70, at=1.0)
    world.deliver_to_node(PEER_LOW, announces)

    hops = []
    threadsafe = asyncio.run_coroutine_threadsafe
    monkeypatch.setattr(
        asyncio, "run_coroutine_threadsafe",
        lambda coro, loop: (hops.append(loop),
                            threadsafe(coro, loop))[-1])

    rt.advance_to(1.0)
    assert rt.deliver_pending() == 70
    assert world.sends == []  # the ACKs wait for the Nagle timer
    rt.advance_to(1.0 + CONFIG.nagle_delay)

    assert [(receiver, len(messages))
            for receiver, messages in world.sends] == \
        [(PEER_LOW, 32), (PEER_LOW, 32), (PEER_LOW, 6)]
    acks = [m for _receiver, messages in world.sends for m in messages]
    assert all(isinstance(ack, SpiderAck) for ack in acks)
    assert [ack.message_hash for ack in acks] == \
        [announce.message_hash() for announce in announces]
    assert acks == [entry.payload for entry in
                    rt.recorder.log.of_kind(EntryKind.SENT_ACK)]
    if world.hub is None:
        # One cross-thread hop per flushed chunk, not per ACK.
        assert hops == [rt.transport._loop] * 3
    assert rt.recorder.alarms == []


def test_flush_toward_two_receivers_is_grouped_in_asn_order(world):
    rt = world.runtime
    rt.advance_to(1.0)
    for i in range(3):
        rt.announce(PEER_HIGH, _route(NODE, i))
        rt.announce(PEER_LOW, _route(NODE, i))
    assert world.sends == []
    rt.advance_to(1.0 + CONFIG.nagle_delay)
    assert [(receiver, [type(m) for m in messages],
             [m.prefix for m in messages])
            for receiver, messages in world.sends] == [
        (asn, [SpiderAnnounce] * 3,
         [_route(NODE, i).prefix for i in range(3)])
        for asn in (PEER_LOW, PEER_HIGH)]
