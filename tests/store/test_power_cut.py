"""The power-cut oracle: §6's two durability rules, checked at every send.

A message may leave a node only once its ``SENT_*`` entry is durable,
and a received message may be ACKed only once its ``RECV_*`` entry is.
"Durable" means what survives a power cut, not a process crash: the
store's writes are watched (:class:`~tests.store.test_one_reader.
WriteLog`) and, at every send, the sender's store directory is cut the
way a power cut would cut it — every segment truncated to its length
at its last fsync, a new file kept only once its header fsync and a
directory fsync are done — and recovered.  The recovery must be

* a chain-verified prefix of the live log;
* holding the entry of every message in the send (for a commitment,
  the ``COMMITMENT`` entry that carries its root);
* holding, for each ACK in the send, the ``RECV_*`` entry of the
  message it acknowledges.

The exchange runs under ``fsync="always"`` and ``"batch"``: announces,
a withdrawal and their ACKs both ways, a commitment round, a cold
restart of both sides, and more traffic on the recovered runtimes.
"""

import collections
import os

import pytest

from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.obs.registry import Registry, use_registry
from repro.runtime.scenario import ASN_A, ASN_B, PREFIX, ROUTE, \
    exchange_runtime
from repro.runtime.transport import LoopbackHub
from repro.spider.log import EntryKind
from repro.spider.wire import SpiderAck, SpiderCommitment
from repro.store import SegmentedLogStore, recover
from tests.store.test_one_reader import WriteLog

B_PREFIX = Prefix.parse("198.51.100.0/24")
B_ROUTE = Route(prefix=B_PREFIX, as_path=(ASN_B, 5000), neighbor=5000)

SENT = (EntryKind.SENT_ANNOUNCE, EntryKind.SENT_WITHDRAW,
        EntryKind.SENT_ACK)
RECEIVED = (EntryKind.RECV_ANNOUNCE, EntryKind.RECV_WITHDRAW)


class PowerCutOracle:
    """Checks both rules at every send of the runtimes it watches."""

    def __init__(self, writes, scratch):
        self.writes = writes
        self.image = os.path.join(str(scratch), "power-cut")
        #: Messages checked, by type name.
        self.checked = collections.Counter()

    def watch(self, rt):
        transport = rt.recorder.transport

        def checked(receiver, messages):
            self.check(rt, messages)
            return transport(receiver, messages)

        rt.recorder.transport = checked
        return rt

    def check(self, rt, messages):
        self.writes.power_cut(rt.store.directory, self.image)
        store = SegmentedLogStore(self.image, registry=Registry())
        try:
            entries = recover(store).entries  # chain-verified here
        finally:
            store.close()
        live = list(rt.recorder.log)
        assert entries == live[:len(entries)]
        sent = [e.payload for e in entries if e.kind in SENT]
        roots = {(e.timestamp, e.payload["root"]) for e in entries
                 if e.kind is EntryKind.COMMITMENT}
        received = {e.payload.message_hash() for e in entries
                    if e.kind in RECEIVED}
        for message in messages:
            if isinstance(message, SpiderCommitment):
                assert (message.commit_time, message.root) in roots, \
                    f"AS{rt.asn} broadcast a root its disk may lose"
            else:
                assert message in sent, \
                    f"AS{rt.asn} sent a message its disk may lose"
            if isinstance(message, SpiderAck):
                assert message.message_hash in received, \
                    f"AS{rt.asn} ACKed a receipt its disk may lose"
            self.checked[type(message).__name__] += 1


@pytest.fixture()
def oracle(tmp_path, monkeypatch):
    writes = WriteLog()
    writes.install(monkeypatch)
    with use_registry(Registry()):
        yield PowerCutOracle(writes, tmp_path)


def open_pair(oracle, directory, fsync):
    """A and B on one loopback hub, each on a store of its own, both
    watched; a directory that already holds a log is cold-opened."""
    hub = LoopbackHub()
    return (hub, *(oracle.watch(exchange_runtime(
        asn, hub.attach(asn), store_dir=str(directory / f"as{asn}"),
        store_fsync=fsync)) for asn in (ASN_A, ASN_B)))


def step(hub, t, *runtimes):
    """Advance every runtime to ``t`` and deliver until the hub is
    quiet."""
    for rt in runtimes:
        rt.advance_to(t)
    while hub.deliver_all():
        for rt in runtimes:
            rt.deliver_pending()


@pytest.mark.parametrize("fsync", ["always", "batch"])
def test_every_send_survives_a_power_cut(oracle, tmp_path, fsync):
    hub, rt_a, rt_b = open_pair(oracle, tmp_path, fsync)
    rt_a.advance_to(1.0)
    rt_a.announce(ASN_B, ROUTE)
    step(hub, 1.0, rt_a, rt_b)
    rt_b.advance_to(2.0)
    rt_b.announce(ASN_A, B_ROUTE)
    step(hub, 2.0, rt_a, rt_b)
    rt_a.advance_to(3.0)
    rt_a.withdraw(ASN_B, PREFIX)
    step(hub, 3.0, rt_a, rt_b)
    for rt in (rt_a, rt_b):
        rt.advance_to(60.0)
        rt.commit()
    step(hub, 60.5, rt_a, rt_b)
    before = sum(oracle.checked.values())

    # A dies where it stands (its files are released at the end); B
    # shuts down.  Both reopen cold.
    rt_b.close()
    crashed = rt_a
    hub, rt_a, rt_b = open_pair(oracle, tmp_path, fsync)
    assert rt_a.recovery.stats.records and rt_b.recovery.stats.records
    rt_a.advance_to(61.0)
    rt_a.announce(ASN_B, ROUTE)
    step(hub, 61.0, rt_a, rt_b)
    rt_b.advance_to(62.0)
    rt_b.withdraw(ASN_A, B_PREFIX)
    step(hub, 62.0, rt_a, rt_b)
    for rt in (rt_a, rt_b):
        rt.advance_to(120.0)
        rt.commit()
    step(hub, 120.5, rt_a, rt_b)
    for rt in (rt_a, rt_b, crashed):
        assert not rt.recorder.alarms
        assert not rt.recorder.awaiting_ack
        rt.close()

    assert oracle.checked == {"SpiderAnnounce": 3, "SpiderWithdraw": 2,
                              "SpiderAck": 5, "SpiderCommitment": 4}
    assert before == 8


def test_a_restart_makes_what_it_inherits_durable(oracle, tmp_path):
    """A writer killed between an append and its sync leaves the entry
    in the kernel only; the cold runtime retransmits the logged message,
    so recovery must have made it durable first."""

    class Killed(Exception):
        pass

    def killed():
        raise Killed

    hub = LoopbackHub()
    store_dir = str(tmp_path / "a")
    dying = exchange_runtime(ASN_A, hub.attach(ASN_A),
                             store_dir=store_dir)
    dying.recorder.log.sync = killed
    dying.advance_to(1.0)
    with pytest.raises(Killed):
        dying.announce(ASN_B, ROUTE)

    hub = LoopbackHub()
    rt_a = oracle.watch(exchange_runtime(ASN_A, hub.attach(ASN_A),
                                         store_dir=store_dir))
    rt_b = exchange_runtime(ASN_B, hub.attach(ASN_B))
    try:
        assert rt_a.recovery.stats.records == 1
        t = 1.0
        while not oracle.checked and t < 10.0:
            t += 0.5
            step(hub, t, rt_a, rt_b)
        assert oracle.checked == {"SpiderAnnounce": 1}
        assert rt_a.delivery.retries_sent == 1
    finally:
        rt_a.close()
        dying.close()
