"""Transport implementations: loopback determinism and real TCP behind
the one egress method, ``send(receiver, messages)``.

Every ``send`` property is checked through one helper per property,
taking the batch size: size 1 under ``TestLoopbackHub``/``TestTcpSmoke``,
sizes 0 and 4 under ``TestSendMany``.
"""

import gc
import weakref

import pytest

from repro.bgp.prefix import Prefix
from repro.crypto.keys import make_identity
from repro.crypto.signatures import Signer
from repro.runtime.codec import encode_message
from repro.runtime.framing import encode_frame
from repro.runtime.scenario import ASN_A, ASN_B, T_COMMIT, \
    _drive_first_round, exchange_runtime, run_loopback_exchange
from repro.runtime.tcp import TcpTransport
from repro.runtime.transport import LoopbackHub, TransportError
from repro.spider.wire import SpiderAnnounce, SpiderCommitment, \
    commitment_payload


class TestLoopbackExchange:
    """The canonical exchange over the in-process hub — the baseline
    every other transport must reproduce byte for byte."""

    @pytest.fixture(scope="class")
    def summaries(self):
        return run_loopback_exchange()

    def test_logs_are_deterministic_across_runs(self, summaries):
        again = run_loopback_exchange()
        assert summaries[0]["log_hex"] == again[0]["log_hex"]
        assert summaries[1]["log_hex"] == again[1]["log_hex"]

    def test_commitment_roots_cross_agree(self, summaries):
        summary_a, summary_b = summaries
        assert summary_a["peer_root"] == summary_b["own_root"]
        assert summary_b["peer_root"] == summary_a["own_root"]

    def test_no_alarms_in_clean_exchange(self, summaries):
        assert summaries[0]["alarms"] == []
        assert summaries[1]["alarms"] == []

    def test_frames_were_counted(self):
        hub = LoopbackHub()
        summaries = run_loopback_exchange(hub)
        assert summaries[0]["entries"] > 0
        # announce + ack + two commitments crossed the hub
        endpoints = hub.endpoints
        sent = sum(t.frames_sent for t in endpoints.values())
        received = sum(t.frames_received for t in endpoints.values())
        assert sent == received == 4


class TestForgedCommitment:
    """A commitment signed by anyone but its elector is dropped with an
    ``invalid_commitment`` alarm, in either arrival order: it is never
    stored and never compared, so it cannot frame the honest elector."""

    OUTSIDER = 66

    def _exchange(self, forged_first):
        hub = LoopbackHub()
        rt_a = exchange_runtime(ASN_A, hub.attach(ASN_A))
        rt_b = exchange_runtime(ASN_B, hub.attach(ASN_B))
        # B's number, a key nobody registered: one frame from anyone.
        forger = Signer(make_identity(ASN_B, bits=512, seed=9966))
        root = b"\x5a" * 32
        forged = SpiderCommitment(
            elector=ASN_B, commit_time=T_COMMIT, root=root,
            envelope=forger.sign(commitment_payload(ASN_B, T_COMMIT, root)))
        outsider = hub.attach(self.OUTSIDER)
        if forged_first:
            outsider.send(ASN_A, [forged])
            hub.deliver_all()
        _drive_first_round(hub, rt_a, rt_b)
        if not forged_first:
            outsider.send(ASN_A, [forged])
            hub.deliver_all()
            rt_a.deliver_pending()
        return rt_a, rt_b

    @pytest.mark.parametrize("forged_first", [False, True],
                             ids=["forged_after", "forged_first"])
    def test_forged_commitment_is_neither_stored_nor_compared(
            self, forged_first):
        rt_a, rt_b = self._exchange(forged_first)
        stored = rt_a.node.commitment_from(ASN_B, T_COMMIT)
        assert stored == rt_b.recorder.commitments[-1].message
        assert stored.valid(rt_a.node.registry)
        assert rt_a.node.detections == []
        assert rt_a.recorder.alarms == [
            f"invalid commitment from AS{ASN_B}"]


class TestLoopbackHub:
    def test_latency_ordering_is_seed_deterministic(self):
        """With random latencies, delivery *order* is a pure function
        of the seed."""

        def delivery_order(seed):
            hub = LoopbackHub(seed=seed, min_latency=0.0,
                              max_latency=0.5)
            order = []
            t_a = hub.attach(1)
            hub.attach(2).on_receive(lambda m: order.append(("b", m)))
            hub.attach(3).on_receive(lambda m: order.append(("c", m)))
            for i in range(6):
                t_a.send(2 if i % 2 else 3, [_announce_stub(i)])
            hub.deliver_all()
            return [(who, m.timestamp) for who, m in order]

        first = delivery_order(42)
        assert delivery_order(42) == first
        assert delivery_order(43) != first

    def test_drop_filter_counts(self):
        _check_drop_filter_is_per_message(1)

    def test_unknown_receiver_rejected(self):
        _check_loopback_unknown_receiver(1)

    def test_removed_receiver_gets_nothing(self):
        hub = LoopbackHub()
        t_a = hub.attach(1)
        t_b = hub.attach(2)
        kept, removed = [], []
        t_b.on_receive(kept.append)
        t_b.on_receive(removed.append)
        t_b.remove_receiver(removed.append)
        t_b.remove_receiver(removed.append)  # idempotent
        t_a.send(2, [_announce_stub(0)])
        hub.deliver_all()
        assert len(kept) == 1 and removed == []


class TestClosedRuntime:
    """A closed :class:`NodeRuntime` lets go of its transport: the
    transport may outlive it (a harness keeps it to stop it later)."""

    def test_message_after_close_reaches_only_the_new_runtime(self):
        hub = LoopbackHub()
        t_a, transport = hub.attach(ASN_A), hub.attach(ASN_B)
        old = exchange_runtime(ASN_B, transport)
        old.close()
        new = exchange_runtime(ASN_B, transport)
        t_a.send(ASN_B, [_announce_stub(0)])
        hub.deliver_all()
        assert len(new.inbox) == 1
        assert len(old.inbox) == 0
        new.close()

    def test_closed_runtime_is_collectable_while_transport_lives(self):
        hub = LoopbackHub()
        transport = hub.attach(ASN_B)
        runtime = exchange_runtime(ASN_B, transport)
        runtime.close()
        ref = weakref.ref(runtime)
        del runtime
        gc.collect()
        assert ref() is None
        assert hub.endpoints[ASN_B] is transport


class TestTcpSmoke:
    """Localhost TCP with both endpoints in one process: frames survive
    the real socket path (encode → kernel → decode → dispatch)."""

    def test_message_crosses_a_real_socket(self):
        _check_tcp_round_trip(1)

    def test_send_to_unknown_peer_raises(self):
        _check_tcp_unknown_peer(1)

    def test_send_before_start_raises(self):
        _check_tcp_before_start(1)

    def test_frames_arriving_before_receiver_are_buffered(self):
        """A peer can deliver while this side is still setting up (key
        generation in a fresh process); early frames must wait for
        on_receive, not vanish — dropping one deadlocks the exchange."""
        server = TcpTransport(2)
        server.start()
        client = TcpTransport(1, peers={2: ("127.0.0.1", server.port)})
        client.start()
        try:
            message = _announce_stub(5)
            client.send(2, [message])
            _wait_until(lambda: server.frames_received, timeout=10.0)
            received = []
            server.on_receive(received.append)  # registered *after*
            assert received == [message]
        finally:
            client.stop()
            server.stop()


class TestTcpWriterDeath:
    def test_sender_redials_after_the_peer_restarts(self):
        """A writer that loses its connection must not leave its queue
        registered: later frames would pile up behind a task that is
        gone and, once the queue is full, block the sender."""
        import time
        server = TcpTransport(2)
        server.start()
        port = server.port
        client = TcpTransport(1, peers={2: ("127.0.0.1", port)},
                              connect_timeout=2.0)
        client.start()
        longest = 0.0

        def timed_send(messages):
            nonlocal longest
            start = time.monotonic()
            client.send(2, messages)
            longest = max(longest, time.monotonic() - start)

        try:
            timed_send([_announce_stub(0)])
            _wait_until(lambda: server.frames_received, timeout=10.0)
            server.stop()
            # A write into a closed connection fails only once the
            # kernel has seen the peer's reset: send until it does.
            for i in range(1, 500):
                timed_send([_announce_stub(i)])
                if client.send_errors:
                    break
                time.sleep(0.01)
            assert client.send_errors

            received = []
            server = TcpTransport(2, port=port)
            server.on_receive(received.append)
            server.start()
            batch = [_announce_stub(1000 + i) for i in range(4)]
            # More than max_queue frames: a dead queue would block.
            for i in range(client.max_queue + 1):
                timed_send([_announce_stub(500 + i)])
            timed_send(batch)
            _wait_until(lambda: batch[-1] in received, timeout=10.0)
            assert received[-4:] == batch
            assert longest < client.connect_timeout
        finally:
            client.stop()
            server.stop()


class TestSendMany:
    """A batch is indistinguishable from its messages sent one by one
    on the receive side: same messages, same order, same counters."""

    def test_loopback_batch_delivers_in_order(self):
        _check_loopback_round_trip(4)

    def test_loopback_batch_matches_singles_byte_for_byte(self):
        """One batch meters exactly the bytes of its members sent as
        one-element batches."""
        assert _check_loopback_round_trip(4) == \
            _check_loopback_round_trip(4, split=True)

    def test_loopback_drop_filter_is_per_message(self):
        _check_drop_filter_is_per_message(4)

    def test_empty_batch_is_a_no_op(self):
        _check_loopback_round_trip(0)
        _check_drop_filter_is_per_message(0)
        _check_tcp_round_trip(0)

    def test_loopback_unknown_receiver_rejected(self):
        _check_loopback_unknown_receiver(0)
        _check_loopback_unknown_receiver(4)

    def test_tcp_batch_crosses_a_real_socket(self):
        _check_tcp_round_trip(4)

    def test_tcp_send_many_before_start_raises(self):
        _check_tcp_before_start(0)
        _check_tcp_before_start(4)

    def test_tcp_send_many_unknown_peer_raises(self):
        _check_tcp_unknown_peer(0)
        _check_tcp_unknown_peer(4)


# ----------------------------------------------------------------------

def _announce_stub(i):
    """A structurally valid (unsigned) announce for transport tests."""
    from repro.bgp.route import Route
    from repro.crypto.signatures import Signed
    route = Route(prefix=Prefix.parse("192.0.2.0/24"),
                  as_path=(1, 4000), neighbor=4000)
    envelope = Signed(signer=1, payload=b"p", signature=b"s")
    return SpiderAnnounce(sender=1, receiver=2, timestamp=float(i),
                          route=route, underlying=None,
                          route_sig=envelope, envelope=envelope)


def _wait_until(predicate, timeout):
    import time
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError("condition not met in time")
        time.sleep(0.01)




# ----------------------------------------------------------------------
# One check per ``send`` property, taking the batch size.

def _batch(size):
    return [_announce_stub(i) for i in range(size)]


def _frame_bytes(batch):
    return sum(len(encode_frame(encode_message(m))) for m in batch)


def _check_loopback_round_trip(size, split=False):
    """Order and byte/frame counters over the hub; ``split`` sends the
    members as one-element batches.  Returns the metered totals."""
    hub = LoopbackHub()
    t_a = hub.attach(1)
    received = []
    hub.attach(2).on_receive(received.append)
    batch = _batch(size)
    for part in ([[m] for m in batch] if split else [batch]):
        t_a.send(2, part)
    # One hub entry per non-empty send, however many frames it holds.
    assert hub.in_flight == (size if split else min(size, 1))
    hub.deliver_all()
    assert received == batch
    t_b = hub.endpoints[2]
    assert t_a.frames_sent == t_b.frames_received == size
    assert t_a.bytes_sent == t_b.bytes_received == _frame_bytes(batch)
    return t_a.bytes_sent, t_b.bytes_received


def _check_drop_filter_is_per_message(size):
    """The filter sees (and may drop) every member of a batch."""
    hub = LoopbackHub(drop_filter=lambda s, r, m:
                      int(m.timestamp) % 2 == 0)
    t_a = hub.attach(1)
    received = []
    hub.attach(2).on_receive(received.append)
    t_a.send(2, _batch(size))
    hub.deliver_all()
    assert [m.timestamp for m in received] == \
        [float(i) for i in range(size) if i % 2]
    assert hub.frames_dropped == (size + 1) // 2


def _check_loopback_unknown_receiver(size):
    hub = LoopbackHub()
    t_a = hub.attach(1)
    with pytest.raises(TransportError):
        t_a.send(99, _batch(size))


def _check_tcp_round_trip(size):
    """Order and byte/frame counters across a real socket."""
    received = []
    server = TcpTransport(2)
    server.on_receive(received.append)
    server.start()
    client = TcpTransport(1, peers={2: ("127.0.0.1", server.port)})
    client.start()
    try:
        batch = _batch(size)
        client.send(2, batch)
        # A trailing one-element send marks the end of the stream, so
        # the empty batch is seen to have put nothing before it.
        marker = _announce_stub(99)
        client.send(2, [marker])
        _wait_until(lambda: len(received) > size, timeout=10.0)
        assert received == batch + [marker]
        assert client.frames_sent == server.frames_received == size + 1
        assert client.bytes_sent == server.bytes_received == \
            _frame_bytes(batch + [marker])
    finally:
        client.stop()
        server.stop()


def _check_tcp_unknown_peer(size):
    transport = TcpTransport(1)
    transport.start()
    try:
        with pytest.raises(TransportError):
            transport.send(99, _batch(size))
    finally:
        transport.stop()


def _check_tcp_before_start(size):
    transport = TcpTransport(1, peers={2: ("127.0.0.1", 1)})
    with pytest.raises(TransportError):
        transport.send(2, _batch(size))
