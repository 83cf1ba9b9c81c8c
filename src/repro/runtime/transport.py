"""The Transport abstraction shared by simulator and runtime.

A transport moves encoded SPIDeR messages between ASes.  The
:class:`~repro.spider.recorder.Recorder` only ever calls
``transport(receiver, messages)`` — one signed chunk, or a one-element
broadcast — so a :class:`Transport` instance is directly usable wherever
the recorder takes a bare callable: the simulator closures, the
in-process loopback hub, and real TCP all present the same interface.

:class:`LoopbackTransport` is the hermetic implementation: messages
really pass through the binary codec and framing layers (serialization
bugs cannot hide), delivery order is deterministic, and a ``drop_filter``
plus seeded latency model allow fault injection without sockets.
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.registry import get_registry
from .codec import decode_message, encode_message
from .framing import FrameDecoder, LENGTH_BYTES, encode_frames

#: A delivery callback: receives the decoded message object.
ReceiveCallback = Callable[[object], None]


class TransportError(RuntimeError):
    """Raised when a transport cannot move a message."""


class Transport:
    """Base class: per-AS message egress plus receive dispatch."""

    def __init__(self, asn: int):
        self.asn = asn
        self._receivers: List[ReceiveCallback] = []
        #: Messages that arrived before any receiver registered.  A TCP
        #: peer can deliver while this side is still setting up (e.g.
        #: generating keys), and dropping those frames would deadlock
        #: the exchange — hold them until :meth:`on_receive`.
        self._undispatched: List[object] = []
        self._dispatch_lock = threading.Lock()
        #: Egress counters, kept by every implementation.
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_received = 0
        self.bytes_received = 0
        # Registry mirrors (shared across implementations so the dump
        # CLI attributes wire traffic per AS and transport kind).
        obs = get_registry()
        labels = {"node": f"as{asn}",
                  "transport": type(self).__name__}
        self._frames_sent_counter = obs.counter(
            "transport_frames_sent_total", **labels)
        self._bytes_sent_counter = obs.counter(
            "transport_bytes_sent_total", **labels)
        self._frames_received_counter = obs.counter(
            "transport_frames_received_total", **labels)
        self._bytes_received_counter = obs.counter(
            "transport_bytes_received_total", **labels)

    def _note_sent(self, nbytes: int) -> None:
        """Account one egress frame (attrs + registry, kept in step)."""
        self.frames_sent += 1
        self.bytes_sent += nbytes
        self._frames_sent_counter.inc()
        self._bytes_sent_counter.inc(nbytes)

    def _note_received(self, nbytes: int) -> None:
        """Account one ingress frame."""
        self.frames_received += 1
        self.bytes_received += nbytes
        self._frames_received_counter.inc()
        self._bytes_received_counter.inc(nbytes)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Bring the transport up (no-op where nothing listens)."""

    def stop(self) -> None:
        """Tear the transport down; idempotent."""

    # -- sending -------------------------------------------------------
    def send(self, receiver: int, messages: Sequence[object]) -> None:
        """Send a batch to one receiver: delivered in order, one
        coalesced submission (one hub entry, one cross-thread hop)."""
        raise NotImplementedError

    def __call__(self, receiver: int,
                 messages: Sequence[object]) -> None:
        # A Transport is a valid recorder transport callable.  ``send``
        # is looked up per call: the e2e tracer substitutes it on the
        # class between units, tests on the instance.
        self.send(receiver, messages)

    # -- receiving -----------------------------------------------------
    def on_receive(self, callback: ReceiveCallback) -> None:
        with self._dispatch_lock:
            self._receivers.append(callback)
            backlog, self._undispatched = self._undispatched, []
        for message in backlog:
            callback(message)

    def remove_receiver(self, callback: ReceiveCallback) -> None:
        """Stop dispatching to ``callback`` (registered by
        :meth:`on_receive`); idempotent.  A dispatch already under way
        may still reach it once."""
        with self._dispatch_lock:
            if callback in self._receivers:
                self._receivers.remove(callback)

    def _dispatch(self, message: object) -> None:
        with self._dispatch_lock:
            if not self._receivers:
                self._undispatched.append(message)
                return
            receivers = list(self._receivers)
        for callback in receivers:
            callback(message)


#: drop_filter signature: (sender, receiver, message) -> drop?
DropFilter = Callable[[int, int, object], bool]


class LoopbackHub:
    """An in-process switch connecting :class:`LoopbackTransport` ends.

    Every send is encoded to a real frame; deliveries decode it back, so
    the hub exercises the same codec path as TCP.  Ordering is
    deterministic: frames are delivered in (latency, send-sequence)
    order, where latency is 0 by default or drawn from a seeded RNG when
    ``max_latency`` is set — reproducible reordering for tests.
    """

    def __init__(self, seed: int = 0, min_latency: float = 0.0,
                 max_latency: float = 0.0,
                 drop_filter: Optional[DropFilter] = None):
        if max_latency < min_latency:
            raise ValueError("max_latency below min_latency")
        self._rng = random.Random(seed)
        self.min_latency = min_latency
        self.max_latency = max_latency
        self.drop_filter = drop_filter
        self._endpoints: Dict[int, "LoopbackTransport"] = {}
        self._queue: List[Tuple[float, int, int, bytes]] = []
        self._seq = itertools.count()
        self.frames_dropped = 0

    def attach(self, asn: int) -> "LoopbackTransport":
        if asn in self._endpoints:
            raise ValueError(f"AS {asn} already attached")
        endpoint = LoopbackTransport(asn, self)
        self._endpoints[asn] = endpoint
        return endpoint

    @property
    def endpoints(self) -> Dict[int, "LoopbackTransport"]:
        """Attached transports by ASN (read-only view for tests)."""
        return dict(self._endpoints)

    def _submit(self, sender: int, receiver: int,
                messages: Sequence[object],
                payloads: Sequence[bytes]) -> None:
        """One queue entry for a whole batch: the frames are gathered
        into a single contiguous buffer (the loopback equivalent of one
        socket write) and delivered together.  The drop filter still
        sees every message individually."""
        if receiver not in self._endpoints:
            raise TransportError(f"no endpoint for AS {receiver}")
        kept: List[bytes]
        if self.drop_filter is not None:
            kept = []
            for message, payload in zip(messages, payloads):
                if self.drop_filter(sender, receiver, message):
                    self.frames_dropped += 1
                else:
                    kept.append(payload)
        else:
            kept = list(payloads)
        if not kept:
            return
        latency = 0.0
        if self.max_latency > 0:
            latency = self._rng.uniform(self.min_latency,
                                        self.max_latency)
        heapq.heappush(
            self._queue,
            (latency, next(self._seq), receiver, encode_frames(kept)))

    @property
    def in_flight(self) -> int:
        return len(self._queue)

    def deliver_next(self) -> bool:
        """Deliver the next entry; False when nothing is in flight.

        An entry holds one coalesced :meth:`LoopbackTransport.send`
        batch; each contained message is accounted and dispatched
        individually.
        """
        if not self._queue:
            return False
        _latency, _seq, receiver, frame = heapq.heappop(self._queue)
        endpoint = self._endpoints.get(receiver)
        if endpoint is None:
            return True  # destination not attached: dropped on the floor
        payload = endpoint._decoder.feed(frame)
        for encoded in payload:
            endpoint._note_received(len(encoded) + LENGTH_BYTES)
            endpoint._dispatch(decode_message(encoded))
        return True

    def deliver_all(self) -> int:
        delivered = 0
        while self.deliver_next():
            delivered += 1
        return delivered


class LoopbackTransport(Transport):
    """One AS's endpoint on a :class:`LoopbackHub`."""

    def __init__(self, asn: int, hub: LoopbackHub):
        super().__init__(asn)
        self.hub = hub
        self._decoder = FrameDecoder()

    def send(self, receiver: int, messages: Sequence[object]) -> None:
        payloads = [encode_message(m) for m in messages]
        for payload in payloads:
            self._note_sent(len(payload) + LENGTH_BYTES)
        self.hub._submit(self.asn, receiver, messages, payloads)
